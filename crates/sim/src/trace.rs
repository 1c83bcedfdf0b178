//! Execution timelines and Chrome-trace export.
//!
//! Traced tasks become [`TraceEvent`]s. A [`Trace`] can be summarized per
//! rank/category (used by the Fig. 12 timeline reproduction) or exported as
//! Chrome `chrome://tracing` / Perfetto JSON for visual inspection.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::time::{SimDuration, SimTime};
use crate::topology::Rank;

/// Category of a traced event; mapped to lanes/colours in viewers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TraceCategory {
    /// Attention kernel execution.
    AttentionCompute,
    /// Linear-module (GEMM/MLP/norm) execution.
    LinearCompute,
    /// Ring attention KV send-receive.
    RingComm,
    /// Routing-layer intra-node dispatch step.
    Dispatch,
    /// Routing-layer inter-node transfer step.
    InterNode,
    /// Routing-layer intra-node combine step.
    Combine,
    /// Remapping-layer all-to-all traffic.
    Remap,
    /// Anything else.
    Other,
}

impl TraceCategory {
    /// Stable lowercase name used in exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            TraceCategory::AttentionCompute => "attention",
            TraceCategory::LinearCompute => "linear",
            TraceCategory::RingComm => "ring_comm",
            TraceCategory::Dispatch => "dispatch",
            TraceCategory::InterNode => "inter_node",
            TraceCategory::Combine => "combine",
            TraceCategory::Remap => "remap",
            TraceCategory::Other => "other",
        }
    }
}

/// The words a [`TraceLabel`] can add to its name: round tags, name
/// suffixes, and trailing words. Keeping them in one table lets a label
/// store each as a one-byte index, so a label is 32 bytes and `Copy`.
const WORDS: [&str; 9] = ["", "r", "dr", "t", "-ag", "-ar", "-a2a", "fwd", "bwd"];

/// Marks an absent round or edge.
const NONE: u32 = u32::MAX;

/// Index of `word` in [`WORDS`].
///
/// # Panics
///
/// Panics if `word` is not in the table (a new label word needs an entry).
fn word(word: &str) -> u8 {
    match WORDS.iter().position(|w| *w == word) {
        Some(i) => i as u8,
        None => panic!("trace label word {word:?} is not one of {WORDS:?}"),
    }
}

/// Narrows a round or rank to a label field.
fn field(value: usize) -> u32 {
    match u32::try_from(value) {
        Ok(v) if v != NONE => v,
        _ => panic!("trace label number {value} does not fit a u32"),
    }
}

/// Human-readable label of a traced task, built from static parts so that
/// tracing a task allocates nothing.
///
/// Renders as `{name}{suffix}[ {tag}{round}][ {tail}][ {src}->{dst}]`, for
/// example `attn r3 fwd`, `kv r0 7->8`, or `grads-ag r2 0->1`. The suffix,
/// round tag, and tail are drawn from a small fixed vocabulary: `-ag`,
/// `-ar`, `-a2a`; `r`, `dr`, `t`; `fwd`, `bwd` (or empty).
///
/// ```
/// use zeppelin_sim::trace::TraceLabel;
///
/// let label = TraceLabel::new("kv").with_round("r", 3).with_edge(7, 8);
/// assert_eq!(label.to_string(), "kv r3 7->8");
/// assert_eq!(label.edge(), Some((7, 8)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceLabel {
    name: &'static str,
    round: u32,
    src: u32,
    dst: u32,
    suffix: u8,
    tag: u8,
    tail: u8,
}

impl TraceLabel {
    /// A label that is just `name`.
    pub const fn new(name: &'static str) -> TraceLabel {
        TraceLabel {
            name,
            round: NONE,
            src: NONE,
            dst: NONE,
            suffix: 0,
            tag: 0,
            tail: 0,
        }
    }

    /// Appends `suffix` (`-ag`, `-ar`, or `-a2a`) to the name with no
    /// separator.
    ///
    /// # Panics
    ///
    /// Panics if `suffix` is outside the label vocabulary.
    pub fn with_suffix(mut self, suffix: &str) -> TraceLabel {
        self.suffix = word(suffix);
        self
    }

    /// Adds a round counter such as `r3` (`tag` = `"r"`, `round` = 3); the
    /// tag is `r`, `dr`, `t`, or empty.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is outside the label vocabulary or `round` does not
    /// fit a `u32`.
    pub fn with_round(mut self, tag: &str, round: usize) -> TraceLabel {
        self.tag = word(tag);
        self.round = field(round);
        self
    }

    /// Adds a trailing word after the round: the pass direction, `fwd` or
    /// `bwd`.
    ///
    /// # Panics
    ///
    /// Panics if `tail` is outside the label vocabulary.
    pub fn with_tail(mut self, tail: &str) -> TraceLabel {
        self.tail = word(tail);
        self
    }

    /// Adds the `src->dst` endpoints of a transfer.
    ///
    /// # Panics
    ///
    /// Panics if a rank does not fit a `u32`.
    pub fn with_edge(mut self, src: Rank, dst: Rank) -> TraceLabel {
        self.src = field(src);
        self.dst = field(dst);
        self
    }

    /// The `(src, dst)` endpoints of a transfer label.
    pub fn edge(&self) -> Option<(Rank, Rank)> {
        (self.src != NONE).then_some((self.src as Rank, self.dst as Rank))
    }
}

impl std::fmt::Display for TraceLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)?;
        f.write_str(WORDS[self.suffix as usize])?;
        if self.round != NONE {
            write!(f, " {}{}", WORDS[self.tag as usize], self.round)?;
        }
        if self.tail != 0 {
            write!(f, " {}", WORDS[self.tail as usize])?;
        }
        if let Some((src, dst)) = self.edge() {
            write!(f, " {src}->{dst}")?;
        }
        Ok(())
    }
}

/// One rectangle on the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Rank the event is attributed to.
    pub rank: Rank,
    /// Category (lane).
    pub category: TraceCategory,
    /// Human-readable label.
    pub label: TraceLabel,
    /// Start instant.
    pub start: SimTime,
    /// End instant.
    pub end: SimTime,
}

impl TraceEvent {
    /// Event duration.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// An ordered collection of trace events.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(events: I) -> Trace {
        Trace {
            events: events.into_iter().collect(),
        }
    }
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// All events in insertion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Total busy time per `(rank, category)`.
    pub fn busy_by_rank_category(&self) -> BTreeMap<(Rank, TraceCategory), SimDuration> {
        let mut map: BTreeMap<(Rank, TraceCategory), SimDuration> = BTreeMap::new();
        for ev in &self.events {
            let entry = map
                .entry((ev.rank, ev.category))
                .or_insert(SimDuration::ZERO);
            *entry = entry.saturating_add(ev.duration());
        }
        map
    }

    /// Total busy time per category across all ranks.
    pub fn busy_by_category(&self) -> BTreeMap<TraceCategory, SimDuration> {
        let mut map: BTreeMap<TraceCategory, SimDuration> = BTreeMap::new();
        for ev in &self.events {
            let entry = map.entry(ev.category).or_insert(SimDuration::ZERO);
            *entry = entry.saturating_add(ev.duration());
        }
        map
    }

    /// Events attributed to `rank`, in start order.
    pub fn rank_timeline(&self, rank: Rank) -> Vec<&TraceEvent> {
        let mut evs: Vec<&TraceEvent> = self.events.iter().filter(|e| e.rank == rank).collect();
        evs.sort_by_key(|e| (e.start, e.end));
        evs
    }

    /// Idle gaps ("bubbles", §5.4.1 of the paper) on one rank's compute
    /// categories: periods between the rank's first and last compute event
    /// where no attention/linear work runs. Returns `(start, end)` pairs of
    /// gaps at least `min_gap` long, in order.
    pub fn compute_bubbles(&self, rank: Rank, min_gap: SimDuration) -> Vec<(SimTime, SimTime)> {
        let mut intervals: Vec<(SimTime, SimTime)> = self
            .events
            .iter()
            .filter(|e| {
                e.rank == rank
                    && matches!(
                        e.category,
                        TraceCategory::AttentionCompute | TraceCategory::LinearCompute
                    )
            })
            .map(|e| (e.start, e.end))
            .collect();
        intervals.sort();
        let mut bubbles = Vec::new();
        let mut horizon: Option<SimTime> = None;
        for (s, e) in intervals {
            if let Some(h) = horizon {
                if s > h && s.since(h) >= min_gap {
                    bubbles.push((h, s));
                }
            }
            horizon = Some(horizon.map_or(e, |h| h.max(e)));
        }
        bubbles
    }

    /// Total bubble time across all ranks' compute streams.
    pub fn total_bubble_time(&self, min_gap: SimDuration) -> SimDuration {
        let mut ranks: Vec<Rank> = self.events.iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        let mut total = SimDuration::ZERO;
        for r in ranks {
            for (s, e) in self.compute_bubbles(r, min_gap) {
                total = total.saturating_add(e.since(s));
            }
        }
        total
    }

    /// Serializes the trace to Chrome trace-event JSON.
    ///
    /// Load the output in `chrome://tracing` or Perfetto. Ranks become
    /// threads (`tid`), `pid` is fixed at 1, categories become `cat`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut label = String::new();
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            label.clear();
            let _ = write!(label, "{}", ev.label);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
                escape_json(&label),
                ev.category.name(),
                ev.start.as_micros_f64(),
                ev.duration().as_micros_f64(),
                ev.rank
            );
        }
        out.push_str("]}");
        out
    }

    /// Renders a compact ASCII timeline (one row per rank) for terminals.
    ///
    /// `width` is the number of character cells the makespan maps onto.
    pub fn to_ascii(&self, width: usize) -> String {
        let makespan = self
            .events
            .iter()
            .map(|e| e.end)
            .max()
            .unwrap_or(SimTime::ZERO);
        if makespan == SimTime::ZERO || width == 0 || self.events.is_empty() {
            return String::new();
        }
        let mut ranks: Vec<Rank> = self.events.iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        let scale = width as f64 / makespan.as_nanos() as f64;
        let mut out = String::new();
        for rank in ranks {
            let mut row = vec![' '; width];
            for ev in self.events.iter().filter(|e| e.rank == rank) {
                let s = ((ev.start.as_nanos() as f64 * scale) as usize).min(width - 1);
                let e = ((ev.end.as_nanos() as f64 * scale) as usize).clamp(s + 1, width);
                let ch = match ev.category {
                    TraceCategory::AttentionCompute => 'A',
                    TraceCategory::LinearCompute => 'L',
                    TraceCategory::RingComm => 'r',
                    TraceCategory::Dispatch => 'd',
                    TraceCategory::InterNode => 'N',
                    TraceCategory::Combine => 'c',
                    TraceCategory::Remap => 'm',
                    TraceCategory::Other => '.',
                };
                for cell in row.iter_mut().take(e).skip(s) {
                    // Compute wins over comm in shared cells for readability.
                    if *cell == ' ' || ch == 'A' || ch == 'L' {
                        *cell = ch;
                    }
                }
            }
            let _ = writeln!(out, "rank {rank:>3} |{}|", row.iter().collect::<String>());
        }
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: Rank, cat: TraceCategory, s: u64, e: u64) -> TraceEvent {
        TraceEvent {
            rank,
            category: cat,
            label: TraceLabel::new(cat.name()).with_round("r", rank),
            start: SimTime::from_nanos(s),
            end: SimTime::from_nanos(e),
        }
    }

    #[test]
    fn busy_aggregation_sums_durations() {
        let mut t = Trace::new();
        t.push(ev(0, TraceCategory::AttentionCompute, 0, 10));
        t.push(ev(0, TraceCategory::AttentionCompute, 20, 35));
        t.push(ev(1, TraceCategory::RingComm, 0, 7));
        let by_rc = t.busy_by_rank_category();
        assert_eq!(by_rc[&(0, TraceCategory::AttentionCompute)].as_nanos(), 25);
        assert_eq!(by_rc[&(1, TraceCategory::RingComm)].as_nanos(), 7);
        let by_c = t.busy_by_category();
        assert_eq!(by_c[&TraceCategory::AttentionCompute].as_nanos(), 25);
    }

    #[test]
    fn rank_timeline_is_sorted_by_start() {
        let mut t = Trace::new();
        t.push(ev(0, TraceCategory::RingComm, 50, 60));
        t.push(ev(0, TraceCategory::AttentionCompute, 0, 10));
        t.push(ev(1, TraceCategory::AttentionCompute, 0, 10));
        let tl = t.rank_timeline(0);
        assert_eq!(tl.len(), 2);
        assert!(tl[0].start < tl[1].start);
    }

    #[test]
    fn bubbles_are_detected_between_compute_events() {
        let mut t = Trace::new();
        t.push(ev(0, TraceCategory::AttentionCompute, 0, 100));
        t.push(ev(0, TraceCategory::RingComm, 100, 300)); // Comm, not compute.
        t.push(ev(0, TraceCategory::LinearCompute, 300, 400));
        t.push(ev(0, TraceCategory::AttentionCompute, 410, 500)); // 10ns gap.
        let bubbles = t.compute_bubbles(0, SimDuration::from_nanos(50));
        // The 100..300 comm window is a 200ns compute bubble; the 10ns gap
        // is below the threshold.
        assert_eq!(
            bubbles,
            vec![(SimTime::from_nanos(100), SimTime::from_nanos(300))]
        );
        assert_eq!(
            t.total_bubble_time(SimDuration::from_nanos(50)).as_nanos(),
            200
        );
        // Lowering the threshold reveals the small gap too.
        assert_eq!(t.compute_bubbles(0, SimDuration::from_nanos(1)).len(), 2);
    }

    #[test]
    fn overlapping_compute_produces_no_bubbles() {
        let mut t = Trace::new();
        t.push(ev(1, TraceCategory::AttentionCompute, 0, 100));
        t.push(ev(1, TraceCategory::LinearCompute, 50, 150));
        assert!(t.compute_bubbles(1, SimDuration::from_nanos(1)).is_empty());
        // A rank with no compute has no bubbles either.
        assert!(t.compute_bubbles(7, SimDuration::from_nanos(1)).is_empty());
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let mut t = Trace::new();
        t.push(ev(0, TraceCategory::AttentionCompute, 0, 1_000));
        t.push(ev(3, TraceCategory::InterNode, 1_000, 2_500));
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"cat\":\"inter_node\""));
        // Exactly one comma between the two events at the top level.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn json_escaping_handles_special_chars() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("plain"), "plain");
    }

    #[test]
    fn ascii_timeline_renders_rows() {
        let mut t = Trace::new();
        t.push(ev(0, TraceCategory::AttentionCompute, 0, 500));
        t.push(ev(1, TraceCategory::InterNode, 500, 1000));
        let art = t.to_ascii(20);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('A'));
        assert!(lines[1].contains('N'));
        // Rank 0's work is in the first half, rank 1's in the second.
        let a_pos = lines[0].find('A').unwrap();
        let n_pos = lines[1].find('N').unwrap();
        assert!(a_pos < n_pos);
    }

    #[test]
    fn ascii_timeline_empty_trace_is_empty() {
        assert!(Trace::new().to_ascii(40).is_empty());
    }

    #[test]
    fn labels_render_every_lowered_shape() {
        let cases = [
            (
                TraceLabel::new("attn-local").with_tail("fwd"),
                "attn-local fwd",
            ),
            (
                TraceLabel::new("attn")
                    .with_round("dr", 12)
                    .with_tail("bwd"),
                "attn dr12 bwd",
            ),
            (
                TraceLabel::new("dr-kv").with_round("t", 0).with_edge(3, 11),
                "dr-kv t0 3->11",
            ),
            (TraceLabel::new("a2a-qkv").with_edge(0, 9), "a2a-qkv 0->9"),
            (
                TraceLabel::new("grads")
                    .with_suffix("-ar")
                    .with_round("r", 5)
                    .with_edge(2, 3),
                "grads-ar r5 2->3",
            ),
            (
                TraceLabel::new("").with_suffix("-a2a").with_edge(1, 0),
                "-a2a 1->0",
            ),
        ];
        for (label, want) in cases {
            assert_eq!(label.to_string(), want);
        }
        assert_eq!(TraceLabel::new("linear").edge(), None);
        assert_eq!(TraceLabel::new("x").with_edge(4, 5).edge(), Some((4, 5)));
        assert_eq!(std::mem::size_of::<TraceLabel>(), 32);
    }

    #[test]
    #[should_panic(expected = "not one of")]
    fn words_outside_the_vocabulary_panic() {
        let _ = TraceLabel::new("x").with_tail("sideways");
    }

    #[test]
    fn chrome_json_escapes_rendered_labels() {
        let mut t = Trace::new();
        let mut e = ev(0, TraceCategory::Other, 0, 1);
        e.label = TraceLabel::new("say \"hi\"").with_edge(0, 1);
        t.push(e);
        assert!(t.to_chrome_json().contains(r#""name":"say \"hi\" 0->1""#));
    }

    #[test]
    fn category_names_are_stable() {
        assert_eq!(TraceCategory::AttentionCompute.name(), "attention");
        assert_eq!(TraceCategory::Remap.name(), "remap");
    }
}
