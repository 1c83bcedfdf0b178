//! In-memory spans and counters for the traced run, plus the statistics
//! helpers every workload shares.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! the public functions of each layer: nothing inside the program is
//! instrumented. They stay in memory and are written as JSON once the run
//! ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `exec.lower`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The step, cluster run, or request the span belongs to.
    pub id: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span and counter recorder for one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records an interval measured by the caller and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends; children recorded in
    /// between name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, id, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: usize) {
        let end = self.ns(Instant::now());
        self.spans[span].end_ns = end;
    }

    /// Appends another recorder's spans and counters, re-based onto this
    /// recorder's clock.
    pub fn adopt(&mut self, other: Tracer) {
        let shift = self.ns(other.origin);
        let base = self.spans.len();
        for mut s in other.spans {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
        for (name, v) in other.counters {
            self.count(name, v);
        }
    }

    /// Adds `v` to a counter.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Summed duration of every span named `name`, in milliseconds.
    pub fn busy_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time per span name, in milliseconds: each span's duration minus
    /// the part of its interval that its children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                covered[p] += hi.saturating_sub(lo);
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            *out.entry(s.name).or_insert(0.0) += s.dur_ns().saturating_sub(*c) as f64 / 1e6;
        }
        out
    }

    /// Spans, counters, and self times as one JSON object.
    pub fn to_json(&self) -> String {
        let mut j = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                j,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            )
            .expect("write to String");
        }
        j.push_str("],\"counters\":");
        j.push_str(&json_map(self.counters.iter().map(|(k, v)| (*k, *v))));
        j.push_str(",\"self_ms\":");
        j.push_str(&json_map(self.self_ms().into_iter()));
        j.push('}');
        j
    }
}

/// Renders `name → number` pairs as a JSON object.
pub fn json_map<'a>(pairs: impl Iterator<Item = (&'a str, f64)>) -> String {
    let body: Vec<String> = pairs
        .map(|(k, v)| format!("\"{k}\":{}", json_num(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A finite number as JSON, with every digit; non-finite values become
/// `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample; 0 when
/// empty. Below 100 samples the 99th percentile is the maximum.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Consecutive samples per window of [`windowed_percentile`].
pub const TAIL_WINDOW: usize = 1000;

/// The `q` percentile of samples in arrival order. With at least two
/// windows of [`TAIL_WINDOW`] samples it is the median of the windows'
/// percentiles, so one host stall does not decide it; otherwise it is the
/// plain nearest-rank percentile.
pub fn windowed_percentile(samples: &[f64], q: f64) -> f64 {
    if samples.len() < 2 * TAIL_WINDOW {
        return percentile(samples, q);
    }
    let per_window: Vec<f64> = samples
        .chunks_exact(TAIL_WINDOW)
        .map(|w| percentile(w, q))
        .collect();
    percentile(&per_window, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Seconds as a float.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs `build` `n` times and keeps the last result; the others go to
/// `discard`. Returns the kept result and the median set-up time in
/// seconds, so that one slow first set-up does not decide the metric.
pub fn median_setup<T>(
    n: usize,
    mut build: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut kept = None;
    for _ in 0..n.max(1) {
        let t0 = Instant::now();
        let value = build();
        times.push(secs(t0.elapsed()));
        if let Some(old) = kept.replace(value) {
            discard(old);
        }
    }
    (
        kept.expect("at least one set-up ran"),
        percentile(&times, 0.5),
    )
}

/// FNV-1a over the simulated outputs, so two commits can be compared for
/// bit-identical results.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes raw bytes in.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The top 53 bits, which a JSON number holds exactly.
    pub fn value(&self) -> f64 {
        (self.0 >> 11) as f64
    }
}

/// Peak resident set of this process in MB (10^6 bytes), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// A 64-bit mix for deriving independent streams from one seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.99), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_percentile_ignores_one_bad_window() {
        let mut v: Vec<f64> = (0..5 * TAIL_WINDOW).map(|i| (i % 100) as f64).collect();
        assert_eq!(windowed_percentile(&v, 0.99), 98.0);
        v[..TAIL_WINDOW].iter_mut().for_each(|x| *x = 1e6);
        assert_eq!(windowed_percentile(&v, 0.99), 98.0);
        assert_eq!(windowed_percentile(&v, 0.95), 94.0);
        assert_eq!(windowed_percentile(&[1.0, 5.0, 3.0], 0.99), 5.0);
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new();
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("root", None, 0, at(0), at(10));
        t.record("child", Some(root), 0, at(2), at(5));
        t.record("child", Some(root), 0, at(8), at(12));
        let s = t.self_ms();
        assert!((s["root"] - 5.0).abs() < 1e-6, "{s:?}");
        assert!((s["child"] - 7.0).abs() < 1e-6, "{s:?}");
        assert!((t.busy_ms("child") - 7.0).abs() < 1e-6);
        assert_eq!(t.calls("child"), 2);
    }
}
