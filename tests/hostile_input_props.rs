//! Hostile-input property suite: arbitrary bytes, and random mutations of
//! valid documents, fed into every parser that reads untrusted text. Each
//! must answer `Ok` or a typed error and never panic:
//!
//! - `plan_from_json` (plan files, serve `audit` requests), followed by the
//!   audit a parsed plan goes through before anything lowers it;
//! - `serve::parse_request` (every serve request line);
//! - `cluster::trace_from_json` (cluster trace files);
//! - `data::batch::parse_lengths` (the CLI's `--seqs-file`).
//!
//! Honors `PROPTEST_CASES` like the other property suites; CI runs this
//! file in the deep sweep.

use proptest::prelude::*;

use zeppelin::cluster::trace::{trace_from_json, trace_to_json};
use zeppelin::cluster::JobTrace;
use zeppelin::core::plan_io::{plan_from_json, plan_to_json};
use zeppelin::core::scheduler::{Scheduler, SchedulerCtx};
use zeppelin::core::validate::{validate, validate_with_batch};
use zeppelin::core::zeppelin::Zeppelin;
use zeppelin::data::batch::{parse_lengths, Batch};
use zeppelin::model::config::llama_3b;
use zeppelin::serve::protocol::{parse_request, Request};
use zeppelin::sim::topology::cluster_mixed;

/// Bytes a mutation inserts: JSON structure, digits, number syntax,
/// literal fragments, whitespace, comment markers, and invalid UTF-8.
const ALPHABET: &[u8] = b"[]{}\":,0123456789-+.eE tfnrul\\\n#\x00\xff";

/// Values a mutation swaps in for a number: boundaries of the integer
/// types fields are read into, non-integers, and values of the wrong type.
/// Keeps the document well-formed, so the edit reaches schema checks and
/// the audit instead of stopping at the tokenizer.
const VALUES: [&str; 17] = [
    "0",
    "-1",
    "1",
    "7",
    "65535",
    "4294967296",
    "4503599627370496",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "1e999",
    "-0",
    "0.5",
    "null",
    "true",
    "\"x\"",
    "[]",
];

/// A context with mixed node tiers, so parsed plans are audited against
/// speed-aware remap targets and weighted chunk geometry too.
fn ctx() -> SchedulerCtx {
    SchedulerCtx::new(&cluster_mixed(2), &llama_3b()).with_capacity(16_384)
}

fn batch() -> Batch {
    Batch::new(vec![60_000, 9_000, 2_000, 1_000, 500, 300, 200, 100])
}

/// A real speed-aware plan: weighted placements and `speed_aware_remap`.
fn plan_doc() -> String {
    plan_to_json(&Zeppelin::new().plan(&batch(), &ctx()).expect("plan"))
}

fn request_docs() -> Vec<String> {
    let plan = Request::Plan {
        seqs: vec![9_000, 500, 2_500],
        method: Some("zeppelin".into()),
        model: Some("3b".into()),
        cluster: Some("mixed".into()),
        nodes: Some(3),
        deadline_ms: Some(250),
    };
    let audit = Request::Audit { plan: plan_doc() };
    vec![plan.to_line(), audit.to_line(), Request::Stats.to_line()]
}

fn trace_doc() -> String {
    trace_to_json(&JobTrace::random(5, 3, &cluster_mixed(4)))
}

const LENGTHS_DOC: &str = "# per-document token counts\n30000\n9000\n\n2500\n  1200\n500\n";

/// Feeds `text` to every entry point; the property runner reports any
/// panic with the case's input. Parsed plans, and the plans inside parsed
/// audit requests, go on through the audit.
fn feed(text: &str) {
    let audit = |doc: &str| {
        if let Ok(plan) = plan_from_json(doc) {
            let _ = validate(&plan, &ctx());
            let _ = validate_with_batch(&plan, &ctx(), &batch());
        }
    };
    audit(text);
    if let Ok(Request::Audit { plan }) = parse_request(text) {
        audit(&plan);
    }
    let _ = trace_from_json(text);
    let _ = parse_lengths(text);
}

/// One edit at a relative position (scaled to the document's length).
#[derive(Debug, Clone)]
enum Edit {
    Delete {
        at: u16,
        len: u8,
    },
    Insert {
        at: u16,
        byte: u8,
    },
    Replace {
        at: u16,
        byte: u8,
    },
    Duplicate {
        at: u16,
        len: u8,
    },
    Truncate {
        at: u16,
    },
    /// Replaces the first number at or after `at` with `VALUES[value]`.
    Number {
        at: u16,
        value: usize,
    },
}

fn arb_byte() -> impl Strategy<Value = u8> {
    (0..ALPHABET.len()).prop_map(|i| ALPHABET[i])
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<u16>(), 1u8..16).prop_map(|(at, len)| Edit::Delete { at, len }),
        (any::<u16>(), arb_byte()).prop_map(|(at, byte)| Edit::Insert { at, byte }),
        (any::<u16>(), arb_byte()).prop_map(|(at, byte)| Edit::Replace { at, byte }),
        (any::<u16>(), 1u8..64).prop_map(|(at, len)| Edit::Duplicate { at, len }),
        any::<u16>().prop_map(|at| Edit::Truncate { at }),
        (any::<u16>(), 0..VALUES.len()).prop_map(|(at, value)| Edit::Number { at, value }),
        (any::<u16>(), 0..VALUES.len()).prop_map(|(at, value)| Edit::Number { at, value }),
    ]
}

/// Applies `edits` to `doc`'s bytes; the result may be invalid UTF-8,
/// which is replaced the way a lossy reader would.
fn mutate(doc: &str, edits: &[Edit]) -> String {
    let mut b = doc.as_bytes().to_vec();
    for e in edits {
        let pos = |at: u16, n: usize| (usize::from(at) * (n + 1)) >> 16;
        match *e {
            Edit::Delete { at, len } => {
                let i = pos(at, b.len());
                let j = (i + usize::from(len)).min(b.len());
                b.drain(i..j);
            }
            Edit::Insert { at, byte } => {
                let i = pos(at, b.len());
                b.insert(i, byte);
            }
            Edit::Replace { at, byte } => {
                if !b.is_empty() {
                    let i = pos(at, b.len() - 1);
                    b[i] = byte;
                }
            }
            Edit::Duplicate { at, len } => {
                let i = pos(at, b.len());
                let j = (i + usize::from(len)).min(b.len());
                let copy = b[i..j].to_vec();
                b.splice(j..j, copy);
            }
            Edit::Truncate { at } => {
                let i = pos(at, b.len());
                b.truncate(i);
            }
            Edit::Number { at, value } => {
                let numeric = |c: &u8| c.is_ascii_digit() || b"-+.eE".contains(c);
                let from = pos(at, b.len());
                if let Some(i) = b[from..].iter().position(u8::is_ascii_digit) {
                    let i = from + i;
                    let j = b[i..]
                        .iter()
                        .position(|c| !numeric(c))
                        .map_or(b.len(), |k| i + k);
                    b.splice(i..j, VALUES[value].bytes());
                }
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, lossily decoded, never panic any entry point.
    #[test]
    fn arbitrary_bytes_get_ok_or_a_typed_error(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        feed(&String::from_utf8_lossy(&bytes));
    }

    /// Short strings over the JSON alphabet reach deeper into the parsers
    /// than uniform bytes do.
    #[test]
    fn json_alphabet_soup_gets_ok_or_a_typed_error(
        bytes in prop::collection::vec(arb_byte(), 0..96),
    ) {
        feed(&String::from_utf8_lossy(&bytes));
    }

    /// Mutations of a valid speed-aware plan document, which the audit
    /// then checks against a mixed-tier context.
    #[test]
    fn mutated_plans_get_ok_or_a_typed_error(
        edits in prop::collection::vec(arb_edit(), 1..4),
    ) {
        feed(&mutate(&plan_doc(), &edits));
    }

    /// Mutations of valid serve request lines: plan, audit and stats.
    #[test]
    fn mutated_requests_get_ok_or_a_typed_error(
        which in 0usize..3,
        edits in prop::collection::vec(arb_edit(), 1..4),
    ) {
        feed(&mutate(&request_docs()[which], &edits));
    }

    /// Mutations of a valid cluster trace document.
    #[test]
    fn mutated_traces_get_ok_or_a_typed_error(
        edits in prop::collection::vec(arb_edit(), 1..4),
    ) {
        feed(&mutate(&trace_doc(), &edits));
    }

    /// Mutations of a valid `--seqs-file` lengths document.
    #[test]
    fn mutated_length_files_get_ok_or_a_typed_error(
        edits in prop::collection::vec(arb_edit(), 1..4),
    ) {
        feed(&mutate(LENGTHS_DOC, &edits));
    }
}

/// The unmutated corpus parses: mutations start from valid documents.
#[test]
fn the_seed_documents_are_valid() {
    let plan = plan_from_json(&plan_doc()).expect("plan document");
    assert!(plan.options.speed_aware_remap);
    assert!(plan.placements.iter().any(|p| !p.weights.is_empty()));
    validate_with_batch(&plan, &ctx(), &batch()).expect("plan audits clean");
    for line in request_docs() {
        parse_request(&line).expect("request line");
    }
    assert_eq!(trace_from_json(&trace_doc()).expect("trace").jobs.len(), 3);
    assert_eq!(
        parse_lengths(LENGTHS_DOC).expect("lengths").seqs,
        vec![30_000, 9_000, 2_500, 1_200, 500]
    );
}
