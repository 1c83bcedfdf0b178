//! The workload model: a validated, seeded trace of training-job arrivals.
//!
//! A [`JobTrace`] is the cluster simulation's input — either generated
//! deterministically from a seed ([`JobTrace::random`] for Poisson-style
//! arrivals, [`JobTrace::skewed`] for the skewed-tenant fairness scenario,
//! both in the `FaultSchedule::random` idiom) or loaded from an explicit
//! JSON file ([`trace_from_json`]) with typed parse/schema/invariant errors
//! and no panics on hostile input.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use zeppelin_core::plan_io::{parse_json, Json, PlanIoError, MAX_JSON_DEPTH};
use zeppelin_sim::time::SimTime;
use zeppelin_sim::topology::ClusterSpec;

/// One training job in the arrival stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Trace-unique job id (also the tiebreaker for deterministic event
    /// ordering inside the driver).
    pub id: usize,
    /// Owning tenant, the unit of fair-share accounting.
    pub tenant: String,
    /// Model preset name, resolved via `zeppelin_model::config::by_name`.
    pub model: String,
    /// Dataset preset name, resolved via `zeppelin_data::datasets::by_name`.
    pub dataset: String,
    /// Step budget: the job completes after committing this many steps.
    pub steps: usize,
    /// Target context tokens per step (batches are sampled to at least
    /// this, exactly as in `run_training`).
    pub tokens_per_step: u64,
    /// Scheduling priority (higher preempts lower under fair-share).
    pub priority: u32,
    /// Minimum nodes the job can run on; it queues until this many are
    /// free and is rejected outright if the cluster is smaller.
    pub min_nodes: usize,
    /// Nodes requested at start (clamped to what is free).
    pub preferred_nodes: usize,
    /// Ceiling for elastic growth onto freed nodes.
    pub max_nodes: usize,
    /// Arrival instant on the cluster clock.
    pub arrival: SimTime,
    /// Per-job RNG seed for batch sampling (the same stream a standalone
    /// `run_training` with this seed would draw).
    pub seed: u64,
}

/// A validated stream of job arrivals, sorted by arrival time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobTrace {
    /// Jobs in non-decreasing arrival order.
    pub jobs: Vec<JobSpec>,
}

/// Why a trace failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The trace holds no jobs.
    Empty,
    /// Two jobs share an id.
    DuplicateId(usize),
    /// A job names an unknown model preset.
    UnknownModel {
        /// Offending job id.
        job: usize,
        /// The unresolved name.
        name: String,
    },
    /// A job names an unknown dataset preset.
    UnknownDataset {
        /// Offending job id.
        job: usize,
        /// The unresolved name.
        name: String,
    },
    /// A job has a zero step budget or zero tokens per step.
    ZeroWork(usize),
    /// A job's node bounds are inconsistent (need
    /// `1 ≤ min ≤ preferred ≤ max`).
    BadNodeBounds {
        /// Offending job id.
        job: usize,
        /// Its minimum nodes.
        min: usize,
        /// Its preferred nodes.
        preferred: usize,
        /// Its maximum nodes.
        max: usize,
    },
    /// Jobs are not sorted by arrival time.
    UnsortedArrivals(usize),
    /// A 64-bit field exceeds 2^53, the largest integer a JSON number
    /// (f64-backed) carries exactly — serializing it would silently
    /// corrupt a save/load round-trip, so validation rejects it loudly.
    UnportableField {
        /// Offending job id.
        job: usize,
        /// The field name (`seed`, `tokens_per_step`, or `arrival_ns`).
        field: &'static str,
        /// The out-of-range value.
        value: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace holds no jobs"),
            TraceError::DuplicateId(id) => write!(f, "duplicate job id {id}"),
            TraceError::UnknownModel { job, name } => {
                write!(f, "job {job}: unknown model \"{name}\"")
            }
            TraceError::UnknownDataset { job, name } => {
                write!(f, "job {job}: unknown dataset \"{name}\"")
            }
            TraceError::ZeroWork(id) => {
                write!(f, "job {id}: zero steps or zero tokens per step")
            }
            TraceError::BadNodeBounds {
                job,
                min,
                preferred,
                max,
            } => write!(
                f,
                "job {job}: node bounds must satisfy 1 <= min <= preferred <= max, \
                 got {min}/{preferred}/{max}"
            ),
            TraceError::UnsortedArrivals(id) => {
                write!(f, "job {id} arrives before its predecessor")
            }
            TraceError::UnportableField { job, field, value } => {
                write!(
                    f,
                    "job {job}: {field} = {value} exceeds 2^53 and cannot \
                     survive a JSON round-trip exactly"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Largest integer a JSON number carries exactly (2^53; the backing store
/// is an f64). 64-bit trace fields above this would silently change value
/// on a [`trace_to_json`]/[`trace_from_json`] round-trip, so both
/// [`JobTrace::validate`] and the JSON loader reject them.
pub const MAX_JSON_SAFE_U64: u64 = 1 << 53;

impl JobTrace {
    /// An empty trace (builder entry point).
    pub fn new() -> JobTrace {
        JobTrace::default()
    }

    /// Appends a job (builder style; validate before running).
    #[must_use]
    pub fn push(mut self, job: JobSpec) -> JobTrace {
        self.jobs.push(job);
        self
    }

    /// Checks trace invariants: non-empty, unique ids, resolvable model and
    /// dataset names, positive work, consistent node bounds, sorted
    /// arrivals, and 64-bit fields within [`MAX_JSON_SAFE_U64`] so a
    /// JSON round-trip is bit-exact.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] found.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.jobs.is_empty() {
            return Err(TraceError::Empty);
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut prev = SimTime::ZERO;
        for job in &self.jobs {
            if !seen.insert(job.id) {
                return Err(TraceError::DuplicateId(job.id));
            }
            if zeppelin_model::config::by_name(&job.model).is_err() {
                return Err(TraceError::UnknownModel {
                    job: job.id,
                    name: job.model.clone(),
                });
            }
            if zeppelin_data::datasets::by_name(&job.dataset).is_err() {
                return Err(TraceError::UnknownDataset {
                    job: job.id,
                    name: job.dataset.clone(),
                });
            }
            if job.steps == 0 || job.tokens_per_step == 0 {
                return Err(TraceError::ZeroWork(job.id));
            }
            if job.min_nodes == 0
                || job.min_nodes > job.preferred_nodes
                || job.preferred_nodes > job.max_nodes
            {
                return Err(TraceError::BadNodeBounds {
                    job: job.id,
                    min: job.min_nodes,
                    preferred: job.preferred_nodes,
                    max: job.max_nodes,
                });
            }
            if job.arrival < prev {
                return Err(TraceError::UnsortedArrivals(job.id));
            }
            for (field, value) in [
                ("seed", job.seed),
                ("tokens_per_step", job.tokens_per_step),
                ("arrival_ns", job.arrival.as_nanos()),
            ] {
                if value > MAX_JSON_SAFE_U64 {
                    return Err(TraceError::UnportableField {
                        job: job.id,
                        field,
                        value,
                    });
                }
            }
            prev = job.arrival;
        }
        Ok(())
    }

    /// Draws a random `n`-job trace from `seed` sized for `cluster` —
    /// deterministic per seed, which the replay property suite relies on.
    /// Arrivals are Poisson (exponential inter-arrival gaps); tenants,
    /// models, datasets, step budgets, and node bounds are mixed so every
    /// policy feature (queueing, backfill, elasticity) gets exercised.
    pub fn random(seed: u64, n: usize, cluster: &ClusterSpec) -> JobTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let tenants = ["acme", "beta", "crux", "dyne"];
        let models = ["3b", "3b", "3b", "moe", "moe"];
        let datasets = ["arxiv", "stackexchange", "openwebmath"];
        // Mean inter-arrival tuned so a handful of multi-step jobs overlap.
        let mean_gap_s = 1.5;
        let mut at_ns = 0u64;
        let mut jobs = Vec::with_capacity(n);
        for id in 0..n {
            at_ns += exp_gap_ns(&mut rng, mean_gap_s);
            let min_nodes = if rng.random_range(0u64..4) == 0 { 2 } else { 1 };
            let preferred = rng.random_range(min_nodes..min_nodes + 3);
            let max_raw: usize = rng.random_range(preferred..preferred + 4);
            let max_nodes = max_raw.min(cluster.nodes.max(preferred));
            jobs.push(JobSpec {
                id,
                tenant: tenants[rng.random_range(0usize..tenants.len())].to_string(),
                model: models[rng.random_range(0usize..models.len())].to_string(),
                dataset: datasets[rng.random_range(0usize..datasets.len())].to_string(),
                steps: rng.random_range(3usize..9),
                tokens_per_step: rng.random_range(16u64..49) * 1024,
                priority: rng.random_range(0u32..4),
                min_nodes,
                preferred_nodes: preferred,
                max_nodes,
                arrival: SimTime::from_nanos(at_ns),
                seed: rng.random_range(0u64..1_000_000_007),
            });
        }
        JobTrace { jobs }
    }

    /// Draws the skewed-tenant trace the fairness exhibit compares policies
    /// on. One "whale" tenant submits a burst of long, wide jobs — each
    /// demanding an eighth to a quarter of the cluster — while three
    /// minority tenants trickle in tiny, higher-priority jobs inside the
    /// saturated window. The skew is in node-second *demand*, not job
    /// count: under FIFO the blocked whale at the head of the queue
    /// head-of-line-blocks every minnow behind it even when a node or two
    /// sit free; fair-share caps the whale at its tenant share so minnows
    /// start promptly, at the price of stretching the whale's backlog.
    pub fn skewed(seed: u64, n: usize, cluster: &ClusterSpec) -> JobTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let minnows = ["beta", "crux", "dyne"];
        let whale_jobs = (n / 4).max(1);
        let mut jobs: Vec<JobSpec> = Vec::with_capacity(n);
        // Whale demand scales with the cluster so the burst saturates it
        // regardless of size: only a few whale jobs run concurrently and
        // the rest pile up at the head of a FIFO queue.
        let whale_min = (cluster.nodes / 8).max(2);
        let whale_span = (cluster.nodes / 8).max(1);
        let mut whale_at = 0u64;
        for _ in 0..whale_jobs {
            // Dense burst: the whale submits every ~150 ms.
            whale_at += exp_gap_ns(&mut rng, 0.15);
            let spread: usize = rng.random_range(0..whale_span);
            let preferred = whale_min + spread;
            jobs.push(JobSpec {
                id: 0, // renumbered after the merge sort below
                tenant: "whale".to_string(),
                model: "3b".to_string(),
                dataset: "arxiv".to_string(),
                steps: rng.random_range(16usize..28),
                tokens_per_step: rng.random_range(32u64..49) * 1024,
                priority: 0,
                min_nodes: whale_min,
                preferred_nodes: preferred,
                max_nodes: (preferred + whale_span).min(cluster.nodes.max(preferred)),
                arrival: SimTime::from_nanos(whale_at),
                seed: rng.random_range(0u64..1_000_000_007),
            });
        }
        // Minnows trickle inside the whale-saturated window, not after it —
        // a tail of arrivals onto an idle cluster would dilute the very
        // contention the exhibit measures.
        let mut minnow_at = 0u64;
        for i in whale_jobs..n {
            minnow_at += exp_gap_ns(&mut rng, 0.3);
            jobs.push(JobSpec {
                id: 0,
                tenant: minnows[i % minnows.len()].to_string(),
                model: if rng.random_range(0u64..3) == 0 {
                    "moe".to_string()
                } else {
                    "3b".to_string()
                },
                dataset: "stackexchange".to_string(),
                steps: rng.random_range(2usize..5),
                tokens_per_step: rng.random_range(16u64..33) * 1024,
                priority: rng.random_range(1u32..4),
                min_nodes: 1,
                preferred_nodes: 1,
                max_nodes: 2,
                arrival: SimTime::from_nanos(minnow_at),
                seed: rng.random_range(0u64..1_000_000_007),
            });
        }
        jobs.sort_by_key(|j| (j.arrival, j.tenant.clone()));
        for (id, job) in jobs.iter_mut().enumerate() {
            job.id = id;
        }
        JobTrace { jobs }
    }
}

/// One exponential inter-arrival gap in nanoseconds, at least 1 ns so
/// arrival order is strict.
fn exp_gap_ns(rng: &mut StdRng, mean_secs: f64) -> u64 {
    let u: f64 = rng.random_range(0.0..1.0);
    let gap = -(1.0 - u).ln() * mean_secs;
    ((gap * 1e9) as u64).max(1)
}

/// Errors from trace (de)serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceIoError {
    /// The JSON text is malformed.
    Parse {
        /// Byte offset of the error.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// The JSON is valid but not a trace (missing/mistyped fields).
    Schema(String),
    /// The document is a well-formed trace that violates trace invariants.
    Invalid(TraceError),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Parse { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            TraceIoError::Schema(m) => write!(f, "trace schema error: {m}"),
            TraceIoError::Invalid(e) => write!(f, "invalid trace: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

/// Schema version written by [`trace_to_json`].
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Upper bound on an on-disk trace document, shared with the CLI's bounded
/// file read so hostile inputs cannot balloon memory.
pub const MAX_TRACE_BYTES: u64 = 8 * 1024 * 1024;

/// Serializes a trace to compact JSON (inverse of [`trace_from_json`]).
///
/// JSON numbers are f64-backed, so 64-bit fields are exact only up to
/// [`MAX_JSON_SAFE_U64`]; [`JobTrace::validate`] rejects traces beyond
/// that bound, and on any validated trace the round-trip is bit-exact.
pub fn trace_to_json(trace: &JobTrace) -> String {
    use std::collections::BTreeMap;
    let jobs: Vec<Json> = trace
        .jobs
        .iter()
        .map(|j| {
            let mut o = BTreeMap::new();
            o.insert("id".into(), Json::Number(j.id as f64));
            o.insert("tenant".into(), Json::String(j.tenant.clone()));
            o.insert("model".into(), Json::String(j.model.clone()));
            o.insert("dataset".into(), Json::String(j.dataset.clone()));
            o.insert("steps".into(), Json::Number(j.steps as f64));
            o.insert(
                "tokens_per_step".into(),
                Json::Number(j.tokens_per_step as f64),
            );
            o.insert("priority".into(), Json::Number(j.priority as f64));
            o.insert("min_nodes".into(), Json::Number(j.min_nodes as f64));
            o.insert(
                "preferred_nodes".into(),
                Json::Number(j.preferred_nodes as f64),
            );
            o.insert("max_nodes".into(), Json::Number(j.max_nodes as f64));
            o.insert(
                "arrival_ns".into(),
                Json::Number(j.arrival.as_nanos() as f64),
            );
            o.insert("seed".into(), Json::Number(j.seed as f64));
            Json::Object(o)
        })
        .collect();
    let mut root = BTreeMap::new();
    root.insert(
        "schema_version".into(),
        Json::Number(TRACE_SCHEMA_VERSION as f64),
    );
    root.insert("jobs".into(), Json::Array(jobs));
    Json::Object(root).to_string()
}

fn field_u64(job: &Json, key: &str, idx: usize) -> Result<u64, TraceIoError> {
    let v = job.get(key).and_then(Json::as_u64).ok_or_else(|| {
        TraceIoError::Schema(format!("jobs[{idx}].{key}: expected a whole number"))
    })?;
    // The parser stores numbers as f64, so anything above 2^53 may already
    // have been rounded — reject loudly instead of replaying a trace that
    // silently differs from the file.
    if v > MAX_JSON_SAFE_U64 {
        return Err(TraceIoError::Schema(format!(
            "jobs[{idx}].{key}: {v} exceeds 2^53 and cannot be represented exactly"
        )));
    }
    Ok(v)
}

fn field_str(job: &Json, key: &str, idx: usize) -> Result<String, TraceIoError> {
    job.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| TraceIoError::Schema(format!("jobs[{idx}].{key}: expected a string")))
}

/// Parses and validates a trace document.
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] for malformed or too deeply nested JSON,
/// [`TraceIoError::Schema`] for missing or mistyped fields, and
/// [`TraceIoError::Invalid`] when the well-formed trace violates
/// [`JobTrace::validate`] invariants.
pub fn trace_from_json(text: &str) -> Result<JobTrace, TraceIoError> {
    let root = parse_json(text).map_err(|e| match e {
        PlanIoError::Parse { offset, message } => TraceIoError::Parse { offset, message },
        PlanIoError::TooDeep { offset } => TraceIoError::Parse {
            offset,
            message: format!("nesting deeper than {MAX_JSON_DEPTH} levels"),
        },
        other => TraceIoError::Schema(other.to_string()),
    })?;
    if let Some(v) = root.get("schema_version").and_then(Json::as_u64) {
        if v != TRACE_SCHEMA_VERSION {
            return Err(TraceIoError::Schema(format!(
                "unsupported schema_version {v} (expected {TRACE_SCHEMA_VERSION})"
            )));
        }
    }
    let jobs = root
        .get("jobs")
        .and_then(Json::as_array)
        .ok_or_else(|| TraceIoError::Schema("top-level \"jobs\" array missing".into()))?;
    let mut trace = JobTrace::new();
    for (idx, job) in jobs.iter().enumerate() {
        trace.jobs.push(JobSpec {
            id: field_u64(job, "id", idx)? as usize,
            tenant: field_str(job, "tenant", idx)?,
            model: field_str(job, "model", idx)?,
            dataset: field_str(job, "dataset", idx)?,
            steps: field_u64(job, "steps", idx)? as usize,
            tokens_per_step: field_u64(job, "tokens_per_step", idx)?,
            priority: field_u64(job, "priority", idx)? as u32,
            min_nodes: field_u64(job, "min_nodes", idx)? as usize,
            preferred_nodes: field_u64(job, "preferred_nodes", idx)? as usize,
            max_nodes: field_u64(job, "max_nodes", idx)? as usize,
            arrival: SimTime::from_nanos(field_u64(job, "arrival_ns", idx)?),
            seed: field_u64(job, "seed", idx)?,
        });
    }
    trace.validate().map_err(TraceIoError::Invalid)?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeppelin_sim::topology::cluster_a;

    fn job(id: usize) -> JobSpec {
        JobSpec {
            id,
            tenant: "acme".into(),
            model: "3b".into(),
            dataset: "arxiv".into(),
            steps: 3,
            tokens_per_step: 16_384,
            priority: 1,
            min_nodes: 1,
            preferred_nodes: 2,
            max_nodes: 4,
            arrival: SimTime::from_nanos(id as u64 * 1_000),
            seed: 7,
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let c = cluster_a(8);
        let a = JobTrace::random(11, 20, &c);
        let b = JobTrace::random(11, 20, &c);
        assert_eq!(a, b);
        let other = JobTrace::random(12, 20, &c);
        assert_ne!(a, other);
        a.validate().unwrap();
    }

    #[test]
    fn skewed_trace_validates_and_has_a_whale() {
        let c = cluster_a(16);
        let t = JobTrace::skewed(3, 40, &c);
        t.validate().unwrap();
        let whale = t.jobs.iter().filter(|j| j.tenant == "whale").count();
        assert_eq!(whale, 10);
        assert!(t.jobs.iter().any(|j| j.tenant != "whale"));
    }

    #[test]
    fn validate_rejects_bad_traces() {
        assert_eq!(JobTrace::new().validate(), Err(TraceError::Empty));
        let dup = JobTrace::new().push(job(0)).push(job(0));
        assert_eq!(dup.validate(), Err(TraceError::DuplicateId(0)));
        let mut bad = job(1);
        bad.model = "70b".into();
        assert!(matches!(
            JobTrace::new().push(bad).validate(),
            Err(TraceError::UnknownModel { job: 1, .. })
        ));
        let mut bounds = job(2);
        bounds.min_nodes = 3;
        bounds.preferred_nodes = 2;
        assert!(matches!(
            JobTrace::new().push(bounds).validate(),
            Err(TraceError::BadNodeBounds { job: 2, .. })
        ));
        let mut early = job(3);
        early.arrival = SimTime::ZERO;
        let unsorted = JobTrace::new().push(job(1)).push(early);
        assert_eq!(unsorted.validate(), Err(TraceError::UnsortedArrivals(3)));
    }

    #[test]
    fn json_round_trips() {
        let t = JobTrace::random(5, 8, &cluster_a(8));
        let text = trace_to_json(&t);
        let back = trace_from_json(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn json_round_trips_at_the_precision_boundary() {
        // 2^53 is the largest exactly representable integer: it must
        // survive the round-trip bit-identically.
        let mut edge = job(0);
        edge.seed = MAX_JSON_SAFE_U64;
        let t = JobTrace::new().push(edge);
        t.validate().unwrap();
        let back = trace_from_json(&trace_to_json(&t)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn oversized_u64_fields_are_rejected_loudly() {
        // A seed above 2^53 would come back altered from a JSON
        // round-trip; validation refuses it instead of corrupting it.
        let mut huge = job(0);
        huge.seed = u64::MAX;
        let err = JobTrace::new().push(huge).validate().unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::UnportableField {
                    job: 0,
                    field: "seed",
                    value: u64::MAX,
                }
            ),
            "{err}"
        );
        // The loader applies the same bound to hand-written files.
        let text = format!(
            "{{\"jobs\": [{{\"id\": 0, \"tenant\": \"a\", \"model\": \"3b\", \
             \"dataset\": \"arxiv\", \"steps\": 1, \"tokens_per_step\": 1024, \
             \"priority\": 1, \"min_nodes\": 1, \"preferred_nodes\": 1, \
             \"max_nodes\": 1, \"arrival_ns\": 0, \"seed\": {}}}]}}",
            u64::MAX
        );
        assert!(
            matches!(trace_from_json(&text), Err(TraceIoError::Schema(_))),
            "loader must reject out-of-range seed"
        );
    }

    #[test]
    fn json_errors_are_typed() {
        assert!(matches!(
            trace_from_json("{nope"),
            Err(TraceIoError::Parse { .. })
        ));
        assert!(matches!(
            trace_from_json("{\"jobs\": 3}"),
            Err(TraceIoError::Schema(_))
        ));
        assert!(matches!(
            trace_from_json("{\"jobs\": [{\"id\": \"x\"}]}"),
            Err(TraceIoError::Schema(_))
        ));
        // Well-formed but invalid: duplicate ids surface as Invalid.
        let dup = trace_to_json(&JobTrace::new().push(job(0)).push(job(0)));
        assert!(matches!(
            trace_from_json(&dup),
            Err(TraceIoError::Invalid(TraceError::DuplicateId(0)))
        ));
    }
}
