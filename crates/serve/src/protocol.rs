//! The wire protocol: one JSON object per line, request → response.
//!
//! Requests (`op` selects the verb; unknown fields are ignored):
//!
//! ```json
//! {"op":"plan","seqs":[9000,500],"method":"zeppelin","model":"3b","cluster":"a","nodes":2,"deadline_ms":250}
//! {"op":"audit","plan":{...}}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! `method`/`model`/`cluster`/`nodes` are optional on `plan`; the server
//! falls back to its configured defaults. `deadline_ms` is the client's
//! remaining latency budget, *relative* to when the server finishes reading
//! the request (relative so clock skew cannot expire it in flight); the
//! server propagates it through queueing, planning, and the response write,
//! answering `deadline_exceeded` instead of shipping a stale plan.
//!
//! Responses always carry `"ok"`; failures also carry a machine-readable
//! `"code"` (an [`ErrorCode`]) so clients can distinguish *typed server
//! verdicts* (never retried) from transport failures (retryable):
//!
//! ```json
//! {"ok":true,"cached":true,"degraded":false,"plan_us":12,"plan":{...}}
//! {"ok":true,"stats":{...}}
//! {"ok":true,"shutting_down":true}
//! {"ok":false,"code":"deadline_exceeded","error":"..."}
//! ```

use zeppelin_core::plan::IterationPlan;
use zeppelin_core::plan_io::{parse_json, plan_to_json, Json};

use crate::metrics::MetricsSnapshot;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Plan a batch of sequence lengths.
    Plan {
        /// Sequence lengths (all positive).
        seqs: Vec<u64>,
        /// Scheduler name; `None` = server default.
        method: Option<String>,
        /// Model preset; `None` = server default.
        model: Option<String>,
        /// Cluster preset; `None` = server default.
        cluster: Option<String>,
        /// Node count; `None` = server default.
        nodes: Option<usize>,
        /// Remaining latency budget in milliseconds, relative to request
        /// arrival; `None` = no deadline.
        deadline_ms: Option<u64>,
    },
    /// Audit a client-supplied plan document against the server's
    /// configured context; replies with the violation report.
    Audit {
        /// The plan as raw JSON text (re-parsed and audited server-side).
        plan: String,
    },
    /// Report service metrics.
    Stats,
    /// Drain and stop the server.
    Shutdown,
}

/// Upper bound on `seqs` entries in one plan request. A line under the
/// transport's size cap could still smuggle tens of millions of tiny
/// lengths; planning that would stall a worker, so the protocol rejects it
/// up front.
pub const MAX_SEQS: usize = 65_536;

/// Machine-readable failure classes carried in every error response.
///
/// Clients must treat all of these as final verdicts — a typed error means
/// the server is alive and has decided; retrying the identical request buys
/// nothing (and for `overloaded`/`shutting_down` actively makes it worse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON, unknown op, or invalid fields.
    BadRequest,
    /// Planning itself failed (typed `PlanError` from the scheduler).
    PlanFailed,
    /// The served or audited plan failed the audit layer.
    AuditFailed,
    /// Backpressure: the connection limit was reached, or too many jobs
    /// already wait for a job permit.
    Overloaded,
    /// The request's deadline expired before the response could ship.
    DeadlineExceeded,
    /// The planner panicked while serving this request; the panic was
    /// contained and the server is intact.
    WorkerPanicked,
    /// The server is draining; the request arrived past the grace period.
    ShuttingDown,
    /// The client dribbled or stalled a frame past the per-frame budget.
    SlowClient,
    /// A request line exceeded the frame size cap (the stream has been
    /// resynchronized at the next newline).
    FrameOversized,
}

impl ErrorCode {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::PlanFailed => "plan_failed",
            ErrorCode::AuditFailed => "audit_failed",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::WorkerPanicked => "worker_panicked",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::SlowClient => "slow_client",
            ErrorCode::FrameOversized => "frame_oversized",
        }
    }

    /// Parses a wire spelling back to the code (for clients and tests).
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "plan_failed" => ErrorCode::PlanFailed,
            "audit_failed" => ErrorCode::AuditFailed,
            "overloaded" => ErrorCode::Overloaded,
            "deadline_exceeded" => ErrorCode::DeadlineExceeded,
            "worker_panicked" => ErrorCode::WorkerPanicked,
            "shutting_down" => ErrorCode::ShuttingDown,
            "slow_client" => ErrorCode::SlowClient,
            "frame_oversized" => ErrorCode::FrameOversized,
            _ => return None,
        })
    }
}

fn opt_string(root: &Json, key: &str) -> Result<Option<String>, String> {
    match root.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("'{key}' must be a string")),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, unknown ops, or
/// invalid fields; the server wraps it in a `bad_request` error response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let root = parse_json(line).map_err(|e| e.to_string())?;
    let op = root
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request needs a string 'op' field")?;
    match op {
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "plan" => {
            let raw = root
                .get("seqs")
                .and_then(Json::as_array)
                .ok_or("'plan' needs a 'seqs' array of lengths")?;
            if raw.is_empty() {
                return Err("'seqs' must not be empty".to_string());
            }
            if raw.len() > MAX_SEQS {
                return Err(format!(
                    "'seqs' has {} entries, over the {MAX_SEQS} limit",
                    raw.len()
                ));
            }
            let mut seqs = Vec::with_capacity(raw.len());
            for v in raw {
                match v.as_u64() {
                    Some(len) if len > 0 => seqs.push(len),
                    _ => return Err("'seqs' entries must be positive integers".to_string()),
                }
            }
            let nodes = match root.get("nodes") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or("'nodes' must be a positive integer")?
                        .max(1) as usize,
                ),
            };
            let deadline_ms = match root.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or("'deadline_ms' must be a non-negative integer")?,
                ),
            };
            Ok(Request::Plan {
                seqs,
                method: opt_string(&root, "method")?,
                model: opt_string(&root, "model")?,
                cluster: opt_string(&root, "cluster")?,
                nodes,
                deadline_ms,
            })
        }
        "audit" => match root.get("plan") {
            Some(v @ Json::Object(_)) => Ok(Request::Audit {
                plan: v.to_string(),
            }),
            Some(_) => Err("'plan' must be an object".to_string()),
            None => Err("'audit' needs a 'plan' object".to_string()),
        },
        other => Err(format!("unknown op '{other}'")),
    }
}

impl Request {
    /// Serializes the request to its wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Stats => "{\"op\":\"stats\"}".to_string(),
            Request::Shutdown => "{\"op\":\"shutdown\"}".to_string(),
            Request::Audit { plan } => format!("{{\"op\":\"audit\",\"plan\":{plan}}}"),
            Request::Plan {
                seqs,
                method,
                model,
                cluster,
                nodes,
                deadline_ms,
            } => {
                let mut out = String::from("{\"op\":\"plan\"");
                let lens: Vec<String> = seqs.iter().map(u64::to_string).collect();
                out.push_str(&format!(",\"seqs\":[{}]", lens.join(",")));
                for (key, val) in [("method", method), ("model", model), ("cluster", cluster)] {
                    if let Some(v) = val {
                        out.push_str(&format!(",\"{key}\":{}", Json::String(v.clone())));
                    }
                }
                if let Some(n) = nodes {
                    out.push_str(&format!(",\"nodes\":{n}"));
                }
                if let Some(d) = deadline_ms {
                    out.push_str(&format!(",\"deadline_ms\":{d}"));
                }
                out.push('}');
                out
            }
        }
    }

    /// A plan request with every optional field defaulted — the common case
    /// in tests and exhibits.
    pub fn plan(seqs: Vec<u64>) -> Request {
        Request::Plan {
            seqs,
            method: None,
            model: None,
            cluster: None,
            nodes: None,
            deadline_ms: None,
        }
    }
}

/// Builds the success response for a served plan. `degraded` marks a plan
/// produced by the fallback scheduler under load shedding or an open
/// circuit breaker.
pub fn plan_response(plan: &IterationPlan, cached: bool, degraded: bool, plan_us: u64) -> String {
    format!(
        "{{\"ok\":true,\"cached\":{cached},\"degraded\":{degraded},\"plan_us\":{plan_us},\"plan\":{}}}",
        plan_to_json(plan)
    )
}

/// Builds the success response for a stats request.
pub fn stats_response(s: &MetricsSnapshot) -> String {
    format!(
        "{{\"ok\":true,\"stats\":{{\"plan_requests\":{},\"cache_hits\":{},\"hit_rate\":{:.4},\
         \"stats_requests\":{},\"errors\":{},\"rejected\":{},\"queue_depth\":{},\
         \"shed\":{},\"degraded\":{},\"deadline_exceeded\":{},\"worker_panics\":{},\
         \"worker_respawns\":{},\"breaker_trips\":{},\"slow_clients\":{},\"shutting_down\":{},\
         \"planner_runs\":{},\"coalesced\":{},\
         \"p50_us\":{},\"p99_us\":{},\"p999_us\":{}}}}}",
        s.plan_requests,
        s.cache_hits,
        s.hit_rate(),
        s.stats_requests,
        s.errors,
        s.rejected,
        s.queue_depth,
        s.shed,
        s.degraded,
        s.deadline_exceeded,
        s.worker_panics,
        s.worker_respawns,
        s.breaker_trips,
        s.slow_clients,
        s.shutting_down,
        s.planner_runs,
        s.coalesced,
        s.p50_us,
        s.p99_us,
        s.p999_us,
    )
}

/// Builds the shutdown acknowledgement.
pub fn shutdown_response() -> String {
    "{\"ok\":true,\"shutting_down\":true}".to_string()
}

/// Builds an untyped (legacy `bad_request`) error response.
pub fn error_response(message: &str) -> String {
    typed_error(ErrorCode::BadRequest, message)
}

/// Builds a typed error response carrying a machine-readable code.
pub fn typed_error(code: ErrorCode, message: &str) -> String {
    format!(
        "{{\"ok\":false,\"code\":{},\"error\":{}}}",
        Json::String(code.as_str().to_string()),
        Json::String(message.to_string())
    )
}

/// Extracts the [`ErrorCode`] from a parsed response line, if it is a typed
/// error.
pub fn response_error_code(line: &str) -> Option<ErrorCode> {
    let v = parse_json(line).ok()?;
    if v.get("ok") != Some(&Json::Bool(false)) {
        return None;
    }
    v.get("code")
        .and_then(Json::as_str)
        .and_then(ErrorCode::parse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_their_wire_lines() {
        let reqs = [
            Request::Stats,
            Request::Shutdown,
            Request::Plan {
                seqs: vec![9000, 500],
                method: Some("te".into()),
                model: None,
                cluster: Some("b".into()),
                nodes: Some(4),
                deadline_ms: Some(250),
            },
            Request::plan(vec![1]),
        ];
        for req in reqs {
            assert_eq!(
                parse_request(&req.to_line()).unwrap(),
                req,
                "{}",
                req.to_line()
            );
        }
    }

    #[test]
    fn audit_requests_round_trip_their_embedded_plan() {
        use zeppelin_core::plan::{IterationPlan, PlanOptions};
        use zeppelin_core::plan_io::plan_from_json;
        let plan = IterationPlan {
            scheduler: "wire-test".into(),
            placements: vec![],
            options: PlanOptions::default(),
            micro_batches: 1,
            redundant_attn_frac: 0.0,
        };
        let req = Request::Audit {
            plan: plan_to_json(&plan),
        };
        // The Json tree re-renders object keys sorted, so compare the
        // parsed plans rather than the raw strings.
        let Request::Audit { plan: wired } = parse_request(&req.to_line()).unwrap() else {
            panic!("audit request parses as audit");
        };
        assert_eq!(plan_from_json(&wired).unwrap(), plan);
    }

    #[test]
    fn malformed_requests_are_named_errors() {
        for (line, needle) in [
            ("{", "JSON parse error"),
            ("{\"seqs\":[1]}", "'op'"),
            ("{\"op\":\"fly\"}", "unknown op"),
            ("{\"op\":\"plan\"}", "'seqs'"),
            ("{\"op\":\"plan\",\"seqs\":[]}", "empty"),
            ("{\"op\":\"plan\",\"seqs\":[0]}", "positive"),
            ("{\"op\":\"plan\",\"seqs\":[1.5]}", "positive"),
            ("{\"op\":\"plan\",\"seqs\":[1],\"nodes\":\"x\"}", "'nodes'"),
            ("{\"op\":\"plan\",\"seqs\":[1],\"method\":7}", "'method'"),
            (
                "{\"op\":\"plan\",\"seqs\":[1],\"deadline_ms\":\"soon\"}",
                "'deadline_ms'",
            ),
            ("{\"op\":\"audit\"}", "'plan'"),
            ("{\"op\":\"audit\",\"plan\":7}", "'plan'"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line} → {err}");
        }
        // A hostile request flooding 'seqs' is rejected by count, before
        // any per-entry work.
        let flood = format!(
            "{{\"op\":\"plan\",\"seqs\":[{}]}}",
            "1,".repeat(MAX_SEQS) + "1"
        );
        let err = parse_request(&flood).unwrap_err();
        assert!(err.contains("limit"), "{err}");
    }

    #[test]
    fn responses_are_parseable_json_lines() {
        use zeppelin_core::plan_io::parse_json;
        let snap = MetricsSnapshot {
            plan_requests: 10,
            cache_hits: 9,
            degraded: 2,
            deadline_exceeded: 1,
            ..MetricsSnapshot::default()
        };
        let line = stats_response(&snap);
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let stats = v.get("stats").unwrap();
        assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(9));
        assert_eq!(stats.get("hit_rate").unwrap().as_f64(), Some(0.9));
        assert_eq!(stats.get("degraded").unwrap().as_u64(), Some(2));
        assert_eq!(stats.get("deadline_exceeded").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("p999_us").unwrap().as_u64(), Some(0));

        let err = error_response("bad \"thing\"\n");
        let v = parse_json(&err).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(v.get("error").unwrap().as_str(), Some("bad \"thing\"\n"));
        assert!(!err.contains('\n'), "responses must stay single-line");

        let v = parse_json(&shutdown_response()).unwrap();
        assert_eq!(v.get("shutting_down"), Some(&Json::Bool(true)));
    }

    #[test]
    fn typed_errors_carry_round_trippable_codes() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::PlanFailed,
            ErrorCode::AuditFailed,
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::WorkerPanicked,
            ErrorCode::ShuttingDown,
            ErrorCode::SlowClient,
            ErrorCode::FrameOversized,
        ] {
            let line = typed_error(code, "why");
            assert_eq!(response_error_code(&line), Some(code), "{line}");
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("weather"), None);
        // Success lines and non-JSON lines carry no code.
        assert_eq!(response_error_code(&shutdown_response()), None);
        assert_eq!(response_error_code("not json"), None);
    }
}
