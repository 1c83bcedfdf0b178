//! Seeded chaos harness for the serving front-end.
//!
//! A [`ServeFaultSchedule`] scripts adversarial client and planner behavior
//! — connections dropped mid-request, byte-dribbling slow clients, malformed
//! and oversized frames, injected planner stalls and panics — drawn
//! deterministically from a seed ([`ServeFaultSchedule::random`]) and
//! validated before use, in the same idiom as the simulator's
//! infrastructure-fault schedules (`zeppelin_sim::fault`). The loopback
//! runner ([`run_chaos`]) boots a real server with chaos-tuned (short)
//! timeouts, fires every event against it over TCP, and checks the serving
//! invariants the fault-tolerance layer promises:
//!
//! 1. every fault resolves **typed** — an error response with a machine
//!    code, a degraded plan, or a clean close — within the SLO; nothing
//!    hangs;
//! 2. serving capacity never shrinks: after the storm, `workers` held
//!    connections all answer a concurrent liveness probe;
//! 3. the server recovers: a clean post-chaos request, which needs a job
//!    permit, is served `ok` with `degraded: false` within the SLO, so no
//!    permit leaked.
//!
//! Planner faults are injected through [`PlannerChaos`], a queue the server
//! consumes at the top of each *primary* planner run. When admission control
//! or the circuit breaker bypasses the primary planner, the queued fault is
//! not consumed; the runner drains leftovers after each event
//! ([`PlannerChaos::take_pending`]) so a fault aimed at event N can never
//! fire during the post-chaos recovery check.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use zeppelin_core::plan_io::{parse_json, Json};

use crate::frame::MAX_FRAME_BYTES;
use crate::protocol::{response_error_code, ErrorCode, Request};
use crate::server::{Server, ServerConfig, ServerReport};

/// One injected planner-side fault, consumed at the top of a primary
/// planner run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerFault {
    /// The planner stalls for this many milliseconds before planning.
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// The planner panics.
    Panic,
}

/// A queue of planner faults the server consumes on each primary planner
/// run (injected via [`ServerConfig::chaos`]; `None` in production).
#[derive(Debug, Default)]
pub struct PlannerChaos {
    queue: Mutex<VecDeque<PlannerFault>>,
}

impl PlannerChaos {
    /// An empty fault queue.
    pub fn new() -> PlannerChaos {
        PlannerChaos::default()
    }

    /// Queues a planner stall of `ms` milliseconds.
    pub fn push_stall(&self, ms: u64) {
        self.queue
            .lock()
            .expect("chaos poisoned")
            .push_back(PlannerFault::Stall { ms });
    }

    /// Queues a planner panic.
    pub fn push_panic(&self) {
        self.queue
            .lock()
            .expect("chaos poisoned")
            .push_back(PlannerFault::Panic);
    }

    /// Consumes and enacts the next queued fault, if any. Called by the
    /// server at the top of each primary planner run.
    ///
    /// # Panics
    ///
    /// Panics (on purpose) when the next fault is [`PlannerFault::Panic`] —
    /// the server's containment turns it into a typed `worker_panicked`
    /// response.
    pub fn before_plan(&self) {
        let fault = self.queue.lock().expect("chaos poisoned").pop_front();
        match fault {
            Some(PlannerFault::Stall { ms }) => {
                std::thread::sleep(Duration::from_millis(ms));
            }
            Some(PlannerFault::Panic) => panic!("chaos: injected planner panic"),
            None => {}
        }
    }

    /// Drains faults that were queued but never consumed (the primary
    /// planner was bypassed by shedding or an open breaker). The runner
    /// calls this after each planner-fault event so leftovers cannot fire
    /// during later events or the recovery check.
    pub fn take_pending(&self) -> Vec<PlannerFault> {
        self.queue
            .lock()
            .expect("chaos poisoned")
            .drain(..)
            .collect()
    }

    /// Faults currently queued.
    pub fn pending(&self) -> usize {
        self.queue.lock().expect("chaos poisoned").len()
    }
}

/// One scripted fault against the serving front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeFault {
    /// A well-formed plan request (the control case: chaos schedules mix
    /// clean traffic between faults so recovery is exercised mid-storm).
    CleanPlan {
        /// Sequence lengths to plan.
        seqs: Vec<u64>,
    },
    /// Connect, write a prefix of a request line, and drop the connection
    /// without ever sending the newline.
    DropMidRequest {
        /// How many bytes of the request line to send before dropping.
        bytes: usize,
    },
    /// A slow-loris client: the request line is dribbled a byte at a time
    /// until the server's per-frame budget sheds the connection.
    ByteDribble {
        /// Sequence lengths of the (never completed) plan request.
        seqs: Vec<u64>,
        /// Delay between bytes, milliseconds.
        gap_ms: u64,
    },
    /// A syntactically hostile frame (invalid JSON / unknown op); must be
    /// answered with a typed `bad_request`.
    MalformedFrame {
        /// The garbage payload (no newline; the runner appends it).
        payload: String,
    },
    /// A line exceeding the frame cap, followed by a valid plan request on
    /// the same connection: the server must answer `frame_oversized`,
    /// resynchronize, and then serve the valid request.
    OversizedFrame {
        /// Oversized line length in bytes (> [`MAX_FRAME_BYTES`]).
        bytes: usize,
        /// The follow-up plan request proving resynchronization.
        seqs: Vec<u64>,
    },
    /// An injected planner stall longer than the request's deadline: the
    /// server must answer `deadline_exceeded` (or serve degraded if the
    /// planner was bypassed), never ship late.
    PlannerStall {
        /// Stall duration, milliseconds.
        ms: u64,
        /// Request deadline, milliseconds (strictly less than `ms`).
        deadline_ms: u64,
        /// Sequence lengths (unique per event so the cache cannot absorb
        /// the fault).
        seqs: Vec<u64>,
    },
    /// An injected planner panic: the server must answer a typed
    /// `worker_panicked` (or serve degraded if the planner was bypassed)
    /// and get the job's permit back.
    PlannerPanic {
        /// Sequence lengths (unique per event, as above).
        seqs: Vec<u64>,
    },
}

impl ServeFault {
    /// Short wire-style tag for logs.
    pub fn tag(&self) -> &'static str {
        match self {
            ServeFault::CleanPlan { .. } => "clean_plan",
            ServeFault::DropMidRequest { .. } => "drop_mid_request",
            ServeFault::ByteDribble { .. } => "byte_dribble",
            ServeFault::MalformedFrame { .. } => "malformed_frame",
            ServeFault::OversizedFrame { .. } => "oversized_frame",
            ServeFault::PlannerStall { .. } => "planner_stall",
            ServeFault::PlannerPanic { .. } => "planner_panic",
        }
    }

    /// One deterministic log line describing the event.
    pub fn describe(&self) -> String {
        match self {
            ServeFault::CleanPlan { seqs } => {
                format!("clean_plan seqs={seqs:?}")
            }
            ServeFault::DropMidRequest { bytes } => {
                format!("drop_mid_request bytes={bytes}")
            }
            ServeFault::ByteDribble { seqs, gap_ms } => {
                format!("byte_dribble seqs={} gap_ms={gap_ms}", seqs.len())
            }
            ServeFault::MalformedFrame { payload } => {
                format!("malformed_frame len={}", payload.len())
            }
            ServeFault::OversizedFrame { bytes, seqs } => {
                format!("oversized_frame bytes={bytes} then seqs={seqs:?}")
            }
            ServeFault::PlannerStall {
                ms,
                deadline_ms,
                seqs,
            } => format!("planner_stall ms={ms} deadline_ms={deadline_ms} seqs={seqs:?}"),
            ServeFault::PlannerPanic { seqs } => {
                format!("planner_panic seqs={seqs:?}")
            }
        }
    }
}

/// A deterministic script of serving faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeFaultSchedule {
    /// The seed the schedule was drawn from (0 for hand-built schedules).
    pub seed: u64,
    events: Vec<ServeFault>,
}

/// Hard bounds a valid schedule must respect (all enforced by
/// [`ServeFaultSchedule::validate`]).
pub mod limits {
    /// Most events one schedule may script.
    pub const MAX_EVENTS: usize = 64;
    /// Most sequences one scripted plan request may carry.
    pub const MAX_EVENT_SEQS: usize = 64;
    /// Longest scripted sequence length.
    pub const MAX_SEQ_LEN: u64 = 16_384;
    /// Longest injected planner stall, milliseconds.
    pub const MAX_STALL_MS: u64 = 800;
    /// Largest oversized-frame payload (4 × the frame cap).
    pub const MAX_OVERSIZED_BYTES: usize = 4 * super::MAX_FRAME_BYTES;
    /// Largest mid-request drop prefix, bytes.
    pub const MAX_DROP_BYTES: usize = 4_096;
    /// Largest malformed payload, bytes.
    pub const MAX_MALFORMED_BYTES: usize = 4_096;
    /// Largest dribble gap, milliseconds.
    pub const MAX_GAP_MS: u64 = 200;
}

impl ServeFaultSchedule {
    /// An empty schedule (valid only after events are added).
    pub fn new() -> ServeFaultSchedule {
        ServeFaultSchedule::default()
    }

    /// The scripted events, in execution order.
    pub fn events(&self) -> &[ServeFault] {
        &self.events
    }

    /// True when nothing is scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds an event.
    pub fn push(&mut self, ev: ServeFault) -> &mut Self {
        self.events.push(ev);
        self
    }

    /// Builder: clean plan request.
    pub fn clean_plan(mut self, seqs: Vec<u64>) -> Self {
        self.events.push(ServeFault::CleanPlan { seqs });
        self
    }

    /// Builder: connection dropped `bytes` into a request line.
    pub fn drop_mid_request(mut self, bytes: usize) -> Self {
        self.events.push(ServeFault::DropMidRequest { bytes });
        self
    }

    /// Builder: slow-loris dribble.
    pub fn byte_dribble(mut self, seqs: Vec<u64>, gap_ms: u64) -> Self {
        self.events.push(ServeFault::ByteDribble { seqs, gap_ms });
        self
    }

    /// Builder: malformed frame.
    pub fn malformed_frame(mut self, payload: impl Into<String>) -> Self {
        self.events.push(ServeFault::MalformedFrame {
            payload: payload.into(),
        });
        self
    }

    /// Builder: oversized frame followed by a valid request.
    pub fn oversized_frame(mut self, bytes: usize, seqs: Vec<u64>) -> Self {
        self.events.push(ServeFault::OversizedFrame { bytes, seqs });
        self
    }

    /// Builder: planner stall past the request deadline.
    pub fn planner_stall(mut self, ms: u64, deadline_ms: u64, seqs: Vec<u64>) -> Self {
        self.events.push(ServeFault::PlannerStall {
            ms,
            deadline_ms,
            seqs,
        });
        self
    }

    /// Builder: planner panic.
    pub fn planner_panic(mut self, seqs: Vec<u64>) -> Self {
        self.events.push(ServeFault::PlannerPanic { seqs });
        self
    }

    /// One log line per event — the deterministic event log the replay
    /// test compares across same-seed draws.
    pub fn event_log(&self) -> Vec<String> {
        self.events
            .iter()
            .enumerate()
            .map(|(i, ev)| format!("[{i:02}] {}", ev.describe()))
            .collect()
    }

    /// Checks every event against the harness bounds in [`limits`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first offending event.
    pub fn validate(&self) -> Result<(), String> {
        if self.events.is_empty() {
            return Err("schedule has no events".to_string());
        }
        if self.events.len() > limits::MAX_EVENTS {
            return Err(format!(
                "schedule has {} events, over the {} limit",
                self.events.len(),
                limits::MAX_EVENTS
            ));
        }
        let check_seqs = |seqs: &[u64], what: &str| {
            if seqs.is_empty() {
                return Err(format!("{what} has an empty 'seqs'"));
            }
            if seqs.len() > limits::MAX_EVENT_SEQS {
                return Err(format!(
                    "{what} has {} seqs, over the {} limit",
                    seqs.len(),
                    limits::MAX_EVENT_SEQS
                ));
            }
            if let Some(&bad) = seqs.iter().find(|&&s| s == 0 || s > limits::MAX_SEQ_LEN) {
                return Err(format!(
                    "{what} has seq length {bad} outside [1, {}]",
                    limits::MAX_SEQ_LEN
                ));
            }
            Ok(())
        };
        for (i, ev) in self.events.iter().enumerate() {
            let what = format!("event {i} ({})", ev.tag());
            match ev {
                ServeFault::CleanPlan { seqs } => check_seqs(seqs, &what)?,
                ServeFault::DropMidRequest { bytes } => {
                    if *bytes == 0 || *bytes > limits::MAX_DROP_BYTES {
                        return Err(format!(
                            "{what}: drop prefix {bytes} outside [1, {}]",
                            limits::MAX_DROP_BYTES
                        ));
                    }
                }
                ServeFault::ByteDribble { seqs, gap_ms } => {
                    check_seqs(seqs, &what)?;
                    if *gap_ms == 0 || *gap_ms > limits::MAX_GAP_MS {
                        return Err(format!(
                            "{what}: gap {gap_ms}ms outside [1, {}]",
                            limits::MAX_GAP_MS
                        ));
                    }
                }
                ServeFault::MalformedFrame { payload } => {
                    if payload.is_empty() || payload.len() > limits::MAX_MALFORMED_BYTES {
                        return Err(format!(
                            "{what}: payload length {} outside [1, {}]",
                            payload.len(),
                            limits::MAX_MALFORMED_BYTES
                        ));
                    }
                    if payload.contains('\n') {
                        return Err(format!("{what}: payload must be a single line"));
                    }
                }
                ServeFault::OversizedFrame { bytes, seqs } => {
                    check_seqs(seqs, &what)?;
                    if *bytes <= MAX_FRAME_BYTES || *bytes > limits::MAX_OVERSIZED_BYTES {
                        return Err(format!(
                            "{what}: oversized length {bytes} outside ({MAX_FRAME_BYTES}, {}]",
                            limits::MAX_OVERSIZED_BYTES
                        ));
                    }
                }
                ServeFault::PlannerStall {
                    ms,
                    deadline_ms,
                    seqs,
                } => {
                    check_seqs(seqs, &what)?;
                    if *ms == 0 || *ms > limits::MAX_STALL_MS {
                        return Err(format!(
                            "{what}: stall {ms}ms outside [1, {}]",
                            limits::MAX_STALL_MS
                        ));
                    }
                    if *deadline_ms == 0 || deadline_ms >= ms {
                        return Err(format!(
                            "{what}: deadline {deadline_ms}ms must be in [1, stall)"
                        ));
                    }
                }
                ServeFault::PlannerPanic { seqs } => check_seqs(seqs, &what)?,
            }
        }
        Ok(())
    }

    /// Draws a `count`-event schedule from `seed` — deterministic per seed
    /// (the replay suite relies on this), always valid, and always mixing
    /// clean traffic between faults. Plan-carrying events draw unique
    /// sequence multisets so the cache cannot absorb a planner fault.
    pub fn random(seed: u64, count: usize) -> ServeFaultSchedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = count.clamp(1, limits::MAX_EVENTS);
        let mut out = ServeFaultSchedule {
            seed,
            events: Vec::with_capacity(count),
        };
        // Uniqueness salt: each plan-carrying event perturbs its lengths by
        // a fresh counter so no two events share a cache key.
        let mut salt: u64 = 0;
        let fresh_seqs = |rng: &mut StdRng, salt: &mut u64| {
            *salt += 1;
            let n = rng.random_range(1usize..=8);
            (0..n)
                .map(|i| {
                    let base = rng.random_range(64u64..=8_192);
                    (base + *salt * 17 + i as u64).min(limits::MAX_SEQ_LEN)
                })
                .collect::<Vec<u64>>()
        };
        for i in 0..count {
            // Every third event is clean traffic: recovery is exercised
            // between faults, not only after the storm.
            if i % 3 == 2 {
                let seqs = fresh_seqs(&mut rng, &mut salt);
                out.events.push(ServeFault::CleanPlan { seqs });
                continue;
            }
            match rng.random_range(0u64..6) {
                0 => out.events.push(ServeFault::DropMidRequest {
                    bytes: rng.random_range(1usize..=64),
                }),
                1 => out.events.push(ServeFault::ByteDribble {
                    seqs: fresh_seqs(&mut rng, &mut salt),
                    gap_ms: rng.random_range(20u64..=60),
                }),
                2 => {
                    let payloads = [
                        "{\"op\":\"fly\"}",
                        "{\"op\":\"plan\",\"seqs\":[0]}",
                        "not json at all",
                        "{\"op\":\"plan\",\"seqs\":\"nope\"}",
                        "{{{{{{",
                    ];
                    let pick = rng.random_range(0u64..payloads.len() as u64) as usize;
                    out.events.push(ServeFault::MalformedFrame {
                        payload: payloads[pick].to_string(),
                    });
                }
                3 => out.events.push(ServeFault::OversizedFrame {
                    bytes: MAX_FRAME_BYTES + rng.random_range(1usize..=MAX_FRAME_BYTES / 4),
                    seqs: fresh_seqs(&mut rng, &mut salt),
                }),
                4 => {
                    let ms = rng.random_range(150u64..=400);
                    let deadline_ms = rng.random_range(10u64..=ms / 2);
                    out.events.push(ServeFault::PlannerStall {
                        ms,
                        deadline_ms,
                        seqs: fresh_seqs(&mut rng, &mut salt),
                    });
                }
                _ => out.events.push(ServeFault::PlannerPanic {
                    seqs: fresh_seqs(&mut rng, &mut salt),
                }),
            }
        }
        out
    }
}

/// How one chaos event resolved at the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventResolution {
    /// A successful plan response (`degraded` records its tag).
    Ok {
        /// Whether the plan was served by the fallback scheduler.
        degraded: bool,
    },
    /// A typed error response.
    TypedError(ErrorCode),
    /// The server closed the connection without a response (legal for
    /// dropped/dribbled clients).
    Closed,
    /// No resolution within the SLO — an invariant violation.
    Hang,
}

/// One line of the runner's event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventOutcome {
    /// Index in the schedule.
    pub index: usize,
    /// The event's [`ServeFault::describe`] line.
    pub event: String,
    /// How it resolved.
    pub resolution: EventResolution,
    /// Wall time to resolution, milliseconds.
    pub elapsed_ms: u64,
    /// Planner faults left unconsumed (drained) after the event.
    pub drained_faults: usize,
}

/// Everything [`run_chaos`] observed, plus the verdict.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The schedule's seed.
    pub seed: u64,
    /// Per-event outcomes, in schedule order.
    pub outcomes: Vec<EventOutcome>,
    /// Invariant violations ("" when everything held).
    pub violations: Vec<String>,
    /// Whether the post-chaos clean request succeeded.
    pub recovered_ok: bool,
    /// Whether the post-chaos clean request was degraded (must be false).
    pub recovered_degraded: bool,
    /// Post-chaos clean-request latency, milliseconds.
    pub recovery_ms: u64,
    /// Workers that answered the concurrent liveness probe.
    pub workers_alive: usize,
    /// Workers the server was configured with.
    pub workers_configured: usize,
    /// The server's final report (metrics + cache) after shutdown.
    pub server: ServerReport,
}

impl ChaosReport {
    /// The chaos invariant: every event resolved typed within the SLO, all
    /// workers answered the liveness probe, and the post-chaos request was
    /// served clean (`ok`, not degraded).
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
            && self.recovered_ok
            && !self.recovered_degraded
            && self.workers_alive == self.workers_configured
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos seed={} events={} violations={}\n",
            self.seed,
            self.outcomes.len(),
            self.violations.len()
        ));
        for o in &self.outcomes {
            out.push_str(&format!(
                "  [{:02}] {:<48} -> {:?} in {}ms (drained {})\n",
                o.index, o.event, o.resolution, o.elapsed_ms, o.drained_faults
            ));
        }
        for v in &self.violations {
            out.push_str(&format!("  VIOLATION: {v}\n"));
        }
        out.push_str(&format!(
            "  recovery: ok={} degraded={} in {}ms; workers {}/{} alive; \
             panics={} escaped_panics={} shed={} degraded_served={} deadline_exceeded={}\n",
            self.recovered_ok,
            self.recovered_degraded,
            self.recovery_ms,
            self.workers_alive,
            self.workers_configured,
            self.server.metrics.worker_panics,
            self.server.metrics.worker_respawns,
            self.server.metrics.shed,
            self.server.metrics.degraded,
            self.server.metrics.deadline_exceeded,
        ));
        out
    }
}

/// Per-event (and recovery) SLO: every fault must resolve within this
/// budget. Generous against the chaos-tuned timeouts (frame budget 150 ms,
/// max stall 800 ms) so slow CI machines do not flake the verdict.
pub const CHAOS_SLO: Duration = Duration::from_secs(5);

/// The chaos-tuned server configuration: real fault machinery, short
/// timeouts, so a full storm runs in seconds.
pub fn chaos_server_config(chaos: Arc<PlannerChaos>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 3,
        max_queue: 16,
        cache_capacity: 256,
        frame_timeout_ms: 150,
        idle_timeout_ms: 2_000,
        write_timeout_ms: 1_000,
        grace_ms: 400,
        breaker_failures: 3,
        breaker_cooldown_ms: 300,
        planner_highwater_ms: 2_000,
        planner_estimate_ms: 10,
        chaos: Some(chaos),
        ..ServerConfig::default()
    }
}

fn connect(addr: &std::net::SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect_timeout(addr, Duration::from_secs(2))?;
    s.set_read_timeout(Some(CHAOS_SLO))?;
    s.set_write_timeout(Some(Duration::from_secs(2)))?;
    Ok(s)
}

/// Reads one response line within the SLO, classifying the outcome.
fn read_resolution(stream: TcpStream) -> EventResolution {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => EventResolution::Closed,
        Ok(_) => classify_line(line.trim()),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            EventResolution::Hang
        }
        // Reset by a server-side close races against our read: a typed
        // close, not a hang.
        Err(_) => EventResolution::Closed,
    }
}

fn classify_line(line: &str) -> EventResolution {
    if let Some(code) = response_error_code(line) {
        return EventResolution::TypedError(code);
    }
    match parse_json(line) {
        Ok(v) if v.get("ok") == Some(&Json::Bool(true)) => EventResolution::Ok {
            degraded: v.get("degraded") == Some(&Json::Bool(true)),
        },
        // An unparseable or ok:false-without-code line is as bad as a hang:
        // the server broke its typed-response promise.
        _ => EventResolution::Hang,
    }
}

fn plan_line(seqs: &[u64], deadline_ms: Option<u64>) -> String {
    let mut req = Request::plan(seqs.to_vec());
    if let Request::Plan {
        deadline_ms: ref mut d,
        ..
    } = req
    {
        *d = deadline_ms;
    }
    req.to_line()
}

/// Executes one scripted fault against the live server.
fn run_event(addr: &std::net::SocketAddr, ev: &ServeFault) -> EventResolution {
    match ev {
        ServeFault::CleanPlan { seqs } => {
            let Ok(mut s) = connect(addr) else {
                return EventResolution::Hang;
            };
            if writeln!(s, "{}", plan_line(seqs, None)).is_err() {
                return EventResolution::Closed;
            }
            read_resolution(s)
        }
        ServeFault::DropMidRequest { bytes } => {
            let Ok(mut s) = connect(addr) else {
                return EventResolution::Hang;
            };
            let line = plan_line(&[1_024, 2_048], None);
            let prefix = &line.as_bytes()[..(*bytes).min(line.len().saturating_sub(1))];
            let _ = s.write_all(prefix);
            let _ = s.flush();
            // Drop without a newline: the server sees a truncated frame and
            // must close its side without holding a thread or a permit.
            drop(s);
            EventResolution::Closed
        }
        ServeFault::ByteDribble { seqs, gap_ms } => {
            let Ok(mut s) = connect(addr) else {
                return EventResolution::Hang;
            };
            let line = plan_line(seqs, None);
            for b in line.as_bytes() {
                // The server sheds mid-dribble; keep dribbling into the
                // closed socket (errors expected) so the timing is honest.
                if s.write_all(&[*b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(*gap_ms));
                if s.flush().is_err() {
                    break;
                }
            }
            read_resolution(s)
        }
        ServeFault::MalformedFrame { payload } => {
            let Ok(mut s) = connect(addr) else {
                return EventResolution::Hang;
            };
            if writeln!(s, "{payload}").is_err() {
                return EventResolution::Closed;
            }
            read_resolution(s)
        }
        ServeFault::OversizedFrame { bytes, seqs } => {
            let Ok(mut s) = connect(addr) else {
                return EventResolution::Hang;
            };
            let mut junk = vec![b'x'; *bytes];
            junk.push(b'\n');
            if s.write_all(&junk).is_err() {
                return EventResolution::Closed;
            }
            if writeln!(s, "{}", plan_line(seqs, None)).is_err() {
                return EventResolution::Closed;
            }
            // Two responses: the oversized notice, then the served plan —
            // the second is the resolution (it proves resynchronization).
            let mut reader = BufReader::new(s);
            let mut first = String::new();
            match reader.read_line(&mut first) {
                Ok(0) => return EventResolution::Closed,
                Ok(_) => {
                    if classify_line(first.trim())
                        != EventResolution::TypedError(ErrorCode::FrameOversized)
                    {
                        return EventResolution::Hang;
                    }
                }
                Err(_) => return EventResolution::Hang,
            }
            let mut second = String::new();
            match reader.read_line(&mut second) {
                Ok(0) => EventResolution::Closed,
                Ok(_) => classify_line(second.trim()),
                Err(_) => EventResolution::Hang,
            }
        }
        ServeFault::PlannerStall {
            deadline_ms, seqs, ..
        } => {
            let Ok(mut s) = connect(addr) else {
                return EventResolution::Hang;
            };
            if writeln!(s, "{}", plan_line(seqs, Some(*deadline_ms))).is_err() {
                return EventResolution::Closed;
            }
            read_resolution(s)
        }
        ServeFault::PlannerPanic { seqs } => {
            let Ok(mut s) = connect(addr) else {
                return EventResolution::Hang;
            };
            if writeln!(s, "{}", plan_line(seqs, None)).is_err() {
                return EventResolution::Closed;
            }
            read_resolution(s)
        }
    }
}

/// Whether a resolution satisfies the typed-response invariant for `ev`.
fn acceptable(ev: &ServeFault, res: &EventResolution) -> bool {
    match (ev, res) {
        (_, EventResolution::Hang) => false,
        // Clean traffic must be served (primary or degraded); a typed
        // overload/shutdown verdict is still typed, but a close is not an
        // answer to a well-formed request.
        (ServeFault::CleanPlan { .. }, EventResolution::Ok { .. }) => true,
        (ServeFault::CleanPlan { .. }, EventResolution::TypedError(_)) => true,
        (ServeFault::CleanPlan { .. }, EventResolution::Closed) => false,
        // The dropper never reads; its own close is the expected outcome.
        (ServeFault::DropMidRequest { .. }, _) => true,
        // A dribbler may get the typed slow-client verdict or find the
        // socket closed under it — both are bounded.
        (ServeFault::ByteDribble { .. }, EventResolution::TypedError(c)) => {
            *c == ErrorCode::SlowClient
        }
        (ServeFault::ByteDribble { .. }, EventResolution::Closed) => true,
        (ServeFault::ByteDribble { .. }, EventResolution::Ok { .. }) => false,
        (ServeFault::MalformedFrame { .. }, EventResolution::TypedError(c)) => {
            *c == ErrorCode::BadRequest
        }
        (ServeFault::MalformedFrame { .. }, _) => false,
        // run_event already verified the oversized notice; the resolution
        // is the follow-up request, which must be served.
        (ServeFault::OversizedFrame { .. }, EventResolution::Ok { .. }) => true,
        (ServeFault::OversizedFrame { .. }, _) => false,
        // A stalled planner must miss the deadline (typed) — or the fault
        // was bypassed and the request served degraded, or a prior fault
        // left the breaker open and this one also resolved typed.
        (ServeFault::PlannerStall { .. }, EventResolution::TypedError(c)) => matches!(
            c,
            ErrorCode::DeadlineExceeded | ErrorCode::WorkerPanicked | ErrorCode::PlanFailed
        ),
        (ServeFault::PlannerStall { .. }, EventResolution::Ok { degraded }) => *degraded,
        (ServeFault::PlannerStall { .. }, EventResolution::Closed) => false,
        (ServeFault::PlannerPanic { .. }, EventResolution::TypedError(c)) => {
            matches!(c, ErrorCode::WorkerPanicked | ErrorCode::PlanFailed)
        }
        (ServeFault::PlannerPanic { .. }, EventResolution::Ok { degraded }) => *degraded,
        (ServeFault::PlannerPanic { .. }, EventResolution::Closed) => false,
    }
}

/// Boots a chaos-tuned server on the loopback, runs every event in
/// `schedule` against it, probes worker liveness, checks recovery, shuts
/// the server down, and returns the full report.
///
/// # Errors
///
/// Returns the schedule's validation message (as `InvalidInput`) or a
/// socket error from binding/joining the server. Invariant *violations* are
/// not errors — they are recorded in the report for the caller to assert.
pub fn run_chaos(schedule: &ServeFaultSchedule) -> std::io::Result<ChaosReport> {
    schedule
        .validate()
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?;
    let chaos = Arc::new(PlannerChaos::new());
    let cfg = chaos_server_config(Arc::clone(&chaos));
    let workers_configured = cfg.workers;
    let breaker_cooldown = Duration::from_millis(cfg.breaker_cooldown_ms);
    let server = Server::bind(cfg)?;
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    let mut outcomes = Vec::with_capacity(schedule.events().len());
    let mut violations = Vec::new();
    for (index, ev) in schedule.events().iter().enumerate() {
        // Arm planner faults just before the event that expects them.
        match ev {
            ServeFault::PlannerStall { ms, .. } => chaos.push_stall(*ms),
            ServeFault::PlannerPanic { .. } => chaos.push_panic(),
            _ => {}
        }
        let t0 = Instant::now();
        let resolution = run_event(&addr, ev);
        let elapsed = t0.elapsed();
        // A bypassed planner (shed / breaker open) leaves its fault queued;
        // drain it so it cannot fire during a later event.
        let drained_faults = chaos.take_pending().len();
        if !acceptable(ev, &resolution) {
            violations.push(format!(
                "event {index} ({}) resolved {:?} — not an accepted typed outcome",
                ev.tag(),
                resolution
            ));
        }
        if elapsed > CHAOS_SLO {
            violations.push(format!(
                "event {index} ({}) took {}ms, over the {}ms SLO",
                ev.tag(),
                elapsed.as_millis(),
                CHAOS_SLO.as_millis()
            ));
        }
        outcomes.push(EventOutcome {
            index,
            event: ev.describe(),
            resolution,
            elapsed_ms: elapsed.as_millis().min(u64::MAX as u128) as u64,
            drained_faults,
        });
    }

    // Liveness probe: one concurrent held connection per job permit, all
    // answering a stats request. The probe's read timeout is *shorter* than
    // the server's idle timeout on purpose: were connections served one
    // after another, the next held connection would be picked up only
    // after the previous one idled out, so a hung server surfaces as probe
    // timeouts instead of being masked by sequential service.
    let probe_timeout = Duration::from_millis(1_000);
    let mut probes = Vec::new();
    for _ in 0..workers_configured {
        match connect(&addr) {
            Ok(mut s) => {
                let _ = s.set_read_timeout(Some(probe_timeout));
                let ok = writeln!(s, "{}", Request::Stats.to_line()).is_ok();
                probes.push((s, ok));
            }
            Err(_) => violations.push("liveness probe failed to connect".to_string()),
        }
    }
    let mut workers_alive = 0;
    for (stream, wrote) in probes {
        if !wrote {
            continue;
        }
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n)
                if n > 0
                    && classify_line(line.trim()) == (EventResolution::Ok { degraded: false }) =>
            {
                workers_alive += 1;
            }
            _ => {}
        }
        // Connections drop here one by one — the probe counts how many
        // answered while all were held open.
    }
    if workers_alive != workers_configured {
        violations.push(format!(
            "liveness probe: {workers_alive}/{workers_configured} workers answered"
        ));
    }

    // Recovery: give the breaker its cooldown, then a clean fresh-key
    // request must be served primary (not degraded) within the SLO.
    std::thread::sleep(breaker_cooldown + Duration::from_millis(50));
    let recovery_seqs: Vec<u64> = vec![
        9_001 + (schedule.seed % 97),
        4_099 + (schedule.seed % 31),
        513,
    ];
    let t0 = Instant::now();
    let recovery = match connect(&addr) {
        Ok(mut s) => {
            if writeln!(s, "{}", plan_line(&recovery_seqs, Some(4_000))).is_err() {
                EventResolution::Closed
            } else {
                read_resolution(s)
            }
        }
        Err(_) => EventResolution::Hang,
    };
    let recovery_ms = t0.elapsed().as_millis().min(u64::MAX as u128) as u64;
    let (recovered_ok, recovered_degraded) = match recovery {
        EventResolution::Ok { degraded } => (true, degraded),
        other => {
            violations.push(format!("post-chaos clean request resolved {other:?}"));
            (false, false)
        }
    };

    // Graceful stop: shutdown request, then join the server.
    if let Ok(mut s) = connect(&addr) {
        let _ = writeln!(s, "{}", Request::Shutdown.to_line());
        let mut reader = BufReader::new(s);
        let mut ack = String::new();
        let _ = reader.read_line(&mut ack);
    }
    let server = server_thread
        .join()
        .map_err(|_| std::io::Error::other("server thread panicked"))??;
    if server.metrics.worker_respawns > 0 {
        // The connection backstop held, but the containment invariant did
        // not.
        violations.push(format!(
            "{} panic(s) escaped request containment",
            server.metrics.worker_respawns
        ));
    }

    Ok(ChaosReport {
        seed: schedule.seed,
        outcomes,
        violations,
        recovered_ok,
        recovered_degraded,
        recovery_ms,
        workers_alive,
        workers_configured,
        server,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_schedules_are_deterministic_and_valid() {
        for seed in [3, 17, 4242] {
            let a = ServeFaultSchedule::random(seed, 12);
            let b = ServeFaultSchedule::random(seed, 12);
            assert_eq!(a, b, "seed {seed} diverged");
            assert_eq!(a.event_log(), b.event_log());
            a.validate().expect("random schedule validates");
            assert_eq!(a.events().len(), 12);
        }
        assert_ne!(
            ServeFaultSchedule::random(1, 12),
            ServeFaultSchedule::random(2, 12)
        );
    }

    #[test]
    fn random_schedules_mix_clean_traffic() {
        let s = ServeFaultSchedule::random(7, 30);
        let clean = s
            .events()
            .iter()
            .filter(|e| matches!(e, ServeFault::CleanPlan { .. }))
            .count();
        assert!(clean >= 10, "every third event is clean, got {clean}");
    }

    #[test]
    fn validation_rejects_out_of_bounds_events() {
        assert!(ServeFaultSchedule::new().validate().is_err(), "empty");
        let cases = [
            ServeFaultSchedule::new().clean_plan(vec![]),
            ServeFaultSchedule::new().clean_plan(vec![0]),
            ServeFaultSchedule::new().clean_plan(vec![limits::MAX_SEQ_LEN + 1]),
            ServeFaultSchedule::new().drop_mid_request(0),
            ServeFaultSchedule::new().drop_mid_request(limits::MAX_DROP_BYTES + 1),
            ServeFaultSchedule::new().byte_dribble(vec![100], 0),
            ServeFaultSchedule::new().byte_dribble(vec![100], limits::MAX_GAP_MS + 1),
            ServeFaultSchedule::new().malformed_frame(""),
            ServeFaultSchedule::new().malformed_frame("two\nlines"),
            ServeFaultSchedule::new().oversized_frame(MAX_FRAME_BYTES, vec![100]),
            ServeFaultSchedule::new().planner_stall(0, 1, vec![100]),
            ServeFaultSchedule::new().planner_stall(100, 100, vec![100]),
            ServeFaultSchedule::new().planner_stall(limits::MAX_STALL_MS + 1, 10, vec![100]),
            ServeFaultSchedule::new().planner_panic(vec![]),
        ];
        for (i, s) in cases.iter().enumerate() {
            assert!(s.validate().is_err(), "case {i} should fail: {s:?}");
        }
        let good = ServeFaultSchedule::new()
            .clean_plan(vec![100, 200])
            .drop_mid_request(10)
            .byte_dribble(vec![100], 30)
            .malformed_frame("{\"op\":\"fly\"}")
            .oversized_frame(MAX_FRAME_BYTES + 1, vec![100])
            .planner_stall(200, 50, vec![100])
            .planner_panic(vec![100]);
        good.validate().expect("hand-built schedule validates");
        assert_eq!(good.events().len(), 7);
    }

    #[test]
    fn planner_chaos_queue_is_fifo_and_drainable() {
        let c = PlannerChaos::new();
        c.push_stall(1);
        c.push_panic();
        assert_eq!(c.pending(), 2);
        // Consumes the 1ms stall.
        c.before_plan();
        assert_eq!(c.pending(), 1);
        let left = c.take_pending();
        assert_eq!(left, vec![PlannerFault::Panic]);
        assert_eq!(c.pending(), 0);
        // Empty queue: before_plan is a no-op.
        c.before_plan();
    }

    #[test]
    fn injected_panic_is_catchable() {
        let c = PlannerChaos::new();
        c.push_panic();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.before_plan()));
        assert!(caught.is_err(), "panic fault must panic");
        assert_eq!(c.pending(), 0, "the fault was consumed");
    }

    #[test]
    fn run_chaos_rejects_invalid_schedules() {
        let err = run_chaos(&ServeFaultSchedule::new()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
    }
}
