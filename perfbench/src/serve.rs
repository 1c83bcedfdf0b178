//! `serve-low` and `serve-high`: `plan` traffic over loopback TCP to an
//! in-process `Server`, from one generator thread per connection (two).
//!
//! Traffic: mostly permuted hot shapes (cache reads); one request in 16 is
//! a never-seen shape, which forces a planner run, an insert, and, once the
//! small cache is full, an LRU eviction (cache writes); one in 8 asks for
//! `nodes: 8`, which gives larger plans and responses.
//!
//! - `serve-low`: two callers that each wait for their reply and then
//!   think for an exponential time of mean [`LOW_THINK`] (about 180 req/s
//!   in all): the mostly idle server's path. A closed loop, because with
//!   low-rate open-loop arrivals the tail is decided by TCP delayed
//!   acknowledgements (the server's sockets do not set `TCP_NODELAY`, so a
//!   response written behind an unacknowledged one waits for the client's
//!   next segment) and swings by tens of milliseconds between runs. Then
//!   one back-to-back caller measures the unloaded service rate.
//! - `serve-high`: Poisson open-loop arrivals at [`HIGH_RPS`], about 70% of
//!   what the server sustains on a 2-CPU host, each request timed from the
//!   instant it was due so a stall also charges the requests queued behind
//!   it. Then a rate ladder finds the highest rate whose p99 meets
//!   [`LIMIT_US`] with no growing backlog.
//!
//! The traced run replays each request's server-side path in process
//! through the same public functions the server calls (`FrameReader`,
//! `parse_request`, the registry, `PlanKey::new`, `ShardedPlanCache`,
//! `Scheduler::plan`, `validate_with_batch`, `plan_response`) to time each
//! stage. What the stages do not cover of the client-measured latency is
//! transport: poll wait, queueing, and socket I/O.

use std::collections::BTreeMap;
use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use zeppelin_core::plan::IterationPlan;
use zeppelin_core::plan_io::{parse_json, plan_to_json};
use zeppelin_core::scheduler::SchedulerCtx;
use zeppelin_core::validate::validate_with_batch;
use zeppelin_data::batch::{sample_batch, Batch};
use zeppelin_data::datasets::arxiv;
use zeppelin_serve::cache::{CachedPlan, PlanKey, ShardedPlanCache};
use zeppelin_serve::canonical::{is_index_faithful, reindex_plan, CanonicalBatch};
use zeppelin_serve::protocol::plan_response;
use zeppelin_serve::{
    parse_request, registry, Frame, FrameReader, Request, Server, ServerConfig, ServerReport,
};

use crate::obs::{mean, median_setup, percentile, secs, splitmix64, windowed_percentile, Tracer};
use crate::{trace_overhead, Opts, Outcome, Size};

/// Mean think time of `serve-low`'s callers between a reply and their
/// next request.
pub const LOW_THINK: Duration = Duration::from_millis(10);
/// Offered rate of `serve-high`, requests per second.
pub const HIGH_RPS: f64 = 20000.0;
/// The p99 latency limit of the rate ladder, in microseconds.
pub const LIMIT_US: f64 = 5000.0;
/// Ladder rates, as multiples of [`HIGH_RPS`].
const LADDER: [f64; 10] = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.8, 2.0, 2.5];

/// Generator threads and connections.
const CONNS: usize = 2;
/// Server cache: small, so the cold tail keeps evicting.
const CACHE_CAPACITY: usize = 128;
const CACHE_SHARDS: usize = 8;
const HOT: usize = 48;
const HOT_WIDE: usize = 16;
const TOKENS: u64 = 65_536;
const TOKENS_WIDE: u64 = 262_144;
const WIDE_NODES: usize = 8;
/// One reply in this many is checked against direct planning.
const SAMPLE_EVERY: u64 = 61;
/// Sampled replies checked per run, at most.
const MAX_SAMPLES: usize = 256;
/// One request in this many keeps its spans in the trace file; stage
/// totals cover every request.
const SPAN_EVERY: u64 = 16;
/// Sampled plans hashed into the outputs digest.
const DIGEST_SAMPLES: usize = 16;
/// How long a phase waits for its last replies.
const DRAIN: Duration = Duration::from_secs(10);

/// Which offered load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Thinking closed-loop callers.
    Low,
    /// [`HIGH_RPS`] plus the ladder.
    High,
}

/// The request stream: every request is a pure function of the seed and
/// its index.
struct Traffic {
    seed: u64,
    tokens: u64,
    tokens_wide: u64,
    hot: Vec<Vec<u64>>,
    hot_wide: Vec<Vec<u64>>,
}

impl Traffic {
    fn new(seed: u64, size: Size) -> Traffic {
        let (tokens, tokens_wide) = match size {
            Size::Full => (TOKENS, TOKENS_WIDE),
            Size::Tiny => (TOKENS / 4, TOKENS_WIDE / 4),
        };
        let dist = arxiv();
        let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x0005_e2fe));
        let hot = (0..HOT)
            .map(|_| sample_batch(&dist, &mut rng, tokens).seqs)
            .collect();
        let hot_wide = (0..HOT_WIDE)
            .map(|_| sample_batch(&dist, &mut rng, tokens_wide).seqs)
            .collect();
        Traffic {
            seed,
            tokens,
            tokens_wide,
            hot,
            hot_wide,
        }
    }

    /// Sequence lengths and node count of request `i`.
    fn request(&self, i: u64) -> (Vec<u64>, Option<usize>) {
        let h = splitmix64(self.seed ^ splitmix64(i));
        let (mut seqs, nodes) = match h % 16 {
            7 => {
                let mut rng = StdRng::seed_from_u64(h);
                (sample_batch(&arxiv(), &mut rng, self.tokens).seqs, None)
            }
            3 | 11 => (
                self.hot_wide[(h >> 8) as usize % HOT_WIDE].clone(),
                Some(WIDE_NODES),
            ),
            _ => (self.hot[(h >> 8) as usize % HOT].clone(), None),
        };
        let n = seqs.len();
        seqs.rotate_left((h >> 32) as usize % n.max(1));
        (seqs, nodes)
    }

    fn line(&self, i: u64) -> String {
        let (seqs, nodes) = self.request(i);
        plan_line(seqs, nodes)
    }

    /// One request per hot shape, in canonical order: the warm-up.
    fn warm_lines(&self) -> Vec<String> {
        let plain = self.hot.iter().map(|s| (s, None));
        let wide = self.hot_wide.iter().map(|s| (s, Some(WIDE_NODES)));
        plain
            .chain(wide)
            .map(|(seqs, nodes)| plan_line(seqs.clone(), nodes))
            .collect()
    }
}

/// A `plan` request line, newline included.
fn plan_line(seqs: Vec<u64>, nodes: Option<usize>) -> String {
    let mut line = Request::Plan {
        seqs,
        method: None,
        model: None,
        cluster: None,
        nodes,
        deadline_ms: None,
    }
    .to_line();
    line.push('\n');
    line
}

/// A running server with the generator's connections open.
struct Live {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<ServerReport>>,
    conns: Vec<TcpStream>,
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// Sends one line and reads one reply line (closed loop).
fn round_trip(stream: &mut TcpStream, line: &str) -> std::io::Result<String> {
    stream.write_all(line.as_bytes())?;
    stream.set_read_timeout(Some(DRAIN))?;
    let mut reply = Vec::new();
    let mut byte = [0u8; 4096];
    while !reply.ends_with(b"\n") {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        reply.extend_from_slice(&byte[..n]);
    }
    Ok(String::from_utf8_lossy(&reply).into_owned())
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: CONNS,
        max_queue: 4096,
        cache_capacity: CACHE_CAPACITY,
        cache_shards: CACHE_SHARDS,
        ..ServerConfig::default()
    }
}

fn start(warm: &[String]) -> Result<Live, String> {
    let server = Server::bind(server_config()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut live = Live {
        addr,
        handle,
        conns: Vec::new(),
    };
    for _ in 0..CONNS {
        match connect(addr) {
            Ok(c) => live.conns.push(c),
            Err(e) => {
                let _ = stop(live);
                return Err(format!("connect: {e}"));
            }
        }
    }
    for line in warm {
        let ok = round_trip(&mut live.conns[0], line).map(|r| r.starts_with("{\"ok\":true"));
        if !matches!(ok, Ok(true)) {
            let _ = stop(live);
            return Err("warm-up request failed".to_string());
        }
    }
    Ok(live)
}

/// Closes the generator's connections, asks the server to drain, and joins
/// its thread.
fn stop(live: Live) -> Result<ServerReport, String> {
    drop(live.conns);
    let ack = connect(live.addr)
        .and_then(|mut s| round_trip(&mut s, "{\"op\":\"shutdown\"}\n"))
        .map_err(|e| format!("shutdown: {e}"));
    let report = live
        .handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    ack?;
    Ok(report)
}

/// Server counters from a `stats` request.
fn stats(stream: &mut TcpStream) -> Option<[f64; 6]> {
    let reply = round_trip(stream, "{\"op\":\"stats\"}\n").ok()?;
    let json = parse_json(reply.trim()).ok()?;
    let s = json.get("stats")?;
    let get = |k: &str| s.get(k).and_then(|v| v.as_f64());
    Some([
        get("plan_requests")?,
        get("cache_hits")?,
        get("planner_runs")?,
        get("coalesced")?,
        get("shed")?,
        get("degraded")?,
    ])
}

/// One request's client-side record.
#[derive(Debug, Clone)]
struct Rec {
    index: u64,
    due: Duration,
    sent: Duration,
    done: Option<Duration>,
    ok: bool,
    bytes: usize,
    reply: Option<String>,
}

impl Rec {
    fn latency_us(&self) -> Option<f64> {
        self.done.map(|d| secs(d.saturating_sub(self.due)) * 1e6)
    }

    /// How late the generator sent this request.
    fn late_us(&self) -> f64 {
        secs(self.sent.saturating_sub(self.due)) * 1e6
    }
}

/// Poisson arrivals at `rps` for `duration`, alternating over the
/// connections: `(due, request index)` per connection. Request `k` of the
/// phase is request `phase << 32 | k`.
fn schedule(seed: u64, phase: u64, rps: f64, duration: Duration) -> Vec<Vec<(Duration, u64)>> {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(phase)));
    let mut conns = vec![Vec::new(); CONNS];
    let mut t = 0.0f64;
    for k in 0u64.. {
        let u: f64 = rng.random_range(0.0..1.0);
        t += -(1.0 - u).ln() / rps;
        if t >= secs(duration) {
            break;
        }
        conns[k as usize % CONNS].push((Duration::from_secs_f64(t), phase << 32 | k));
    }
    conns
}

/// Below this much time to the next due request the generator spins
/// instead of trusting a timer wake-up, which overshoots by the kernel's
/// timer slack.
const SPIN: Duration = Duration::from_micros(80);
/// While a reply is outstanding the generator checks its socket this
/// often. Socket read timeouts are too coarse (kernel ticks) to wait on.
const POLL: Duration = Duration::from_micros(40);

/// Drives one connection through its schedule: sends each request when
/// due and collects replies in between. The socket is non-blocking; the
/// thread sleeps until the next due time when nothing is in flight, and
/// polls every [`POLL`] while a reply is outstanding.
fn drive(
    stream: &mut TcpStream,
    traffic: &Traffic,
    start: Instant,
    items: &[(Duration, u64)],
) -> Vec<Rec> {
    let mut recs: Vec<Rec> = Vec::with_capacity(items.len());
    if stream.set_nonblocking(true).is_err() {
        return recs;
    }
    let mut next = 0;
    let mut received = 0;
    let mut inbox: Vec<u8> = Vec::new();
    let mut outbox: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut drain_until: Option<Instant> = None;
    // The next request's line, built while waiting for it to fall due.
    let mut prepared: Option<String> = None;
    let broken = |recs: Vec<Rec>, stream: &mut TcpStream| {
        let _ = stream.set_nonblocking(false);
        recs
    };
    while received < items.len() {
        let now = Instant::now();
        while next < items.len() && start + items[next].0 <= now {
            let (due, index) = items[next];
            let line = prepared.take().unwrap_or_else(|| traffic.line(index));
            outbox.extend_from_slice(line.as_bytes());
            recs.push(Rec {
                index,
                due,
                sent: start.elapsed(),
                done: None,
                ok: false,
                bytes: 0,
                reply: None,
            });
            next += 1;
        }
        while !outbox.is_empty() {
            match stream.write(&outbox) {
                Ok(0) => return broken(recs, stream),
                Ok(n) => {
                    outbox.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return broken(recs, stream),
            }
        }
        let mut got = false;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return broken(recs, stream),
                Ok(n) => {
                    got = true;
                    let t = start.elapsed();
                    inbox.extend_from_slice(&chunk[..n]);
                    while let Some(pos) = inbox.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = inbox.drain(..=pos).collect();
                        let Some(rec) = recs.get_mut(received) else {
                            return broken(recs, stream);
                        };
                        rec.done = Some(t);
                        rec.ok = line.starts_with(b"{\"ok\":true");
                        rec.bytes = line.len();
                        if rec.index.is_multiple_of(SAMPLE_EVERY) {
                            rec.reply = Some(String::from_utf8_lossy(&line).into_owned());
                        }
                        received += 1;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return broken(recs, stream),
            }
        }
        if got {
            continue;
        }
        if prepared.is_none() && next < items.len() {
            prepared = Some(traffic.line(items[next].1));
            continue;
        }
        let in_flight = received < recs.len() || !outbox.is_empty();
        if next < items.len() {
            let due = start + items[next].0;
            let wait = due.saturating_duration_since(Instant::now());
            if wait <= SPIN {
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
            } else if in_flight {
                std::thread::sleep(POLL.min(wait - SPIN));
            } else {
                std::thread::sleep(wait - SPIN);
            }
        } else {
            let until = *drain_until.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() >= until {
                return broken(recs, stream);
            }
            std::thread::sleep(POLL);
        }
    }
    broken(recs, stream)
}

/// Runs one open-loop phase. Returns its start instant and every request's
/// record, sorted by due time; requests that never got a reply have
/// `done: None`.
fn open_phase(
    live: &mut Live,
    traffic: &Traffic,
    plan: Vec<Vec<(Duration, u64)>>,
) -> (Instant, Vec<Rec>) {
    let start = Instant::now() + Duration::from_millis(5);
    let mut recs: Vec<Rec> = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .zip(&plan)
            .map(|(stream, mine)| scope.spawn(move || drive(stream, traffic, start, mine)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    });
    // Requests never sent still count as attempted and failed.
    let sent: std::collections::BTreeSet<u64> = recs.iter().map(|r| r.index).collect();
    for &(due, index) in plan.iter().flatten() {
        if !sent.contains(&index) {
            recs.push(Rec {
                index,
                due,
                sent: due,
                done: None,
                ok: false,
                bytes: 0,
                reply: None,
            });
        }
    }
    recs.sort_by_key(|r| (r.due, r.index));
    (start, recs)
}

/// Callers that each wait for their reply, then think for a seeded
/// exponential time of mean `think`, one per connection in `conns`, until
/// `duration` has passed. Request `k` of caller `c` is request
/// `phase << 32 | k * CONNS + c`.
fn closed_phase(
    conns: &mut [TcpStream],
    traffic: &Traffic,
    phase: u64,
    think: Duration,
    duration: Duration,
) -> (Instant, Vec<Rec>) {
    let start = Instant::now();
    let until = start + duration;
    let mut recs: Vec<Rec> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || {
                    let mut rng =
                        StdRng::seed_from_u64(splitmix64(traffic.seed ^ phase << 8 ^ c as u64));
                    let mut recs = Vec::new();
                    let mut k = 0u64;
                    while Instant::now() < until {
                        let index = phase << 32 | (k * CONNS as u64 + c as u64);
                        let line = traffic.line(index);
                        let due = start.elapsed();
                        let reply = round_trip(stream, &line);
                        let done = start.elapsed();
                        let reply = reply.unwrap_or_default();
                        recs.push(Rec {
                            index,
                            due,
                            sent: due,
                            done: (!reply.is_empty()).then_some(done),
                            ok: reply.starts_with("{\"ok\":true"),
                            bytes: reply.len(),
                            reply: index.is_multiple_of(SAMPLE_EVERY).then_some(reply),
                        });
                        k += 1;
                        let u: f64 = rng.random_range(0.0..1.0);
                        std::thread::sleep(think.mul_f64(-(1.0 - u).ln()));
                    }
                    recs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread"))
            .collect()
    });
    recs.sort_by_key(|r| (r.due, r.index));
    (start, recs)
}

/// Requests attempted and failed across phases, plus the sampled replies
/// checked against direct planning at the end.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    samples: Vec<(u64, String)>,
}

impl Tally {
    fn absorb(&mut self, recs: &[Rec]) {
        self.attempted += recs.len() as u64;
        self.failed += recs.iter().filter(|r| !r.ok).count() as u64;
        for r in recs {
            if let Some(reply) = &r.reply {
                self.sample(r.index, reply.clone());
            }
        }
    }

    /// Keeps a sampled reply, up to [`MAX_SAMPLES`], so memory does not
    /// grow with the server's speed.
    fn sample(&mut self, index: u64, reply: String) {
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push((index, reply));
        }
    }
}

/// One caller sending each request as soon as the previous reply arrives,
/// for `duration`. Returns completed requests per second and keeps no
/// per-request record.
fn back_to_back(
    stream: &mut TcpStream,
    traffic: &Traffic,
    duration: Duration,
    tally: &mut Tally,
) -> f64 {
    let start = Instant::now();
    let mut done = 0u64;
    let mut index = 1u64 << 32;
    while start.elapsed() < duration {
        tally.attempted += 1;
        match round_trip(stream, &traffic.line(index)) {
            Ok(reply) if reply.starts_with("{\"ok\":true") => {
                done += 1;
                if index.is_multiple_of(SAMPLE_EVERY) {
                    tally.sample(index, reply);
                }
            }
            _ => tally.failed += 1,
        }
        index += 1;
    }
    done as f64 / secs(start.elapsed()).max(1e-12)
}

/// The plan the server should have served for request `i`: direct
/// planning of the canonical batch, re-indexed to the request's order.
fn expected_plan(traffic: &Traffic, i: u64, degraded: bool) -> Result<IterationPlan, String> {
    let (seqs, nodes) = traffic.request(i);
    let cfg = server_config();
    let method = if degraded {
        &cfg.degraded_method
    } else {
        &cfg.method
    };
    let scheduler = registry::scheduler_by_name(method)?;
    let model = registry::model_by_name(&cfg.model)?;
    let cluster = registry::cluster_by_name(&cfg.cluster, nodes.unwrap_or(cfg.nodes))?;
    let ctx = SchedulerCtx::new(&cluster, &model);
    let canonical = CanonicalBatch::new(&Batch::new(seqs));
    let plan = scheduler
        .plan(&canonical.to_batch(), &ctx)
        .map_err(|e| e.to_string())?;
    Ok(if is_index_faithful(&plan, &canonical.lens) {
        reindex_plan(&plan, &canonical)
    } else {
        plan
    })
}

/// Checks sampled replies against direct planning; returns the number of
/// mismatches and hashes the first [`DIGEST_SAMPLES`] plans by index.
fn check_samples(out: &mut Outcome, traffic: &Traffic, samples: &mut [(u64, String)]) -> u64 {
    samples.sort_by_key(|(i, _)| *i);
    let mut bad = 0;
    for (k, (index, reply)) in samples.iter().enumerate() {
        let reply = reply.trim_end();
        let served = reply
            .find(",\"plan\":{")
            .map(|p| &reply[p + 8..reply.len().saturating_sub(1)]);
        let degraded = reply.contains("\"degraded\":true");
        let expected = expected_plan(traffic, *index, degraded).map(|p| plan_to_json(&p));
        match (served, expected) {
            (Some(s), Ok(e)) if s == e => {
                if k < DIGEST_SAMPLES {
                    out.digest.bytes(s.as_bytes());
                }
            }
            _ => bad += 1,
        }
    }
    bad
}

fn latencies(recs: &[Rec]) -> Vec<f64> {
    recs.iter().filter_map(Rec::latency_us).collect()
}

/// Outcome of one ladder step.
struct Step {
    rps: f64,
    p99_us: f64,
    passed: bool,
}

/// One ladder step: passes when every reply is well formed, the p99 and
/// the generator's lateness meet [`LIMIT_US`], and the backlog does not
/// grow (the step's last quarter still meets the limit at the median).
fn ladder_step(rps: f64, recs: &[Rec]) -> Step {
    let p99 = windowed_percentile(&latencies(recs), 0.99);
    let late: Vec<f64> = recs.iter().map(Rec::late_us).collect();
    let last_quarter = latencies(&recs[recs.len() * 3 / 4..]);
    let passed = !recs.is_empty()
        && recs.iter().all(|r| r.ok)
        && p99 <= LIMIT_US
        && percentile(&late, 0.99) <= LIMIT_US
        && percentile(&last_quarter, 0.5) <= LIMIT_US;
    Step {
        rps,
        p99_us: p99,
        passed,
    }
}

/// The highest rate whose p99 meets the limit, interpolated on p99
/// between the last passing and the first failing ladder step.
fn max_rps(steps: &[Step]) -> f64 {
    let Some(fail) = steps.iter().position(|s| !s.passed) else {
        return steps.last().map_or(0.0, |s| s.rps);
    };
    let hi = &steps[fail];
    let (lo_rps, lo_p99) = match fail {
        0 => (0.0, 0.0),
        _ => (steps[fail - 1].rps, steps[fail - 1].p99_us),
    };
    if hi.p99_us <= LIMIT_US || hi.p99_us <= lo_p99 {
        // Failed on errors or backlog rather than p99: no interpolation.
        return lo_rps;
    }
    lo_rps + (hi.rps - lo_rps) * (LIMIT_US - lo_p99) / (hi.p99_us - lo_p99)
}

/// Climbs the rate ladder from [`HIGH_RPS`] until a step fails and
/// returns the interpolated `max_rps`.
fn ladder(live: &mut Live, traffic: &Traffic, step_len: Duration, tally: &mut Tally) -> f64 {
    let mut steps: Vec<Step> = Vec::new();
    for (k, mult) in LADDER.iter().enumerate() {
        let rps = HIGH_RPS * mult;
        let plan = schedule(traffic.seed, k as u64 + 2, rps, step_len);
        let (_, recs) = open_phase(live, traffic, plan);
        tally.absorb(&recs);
        steps.push(ladder_step(rps, &recs));
        if !steps[k].passed {
            break;
        }
    }
    let shown: Vec<String> = steps
        .iter()
        .map(|s| {
            let verdict = if s.passed { "ok" } else { "over" };
            format!("{:.0}/s p99 {:.0}us {verdict}", s.rps, s.p99_us)
        })
        .collect();
    println!("  ladder: {}", shown.join(", "));
    max_rps(&steps)
}

/// CPU ticks (1/100 s) used so far by each thread of this process except
/// the main thread, from `/proc/self/task/*/stat`.
fn thread_ticks() -> BTreeMap<u64, u64> {
    let main = u64::from(std::process::id());
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        let stat = std::fs::read_to_string(entry.path().join("stat")).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th fields of the line.
        let rest: Vec<&str> = stat
            .rsplit_once(')')
            .map_or(Vec::new(), |(_, r)| r.split_whitespace().collect());
        let ticks = |i: usize| rest.get(i).and_then(|v| v.parse::<u64>().ok());
        if let (Some(user), Some(system)) = (ticks(11), ticks(12)) {
            if tid != main {
                out.insert(tid, user + system);
            }
        }
    }
    out
}

/// CPU seconds used between two snapshots by the threads alive at both:
/// the server's event loop and workers. The generator's threads live only
/// within a phase, so they are not counted.
fn server_cpu_s(before: &BTreeMap<u64, u64>, after: &BTreeMap<u64, u64>) -> f64 {
    let ticks: u64 = after
        .iter()
        .filter_map(|(tid, t)| Some(t.saturating_sub(*before.get(tid)?)))
        .sum();
    ticks as f64 / 100.0
}

/// The latency phase of each load: Poisson open loop for `High`, thinking
/// closed-loop callers for `Low`.
fn load_phase(
    live: &mut Live,
    traffic: &Traffic,
    load: Load,
    phase: u64,
    dur: Duration,
) -> (Instant, Vec<Rec>) {
    match load {
        Load::Low => closed_phase(&mut live.conns, traffic, phase, LOW_THINK, dur),
        Load::High => open_phase(live, traffic, schedule(traffic.seed, phase, HIGH_RPS, dur)),
    }
}

pub fn run(opts: &Opts, load: Load, tracer: Option<&mut Tracer>) -> Outcome {
    let setups = if opts.size == Size::Full { 3 } else { 2 };
    let mut setup_error = None;
    let ((traffic, live), setup_s) = median_setup(
        setups,
        || {
            let traffic = Traffic::new(opts.seed, opts.size);
            let live = start(&traffic.warm_lines());
            (traffic, live)
        },
        |(_, live)| {
            if let Ok(live) = live {
                if let Err(e) = stop(live) {
                    setup_error = Some(e);
                }
            }
        },
    );
    let mut out = Outcome {
        setup_s,
        op_unit: match load {
            Load::Low => "plan requests per second, one back-to-back caller",
            Load::High => "plan requests served per server CPU-second at the offered rate",
        },
        latency_of: match load {
            Load::Low => "one plan request of a thinking caller",
            Load::High => "one plan request, timed from its due time",
        },
        windowed_tail: true,
        params: vec![
            (
                "load",
                match load {
                    Load::Low => format!(
                        "closed loop: {CONNS} callers, exponential think time of mean {} ms",
                        LOW_THINK.as_millis()
                    ),
                    Load::High => format!(
                        "open loop: Poisson {HIGH_RPS} req/s over {CONNS} connections; \
                         ladder x{LADDER:?}, p99 limit {LIMIT_US} us"
                    ),
                },
            ),
            (
                "mix",
                format!(
                    "hot {HOT} shapes x {} tokens, wide {HOT_WIDE} shapes x {} tokens at \
                     nodes {WIDE_NODES} (2 in 16), cold fresh shapes (1 in 16), all permuted",
                    traffic.tokens, traffic.tokens_wide
                ),
            ),
            (
                "server",
                format!(
                    "workers {CONNS}, cache {CACHE_CAPACITY} in {CACHE_SHARDS} shards, \
                     method zeppelin, model 3b, cluster a(2)"
                ),
            ),
        ],
        ..Outcome::default()
    };
    let mut live = match live {
        Ok(l) if setup_error.is_none() => l,
        other => {
            if let Some(e) = setup_error {
                eprintln!("perfbench: {e}");
            }
            match other {
                Ok(l) => drop(stop(l)),
                Err(e) => eprintln!("perfbench: {e}"),
            }
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };

    let total = Duration::from_secs_f64(opts.seconds);
    let mut tally = Tally::default();
    match tracer {
        None => {
            let share = if load == Load::Low { 0.7 } else { 1.0 };
            let cpu0 = thread_ticks();
            let (_, recs) = load_phase(&mut live, &traffic, load, 0, total.mul_f64(share));
            let cpu_s = server_cpu_s(&cpu0, &thread_ticks());
            out.latencies_us = latencies(&recs);
            let late: Vec<f64> = recs.iter().map(Rec::late_us).collect();
            let served = recs.iter().filter(|r| r.ok).count() as f64;
            println!(
                "  {} requests in {:.2} server CPU-s; generator lateness p99 {:.0}us",
                recs.len(),
                cpu_s,
                percentile(&late, 0.99)
            );
            tally.absorb(&recs);
            drop(recs);
            match load {
                Load::Low => {
                    let rest = total.mul_f64(1.0 - share);
                    out.ops_per_s = back_to_back(&mut live.conns[0], &traffic, rest, &mut tally);
                }
                Load::High => out.ops_per_s = served / cpu_s.max(1e-9),
            }
        }
        Some(tr) => {
            // The same load twice: untraced, then with per-request spans and
            // a server-side stage replay.
            let half = total.mul_f64(0.5);
            let (_, warm) = load_phase(&mut live, &traffic, load, 0, half);
            let before = stats(&mut live.conns[0]);
            let (t0, recs) = load_phase(&mut live, &traffic, load, 1, half);
            let after = stats(&mut live.conns[0]);
            for r in recs.iter().filter(|r| r.index.is_multiple_of(SPAN_EVERY)) {
                if let Some(done) = r.done {
                    tr.record("serve.request", None, r.index, t0 + r.due, t0 + done);
                }
            }
            let lat = latencies(&recs);
            replay(tr, &traffic, &warm, &recs, &mut out);
            let l = &mut out.layers;
            let latency_us = mean(&lat);
            let stages: f64 = STAGES.iter().map(|(metric, _)| l[metric]).sum();
            l.insert("serve.requests", lat.len() as f64);
            l.insert("serve.latency_us", latency_us);
            l.insert("serve.transport_us", latency_us - stages);
            let bytes: Vec<f64> = recs.iter().map(|r| r.bytes as f64).collect();
            l.insert("serve.response_bytes", mean(&bytes));
            let late: Vec<f64> = recs.iter().map(Rec::late_us).collect();
            l.insert("serve.gen_late_us", percentile(&late, 0.99));
            match (before, after) {
                (Some(b), Some(a)) => {
                    let d = |k: usize| a[k] - b[k];
                    l.insert("serve.hit_ratio", d(1) / d(0).max(1.0));
                    l.insert("serve.planner_runs", d(2));
                    l.insert("serve.coalesced", d(3));
                    l.insert("serve.shed", d(4));
                    l.insert("serve.degraded", d(5));
                }
                _ => out.failed += 1,
            }
            let n = lat.len() as f64;
            trace_overhead(
                &mut out,
                mean(&latencies(&warm)) * n / 1e3,
                latency_us * n / 1e3,
            );
            tally.absorb(&warm);
            tally.absorb(&recs);
            if load == Load::High {
                let rps = ladder(&mut live, &traffic, total.div_f64(12.0), &mut tally);
                out.layers.insert("serve.max_rps", rps);
            }
        }
    }

    out.attempted += tally.attempted;
    out.failed += tally.failed;
    out.failed += check_samples(&mut out, &traffic, &mut tally.samples);
    match stop(live) {
        Ok(report) => {
            let m = &report.metrics;
            if m.errors != 0 || m.worker_respawns != 0 {
                out.failed += 1;
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            out.failed += 1;
        }
    }
    out
}

/// Server-side stages of the replay: `(metric, span)`.
const STAGES: [(&str, &str); 8] = [
    ("serve.frame_us", "serve.frame"),
    ("serve.decode_us", "serve.decode"),
    ("serve.resolve_us", "serve.resolve"),
    ("serve.cache.key_us", "serve.cache.key"),
    ("serve.cache.lookup_us", "serve.cache.lookup"),
    ("serve.plan_us", "core.plan"),
    ("serve.validate_us", "core.validate"),
    ("serve.encode_us", "serve.encode"),
];

/// Times each server-side stage of every traced request in process, after
/// the untraced phase's requests have brought the replay cache to the
/// server's state. Adds per-request stage means to `out.layers`.
fn replay(tr: &mut Tracer, traffic: &Traffic, warm: &[Rec], recs: &[Rec], out: &mut Outcome) {
    let cfg = server_config();
    let cache = ShardedPlanCache::new(CACHE_CAPACITY, CACHE_SHARDS);
    let warm_up = traffic
        .warm_lines()
        .into_iter()
        .map(|l| (u64::MAX, l))
        .chain(warm.iter().map(|r| (r.index, traffic.line(r.index))));
    for (index, line) in warm_up {
        let _ = serve_in_process(&mut Tracer::new(), &cfg, &cache, index, &line);
    }
    let mut busy_ms = [0.0; STAGES.len()];
    let mut plans = 0;
    for r in recs {
        let mut spans = Tracer::new();
        if serve_in_process(&mut spans, &cfg, &cache, r.index, &traffic.line(r.index)).is_err() {
            out.failed += 1;
        }
        for (total, (_, span)) in busy_ms.iter_mut().zip(STAGES) {
            *total += spans.busy_ms(span);
        }
        plans += spans.calls("core.plan");
        if r.index.is_multiple_of(SPAN_EVERY) {
            tr.adopt(spans);
        }
    }
    let n = recs.len().max(1) as f64;
    let l = &mut out.layers;
    for ((metric, span), ms) in STAGES.iter().zip(busy_ms) {
        l.insert(metric, ms * 1e3 / n);
        match *span {
            "core.plan" => l.insert("core.plan.busy_ms", ms),
            "core.validate" => l.insert("core.validate.busy_ms", ms),
            _ => None,
        };
    }
    l.insert("core.plan.calls", plans as f64);
}

/// One request through the server's stages, each under its own span.
fn serve_in_process(
    tr: &mut Tracer,
    cfg: &ServerConfig,
    cache: &ShardedPlanCache,
    id: u64,
    line: &str,
) -> Result<(), String> {
    let root = tr.open("serve.replay", None, id);
    let stage = |tr: &mut Tracer, name: &'static str, t0: Instant| {
        let end = Instant::now();
        tr.record(name, Some(root), id, t0, end);
        end
    };
    let result = (|| {
        let t = Instant::now();
        let mut reader = FrameReader::new(Cursor::new(line.as_bytes()));
        let frame = reader.read_frame(None);
        let t = stage(tr, "serve.frame", t);
        let Ok(Frame::Line(text)) = frame else {
            return Err("frame".to_string());
        };
        let request = parse_request(text.trim());
        let t = stage(tr, "serve.decode", t);
        let Ok(Request::Plan { seqs, nodes, .. }) = request else {
            return Err("decode".to_string());
        };
        let scheduler = registry::scheduler_by_name(&cfg.method)?;
        let model = registry::model_by_name(&cfg.model)?;
        let cluster = registry::cluster_by_name(&cfg.cluster, nodes.unwrap_or(cfg.nodes))?;
        let ctx = SchedulerCtx::new(&cluster, &model);
        let batch = Batch::new(seqs);
        let t = stage(tr, "serve.resolve", t);
        let (key, canonical) = PlanKey::new(scheduler.name(), &batch, &ctx);
        let t = stage(tr, "serve.cache.key", t);
        let found = cache.lookup(&key);
        let mut t = stage(tr, "serve.cache.lookup", t);
        let hit = found.is_some();
        let cached = match found {
            Some(c) => c,
            None => {
                let plan = scheduler.plan(&canonical.to_batch(), &ctx);
                t = stage(tr, "core.plan", t);
                let plan = plan.map_err(|e| e.to_string())?;
                let cached = Arc::new(CachedPlan::new(plan, &canonical.lens));
                cache.insert(key, Arc::clone(&cached));
                cached
            }
        };
        let plan = cached.materialize(&canonical);
        let t = stage(tr, "serve.cache.lookup", t);
        let audit = validate_with_batch(&plan, &ctx, &batch);
        let t = stage(tr, "core.validate", t);
        audit.map_err(|v| format!("{} violation(s)", v.len()))?;
        let response = plan_response(&plan, hit, false, 0);
        stage(tr, "serve.encode", t);
        std::hint::black_box(response);
        Ok(())
    })();
    tr.close(root);
    result
}
