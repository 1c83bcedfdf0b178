//! Load exhibit: the async single-flight serving front-end under a
//! ≥1M-request mixed workload (DESIGN.md §12).
//!
//! One request stream, four measurements:
//!
//! 1. **uncached** — the raw planner on a sample of the distinct shapes:
//!    the floor every cached path is measured against.
//! 2. **before** — the PR 3 serving discipline: the canonicalizing
//!    [`PlanCache`] behind one global mutex, hammered by the same client
//!    threads. This is what the previous thread-per-connection front-end
//!    did per request.
//! 3. **after (direct)** — the same threads through the N-way
//!    [`ShardedPlanCache`]: isolates what digest sharding buys with zero
//!    transport noise.
//! 4. **server** — end-to-end over loopback TCP against the
//!    thread-per-connection front-end: permuted hot-window shapes plus a
//!    cold tail, a single-flight barrage proving coalescing, client-measured
//!    latency percentiles, and the server's own planner-run accounting.
//!
//! The workload mixes hot and cold keys deterministically: consecutive
//! `WINDOW`-sized index ranges share one hot shape (so every window
//! boundary lands a fresh key on all connections at once — the
//! single-flight case), roughly 1 in 16 requests draws from a cold pool,
//! and every request permutes its sequence order (so hits exercise the
//! re-index path, not just shared handles).
//!
//! Honest-reporting rules (same as the scale exhibit): wall-clock wins for
//! the sharded cache over the global mutex are only asserted when the host
//! exposes ≥ 2 CPUs — on a single CPU all threads timeshare and lock
//! contention costs almost nothing. Coalescing and planner-run frugality
//! are scheduling facts, not timing facts, and are asserted everywhere.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use zeppelin_bench::harness::paper_rng;
use zeppelin_core::scheduler::SchedulerCtx;
use zeppelin_data::batch::{sample_batch, Batch};
use zeppelin_data::datasets::arxiv;
use zeppelin_model::config::llama_3b;
use zeppelin_serve::cache::{PlanCache, ShardedPlanCache};
use zeppelin_serve::registry;
use zeppelin_serve::{PlannerChaos, Server, ServerConfig};
use zeppelin_sim::topology::cluster_a;

/// Consecutive requests sharing one hot shape; every boundary is a fresh
/// key arriving on all connections at once.
const WINDOW: usize = 1024;
/// Distinct hot shapes cycled through the windows.
const HOT_SHAPES: usize = 256;
/// Distinct cold-tail shapes (1 in 16 requests draws one).
const COLD_SHAPES: usize = 512;
/// Distinct shapes the uncached floor cycles through.
const UNCACHED_SHAPES: usize = 128;
/// Direct planner runs timed for the uncached floor, after one untimed
/// warm-up pass over its shapes. Enough that one scheduler hiccup moves
/// the rate by a few percent, not several-fold.
const UNCACHED_RUNS: usize = 8192;

struct Args {
    requests: usize,
    conns: usize,
    workers: usize,
    tokens: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 1_000_000,
        conns: 8,
        workers: 4,
        tokens: 262_144,
        out: "BENCH_serve.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--requests" => args.requests = val().parse().expect("--requests"),
            "--conns" => args.conns = val().parse::<usize>().expect("--conns").max(1),
            "--workers" => args.workers = val().parse::<usize>().expect("--workers").max(1),
            "--tokens" => args.tokens = val().parse::<u64>().expect("--tokens").max(1024),
            "--out" => args.out = val(),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The deterministic request stream: shape and permutation for index `i`.
fn seqs_for(i: usize, hot: &[Vec<u64>], cold: &[Vec<u64>]) -> Vec<u64> {
    let h = splitmix64(i as u64);
    let lens = if i % 16 == 7 {
        &cold[(h % cold.len() as u64) as usize]
    } else {
        &hot[(i / WINDOW) % hot.len()]
    };
    let mut seqs = lens.clone();
    let n = seqs.len();
    seqs.rotate_left((h >> 32) as usize % n.max(1));
    seqs
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Merged latency stats for one phase.
struct Phase {
    wall_s: f64,
    count: usize,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
}

impl Phase {
    fn from_lats(wall_s: f64, mut lats: Vec<u64>) -> Phase {
        lats.sort_unstable();
        Phase {
            wall_s,
            count: lats.len(),
            p50_us: percentile(&lats, 0.50),
            p99_us: percentile(&lats, 0.99),
            p999_us: percentile(&lats, 0.999),
        }
    }

    fn per_sec(&self) -> f64 {
        self.count as f64 / self.wall_s.max(1e-9)
    }

    fn json(&self, label: &str, uncached_per_sec: f64) -> String {
        format!(
            "  \"{label}\": {{\"requests\": {}, \"wall_s\": {:.3}, \"reqs_per_sec\": {:.0}, \
             \"speedup_vs_uncached\": {:.2}, \
             \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}}}",
            self.count,
            self.wall_s,
            self.per_sec(),
            self.per_sec() / uncached_per_sec.max(1e-9),
            self.p50_us,
            self.p99_us,
            self.p999_us,
        )
    }
}

/// Runs the stream through `serve_one` on `conns` threads (round-robin
/// index partition), collecting per-request latencies.
fn run_direct(
    requests: usize,
    conns: usize,
    hot: &[Vec<u64>],
    cold: &[Vec<u64>],
    ctx: &SchedulerCtx,
    serve_one: impl Fn(&Batch) + Sync,
) -> Phase {
    let _ = ctx;
    let t0 = Instant::now();
    let all: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(requests));
    std::thread::scope(|scope| {
        for t in 0..conns {
            let serve_one = &serve_one;
            let all = &all;
            scope.spawn(move || {
                let mut lats = Vec::with_capacity(requests / conns + 1);
                let mut i = t;
                while i < requests {
                    let batch = Batch::new(seqs_for(i, hot, cold));
                    let r0 = Instant::now();
                    serve_one(&batch);
                    lats.push(r0.elapsed().as_micros() as u64);
                    i += conns;
                }
                all.lock().expect("lats").extend(lats);
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    Phase::from_lats(wall_s, all.into_inner().expect("lats"))
}

/// One client connection: line out, line back, latency recorded.
struct Client {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client {
            writer: BufWriter::new(stream),
            reader,
            line: String::new(),
        }
    }

    fn round_trip(&mut self, request: &str) -> &str {
        self.writer.write_all(request.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        self.writer.flush().expect("flush");
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).expect("reply");
        assert!(n > 0, "server closed the connection mid-stream");
        self.line.trim_end()
    }
}

fn plan_line(seqs: &[u64]) -> String {
    let lens: Vec<String> = seqs.iter().map(u64::to_string).collect();
    format!("{{\"op\":\"plan\",\"seqs\":[{}]}}", lens.join(","))
}

fn main() {
    let args = parse_args();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cluster = cluster_a(2);
    let model = llama_3b();
    let ctx = SchedulerCtx::new(&cluster, &model);

    println!(
        "Serve load exhibit — {} requests, {} connections, {} planner workers, {} host CPU(s)",
        args.requests, args.conns, args.workers, host_cpus
    );
    println!(
        "workload: {HOT_SHAPES} hot shapes in windows of {WINDOW}, \
         {COLD_SHAPES}-shape cold tail (1 in 16), all orders permuted\n"
    );

    // Deterministic shape pools (the paper RNG, offsets keep them disjoint).
    let dist = arxiv();
    let mut rng = paper_rng(17);
    let hot: Vec<Vec<u64>> = (0..HOT_SHAPES)
        .map(|_| sample_batch(&dist, &mut rng, args.tokens).seqs)
        .collect();
    let mut rng = paper_rng(18);
    let cold: Vec<Vec<u64>> = (0..COLD_SHAPES)
        .map(|_| sample_batch(&dist, &mut rng, args.tokens).seqs)
        .collect();

    // 1. Uncached floor: the raw planner cycling through a sample of
    //    distinct shapes, timed after one warm-up pass.
    let scheduler = registry::scheduler_by_name("zeppelin").expect("zeppelin resolves");
    let sample: Vec<Batch> = hot
        .iter()
        .chain(cold.iter())
        .take(UNCACHED_SHAPES)
        .map(|lens| Batch::new(lens.clone()))
        .collect();
    for batch in &sample {
        scheduler
            .plan(batch, &ctx)
            .expect("warm-up planning succeeds");
    }
    let t0 = Instant::now();
    let mut lats = Vec::with_capacity(UNCACHED_RUNS);
    for batch in sample.iter().cycle().take(UNCACHED_RUNS) {
        let r0 = Instant::now();
        scheduler
            .plan(batch, &ctx)
            .expect("uncached planning succeeds");
        lats.push(r0.elapsed().as_micros() as u64);
    }
    let uncached = Phase::from_lats(t0.elapsed().as_secs_f64(), lats);
    let uncached_per_sec = uncached.per_sec();
    println!(
        "uncached planner: {:>8.0} plans/s   (p50 {}us p99 {}us, {} runs)",
        uncached_per_sec, uncached.p50_us, uncached.p99_us, uncached.count
    );

    // 2. Before: the PR 3 discipline — one PlanCache behind a global mutex,
    //    shared by every client thread (per-thread scheduler instances, as
    //    in the old worker pool).
    let global = Mutex::new(PlanCache::new(1024));
    let before = run_direct(args.requests, args.conns, &hot, &cold, &ctx, |batch| {
        let scheduler = registry::scheduler_by_name("zeppelin").expect("resolves");
        global
            .lock()
            .expect("global cache")
            .get_or_plan(scheduler.as_ref(), batch, &ctx)
            .expect("cached planning succeeds");
    });
    println!(
        "before (global-mutex cache): {:>8.0} reqs/s   (p50 {}us p99 {}us p999 {}us)",
        before.per_sec(),
        before.p50_us,
        before.p99_us,
        before.p999_us
    );

    // 3. After, transport-free: the sharded cache, no outer lock.
    let sharded = ShardedPlanCache::new(1024, 8);
    let after_direct = run_direct(args.requests, args.conns, &hot, &cold, &ctx, |batch| {
        let scheduler = registry::scheduler_by_name("zeppelin").expect("resolves");
        sharded
            .get_or_plan(scheduler.as_ref(), batch, &ctx)
            .expect("cached planning succeeds");
    });
    println!(
        "after (sharded cache):       {:>8.0} reqs/s   (p50 {}us p99 {}us p999 {}us)",
        after_direct.per_sec(),
        after_direct.p50_us,
        after_direct.p99_us,
        after_direct.p999_us
    );

    // 4. End-to-end: the server over loopback TCP.
    //
    // The barrage leader gets one injected 100ms planner stall (the seeded
    // chaos hook, consumed by exactly the first planner run, which happens
    // before the timed stream starts). Without it the window is unfair to
    // measure: a µs-scale planner run on a single-CPU host always finishes
    // before the OS lets another follower arrive, so coalescing would be a
    // lottery on the host scheduler rather than a property of the server.
    let chaos = std::sync::Arc::new(PlannerChaos::new());
    chaos.push_stall(100);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: args.workers,
        max_queue: 1024,
        chaos: Some(chaos.clone()),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run().expect("server runs clean"));

    // Single-flight barrage: every connection fires the same fresh key at
    // the same instant; exactly one planner run may serve them all. The
    // batch is 2x the stream size (capped under the default context
    // capacity) so its planner run outlasts the clients' arrival spread.
    let barrage_tokens = (args.tokens * 2).min(524_288);
    let barrage: Vec<u64> = sample_batch(&arxiv(), &mut paper_rng(19), barrage_tokens).seqs;
    let gate = Barrier::new(args.conns);
    std::thread::scope(|scope| {
        for _ in 0..args.conns {
            let gate = &gate;
            let addr = addr.as_str();
            let line = plan_line(&barrage);
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                gate.wait();
                let reply = client.round_trip(&line);
                assert!(reply.starts_with("{\"ok\":true"), "barrage reply: {reply}");
            });
        }
    });
    assert_eq!(chaos.pending(), 0, "the barrage leader consumed the stall");

    let t0 = Instant::now();
    let all: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(args.requests));
    std::thread::scope(|scope| {
        for t in 0..args.conns {
            let addr = addr.as_str();
            let (hot, cold, all) = (&hot, &cold, &all);
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                let mut lats = Vec::with_capacity(args.requests / args.conns + 1);
                let mut i = t;
                while i < args.requests {
                    let line = plan_line(&seqs_for(i, hot, cold));
                    let r0 = Instant::now();
                    let reply = client.round_trip(&line);
                    lats.push(r0.elapsed().as_micros() as u64);
                    assert!(
                        reply.starts_with("{\"ok\":true"),
                        "request {i} failed: {reply}"
                    );
                    i += args.conns;
                }
                all.lock().expect("lats").extend(lats);
            });
        }
    });
    let served = Phase::from_lats(t0.elapsed().as_secs_f64(), all.into_inner().expect("lats"));

    let mut shutdown = Client::connect(&addr);
    let reply = shutdown.round_trip("{\"op\":\"shutdown\"}");
    assert!(reply.contains("shutting_down"), "shutdown ack: {reply}");
    drop(shutdown);
    let report = server_thread.join().expect("server thread");
    let m = &report.metrics;

    println!(
        "server (TCP):                {:>8.0} reqs/s   (p50 {}us p99 {}us p999 {}us)",
        served.per_sec(),
        served.p50_us,
        served.p99_us,
        served.p999_us
    );
    println!(
        "\nserver accounting: {} plan requests, {} cache hits ({:.1}% hit rate)",
        m.plan_requests,
        m.cache_hits,
        m.hit_rate() * 100.0
    );
    println!(
        "  planner runs: {} ({:.2}% of requests) — {} coalesced onto another's run",
        m.planner_runs,
        m.planner_runs as f64 / m.plan_requests.max(1) as f64 * 100.0,
        m.coalesced
    );

    // Invariants that hold regardless of host CPU count.
    assert_eq!(
        m.plan_requests as usize,
        args.requests + args.conns,
        "every request (stream + barrage) served a plan"
    );
    assert_eq!(m.errors, 0, "no request errored");
    assert_eq!(m.worker_respawns, 0, "no panic escaped containment");
    if args.conns >= 2 {
        assert!(
            m.coalesced >= 1,
            "the barrage must coalesce at least one follower"
        );
    }
    assert!(
        (m.planner_runs as usize) <= args.requests / 20,
        "hot-key mix must keep planner runs well under requests: {} runs for {} requests",
        m.planner_runs,
        args.requests
    );
    assert!(
        served.p999_us < 5_000_000,
        "p999 {}us breaches the generous 5s bound",
        served.p999_us
    );
    // Timing claims only where timing is observable.
    if host_cpus >= 2 {
        assert!(
            after_direct.per_sec() >= before.per_sec() * 0.9,
            "sharded cache fell behind the global mutex: {:.0} vs {:.0} reqs/s",
            after_direct.per_sec(),
            before.per_sec()
        );
    } else {
        println!(
            "note: host exposes 1 CPU; threads timeshare, so the sharded-vs-global \
             wall-clock comparison is not asserted here (scheduling invariants still are)"
        );
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"exhibit\": \"serve_load\",").unwrap();
    writeln!(
        json,
        "  \"requests\": {}, \"conns\": {}, \"workers\": {}, \"host_cpus\": {},",
        args.requests, args.conns, args.workers, host_cpus
    )
    .unwrap();
    writeln!(
        json,
        "  \"hot_shapes\": {HOT_SHAPES}, \"cold_shapes\": {COLD_SHAPES}, \
         \"window\": {WINDOW}, \"tokens_per_request\": {},",
        args.tokens
    )
    .unwrap();
    writeln!(
        json,
        "  \"uncached\": {{\"runs\": {}, \"plans_per_sec\": {:.0}, \
         \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}}},",
        uncached.count, uncached_per_sec, uncached.p50_us, uncached.p99_us, uncached.p999_us
    )
    .unwrap();
    writeln!(
        json,
        "{},",
        before.json("before_global_mutex_cache", uncached_per_sec)
    )
    .unwrap();
    writeln!(
        json,
        "{},",
        after_direct.json("after_sharded_cache", uncached_per_sec)
    )
    .unwrap();
    writeln!(json, "{},", served.json("server", uncached_per_sec)).unwrap();
    writeln!(
        json,
        "  \"server_stats\": {{\"plan_requests\": {}, \"cache_hits\": {}, \
         \"hit_rate\": {:.4}, \"planner_runs\": {}, \"coalesced\": {}, \
         \"errors\": {}, \"worker_respawns\": {}, \"cached_plans\": {}}}",
        m.plan_requests,
        m.cache_hits,
        m.hit_rate(),
        m.planner_runs,
        m.coalesced,
        m.errors,
        m.worker_respawns,
        report.cached_plans
    )
    .unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&args.out, json).expect("write BENCH json");
    println!("\nwrote {}", args.out);
    println!("ok");
}
