//! Host-cost benchmark for the Zeppelin reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|tiny] [--trace-dir <dir>]
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a traced
//! run (`--trace 1`) of the same workload and seed records spans around
//! every layer call and reports the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! See README.md for the workloads, the metric glossary, and which layer
//! metric should move which end-to-end metric.

mod cluster;
mod obs;
mod scale;
mod serve;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use obs::{json_map, json_num, percentile, windowed_percentile, Digest, Tracer};

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p95_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced run, on every workload (0
/// where a workload never enters the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.plan.busy_ms", "ms"),
    ("core.plan.calls", "count"),
    ("core.validate.busy_ms", "ms"),
    ("exec.step.busy_ms", "ms"),
    ("exec.step.other_ms", "ms"),
    ("exec.lower.busy_ms", "ms"),
    ("exec.lower.tasks", "count"),
    ("exec.lower.busy_ms.te_cp", "ms"),
    ("exec.lower.busy_ms.llama_cp", "ms"),
    ("exec.lower.busy_ms.hybrid_dp", "ms"),
    ("exec.lower.busy_ms.zeppelin", "ms"),
    ("exec.lower.tasks.te_cp", "count"),
    ("exec.lower.tasks.llama_cp", "count"),
    ("exec.lower.tasks.hybrid_dp", "count"),
    ("exec.lower.tasks.zeppelin", "count"),
    ("sim.run.busy_ms", "ms"),
    ("sim.events", "count"),
    ("sim.rebalances", "count"),
    ("sim.filled_flows", "count"),
    ("sim.parallel_rebalances", "count"),
    ("sim.components", "count"),
    ("sim.pool.busy_ms", "ms"),
    ("sim.pool.utilization", "ratio"),
    ("cluster.step_sims", "count"),
    ("cluster.step_launches", "count"),
    ("cluster.memo_hit_ratio", "ratio"),
    ("cluster.step_sim.busy_ms", "ms"),
    ("cluster.policy.busy_ms", "ms"),
    ("cluster.policy.calls", "count"),
    ("cluster.driver.self_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.latency_us", "us"),
    ("serve.frame_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.resolve_us", "us"),
    ("serve.cache.key_us", "us"),
    ("serve.cache.lookup_us", "us"),
    ("serve.plan_us", "us"),
    ("serve.validate_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("serve.hit_ratio", "ratio"),
    ("serve.planner_runs", "count"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.gen_late_us", "us"),
    ("serve.max_rps", "1/s"),
    ("trace.e2e_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("outputs_digest", "count"),
];

/// The workloads, each with why it exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "sweep-64gpu",
        "Fig. 8 method roster on 64 GPUs, arxiv and fineweb batches: lowering-bound",
    ),
    (
        "cluster-policies",
        "FIFO, SRWF and FairShare on a skewed job trace: many small Zeppelin steps",
    ),
    (
        "serve-low",
        "two plan callers with think time: the mostly idle server's path",
    ),
    (
        "serve-high",
        "open-loop plan requests at 70% of capacity, plus a rate ladder",
    ),
    (
        "sim-scale",
        "1024-rank replicated-group DAG with the parallel fill",
    ),
];

/// Input size: `full` is the benchmark; `tiny` is for the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Small enough for a test to run every workload in seconds.
    Tiny,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Where traced runs write their spans.
    pub trace_dir: PathBuf,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (steps, cluster runs, requests, simulations).
    pub attempted: u64,
    /// Operations that failed or whose output failed its oracle.
    pub failed: u64,
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// Work completed per host second.
    pub ops_per_s: f64,
    /// What one unit of `ops_per_s` is.
    pub op_unit: &'static str,
    /// Per-operation latency samples in microseconds.
    pub latencies_us: Vec<f64>,
    /// What one latency sample is.
    pub latency_of: &'static str,
    /// Take tail percentiles as the median of windowed percentiles
    /// ([`windowed_percentile`]) rather than over all samples at once: for
    /// arrival-ordered samples where one host stall hits many in a row.
    pub windowed_tail: bool,
    /// Hash of the simulated outputs of a fixed prefix of the work.
    pub digest: Digest,
    /// Workload parameters, for provenance.
    pub params: Vec<(&'static str, String)>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Records the traced end-to-end time against the untraced time of the
/// same work; the difference is the tracing overhead.
pub fn trace_overhead(out: &mut Outcome, untraced_ms: f64, e2e_ms: f64) {
    out.layers.insert("trace.e2e_ms", e2e_ms);
    out.layers.insert("trace.untraced_ms", untraced_ms);
    out.layers.insert(
        "trace.overhead_pct",
        (e2e_ms / untraced_ms.max(1e-9) - 1.0) * 100.0,
    );
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--size full|tiny] [--trace-dir <dir>]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        trace_dir: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("bad {what}: {val}");
        match flag.as_str() {
            "--workload" => opts.workload = val.clone(),
            "--seed" => opts.seed = val.parse().map_err(|_| bad("--seed"))?,
            "--seconds" => {
                opts.seconds = val.parse().map_err(|_| bad("--seconds"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad("--seconds"));
                }
            }
            "--trace" => {
                opts.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                }
            }
            "--size" => {
                opts.size = match val.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("--size")),
                }
            }
            "--trace-dir" => opts.trace_dir = PathBuf::from(val),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.iter().any(|(n, _)| *n == opts.workload) {
        return Err(format!("unknown workload '{}'", opts.workload));
    }
    Ok(opts)
}

/// The commit of the checkout, read from `.git` in the working directory
/// without leaving it; `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(opts: &Opts, out: &Outcome) -> String {
    let params: Vec<String> = out
        .params
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"size\":{},\
         \"host_cpus\":{},\"commit\":{},\"rustc\":{},\"params\":{{{}}}}}",
        json_str(&opts.workload),
        opts.seed,
        json_num(opts.seconds),
        opts.trace,
        json_str(if opts.size == Size::Full {
            "full"
        } else {
            "tiny"
        }),
        host_cpus(),
        json_str(&commit()),
        json_str(env!("PERFBENCH_RUSTC")),
        params.join(",")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // The simulator reads its default pool width from the environment;
    // pin it to the sequential default so a stray variable cannot change
    // what the step workloads measure. `sim-scale` sets its width itself.
    std::env::remove_var("ZEPPELIN_SIM_WORKERS");

    let mut tracer = opts.trace.then(Tracer::new);
    let mut out = match opts.workload.as_str() {
        "sweep-64gpu" => sweep::run(&opts, tracer.as_mut()),
        "cluster-policies" => cluster::run(&opts, tracer.as_mut()),
        "serve-low" => serve::run(&opts, serve::Load::Low, tracer.as_mut()),
        "serve-high" => serve::run(&opts, serve::Load::High, tracer.as_mut()),
        "sim-scale" => scale::run(&opts, tracer.as_mut()),
        _ => unreachable!("workload names are validated"),
    };
    out.layers.insert("outputs_digest", out.digest.value());

    let p50 = percentile(&out.latencies_us, 0.5);
    let tail = |q: f64| {
        if out.windowed_tail {
            windowed_percentile(&out.latencies_us, q)
        } else {
            percentile(&out.latencies_us, q)
        }
    };
    let (p95, p99) = (tail(0.95), tail(0.99));
    let rss = obs::peak_rss_mb();
    let e2e: BTreeMap<&str, f64> = [
        ("setup_s", out.setup_s),
        ("ops_per_s", out.ops_per_s),
        ("p50_us", p50),
        ("p95_us", p95),
        ("peak_rss_mb", rss),
    ]
    .into_iter()
    .collect();
    let (table, values): (&[(&str, &str)], Vec<f64>) = if opts.trace {
        let v = PER_LAYER
            .iter()
            .map(|(n, _)| out.layers.get(n).copied().unwrap_or(0.0))
            .collect();
        (PER_LAYER, v)
    } else {
        (END_TO_END, END_TO_END.iter().map(|(n, _)| e2e[n]).collect())
    };
    // A metric that could not be measured is a failed run, not a zero.
    let mut failed = out.failed;
    if values.iter().any(|v| !v.is_finite())
        || (!opts.trace && END_TO_END.iter().any(|(n, _)| e2e[n] <= 0.0))
    {
        failed += 1;
    }
    let attempted = out.attempted.max(1);

    println!(
        "perfbench {} seed={} trace={} ({})",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        WORKLOADS
            .iter()
            .find(|(n, _)| *n == opts.workload)
            .map_or("", |(_, why)| *why)
    );
    if !opts.trace {
        println!(
            "  ops_per_s counts {}; {} latency samples, each {}",
            out.op_unit,
            out.latencies_us.len(),
            out.latency_of
        );
        // Reported, not gated: it moves by more than any bound on the
        // workloads whose tail is a few wide steps or the slowest of a few
        // dozen runs.
        println!("  p99 {} us", json_num(p99));
    }
    for ((name, unit), v) in table.iter().zip(&values) {
        println!("  {name:<32} {:>16} {unit}", json_num(*v));
    }
    let prov = provenance(&opts, &out);
    if let Some(tracer) = &tracer {
        let path = opts
            .trace_dir
            .join(format!("{}-seed{}.json", opts.workload, opts.seed));
        let doc = format!(
            "{{\"provenance\":{prov},\"layers\":{},\"trace\":{}}}\n",
            json_map(out.layers.iter().map(|(k, v)| (*k, *v))),
            tracer.to_json()
        );
        match std::fs::create_dir_all(&opts.trace_dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                failed += 1;
            }
        }
    }

    println!(
        "  failed {failed} of {attempted} (failed_ratio {})",
        json_num(failed as f64 / attempted as f64)
    );
    println!(
        "{{\"provenance\":{prov},\"outputs_digest\":{}}}",
        json_num(out.digest.value())
    );
    let metrics: Vec<String> = table
        .iter()
        .zip(&values)
        .map(|((name, unit), v)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
