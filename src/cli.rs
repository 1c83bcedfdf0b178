//! Command-line interface: plan, simulate, and trace training steps from a
//! terminal. Argument parsing is hand-rolled (no external dependencies) and
//! unit-tested here; the `zeppelin-cli` binary is a thin wrapper.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
use zeppelin_core::zones::zone_thresholds;
use zeppelin_data::batch::{sample_batch, Batch};
use zeppelin_data::distribution::LengthDistribution;
use zeppelin_exec::step::{simulate_step, StepConfig};
use zeppelin_model::config as models;
use zeppelin_model::config::ModelConfig;
use zeppelin_serve::protocol::Request;
use zeppelin_serve::registry;
use zeppelin_serve::{Server, ServerConfig};
use zeppelin_sim::topology::{cluster_a, cluster_b, cluster_c, cluster_mixed, ClusterSpec};

/// Parsed command-line options: flag name → value (`""` for bare flags).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Options {
    /// Positional command (first non-flag argument).
    pub command: String,
    /// Positional arguments after the command (e.g. `audit plan.json`).
    pub args: Vec<String>,
    /// `--flag value` and `--flag` entries.
    pub flags: BTreeMap<String, String>,
}

/// Errors from CLI parsing or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No command given or an unknown command.
    UnknownCommand(String),
    /// A flag value failed to parse or referenced an unknown name.
    BadFlag {
        /// Flag name.
        flag: String,
        /// Offending value.
        value: String,
    },
    /// Planning or simulation failed.
    RunFailed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command '{c}' (try: {})", COMMANDS.join(", "))
            }
            CliError::BadFlag { flag, value } => write!(f, "bad value '{value}' for --{flag}"),
            CliError::RunFailed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Supported commands.
pub const COMMANDS: [&str; 14] = [
    "clusters", "models", "zones", "plan", "step", "compare", "explain", "audit", "run", "faults",
    "serve", "client", "chaos", "cluster",
];

/// Parses raw arguments (excluding the program name).
pub fn parse_args(args: &[String]) -> Options {
    let mut opts = Options::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let value = if it.peek().is_some_and(|v| !v.starts_with("--")) {
                it.next().cloned().unwrap_or_default()
            } else {
                String::new()
            };
            opts.flags.insert(name.to_string(), value);
        } else if opts.command.is_empty() {
            opts.command = arg.clone();
        } else {
            opts.args.push(arg.clone());
        }
    }
    opts
}

// Name resolution lives in zeppelin-serve's registry so the CLI and the
// serving protocol accept one vocabulary; here we only attach the flag name.
fn bad_flag(flag: &str) -> impl Fn(String) -> CliError + '_ {
    move |value| CliError::BadFlag {
        flag: flag.into(),
        value,
    }
}

fn model_by_name(name: &str) -> Result<ModelConfig, CliError> {
    registry::model_by_name(name).map_err(bad_flag("model"))
}

fn cluster_by_name(name: &str, nodes: usize) -> Result<ClusterSpec, CliError> {
    registry::cluster_by_name(name, nodes).map_err(bad_flag("cluster"))
}

fn dataset_by_name(name: &str) -> Result<LengthDistribution, CliError> {
    registry::dataset_by_name(name).map_err(bad_flag("dataset"))
}

fn scheduler_by_name(name: &str) -> Result<Box<dyn Scheduler>, CliError> {
    registry::scheduler_by_name(name).map_err(bad_flag("method"))
}

fn flag_usize(opts: &Options, name: &str, default: usize) -> Result<usize, CliError> {
    match opts.flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| CliError::BadFlag {
            flag: name.into(),
            value: v.clone(),
        }),
    }
}

fn flag_u64(opts: &Options, name: &str, default: u64) -> Result<u64, CliError> {
    match opts.flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| CliError::BadFlag {
            flag: name.into(),
            value: v.clone(),
        }),
    }
}

fn parse_seqs(opts: &Options) -> Result<Option<Batch>, CliError> {
    let Some(spec) = opts.flags.get("seqs") else {
        return Ok(None);
    };
    let mut lens = Vec::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let len: u64 = part.trim().parse().map_err(|_| CliError::BadFlag {
            flag: "seqs".into(),
            value: part.into(),
        })?;
        if len == 0 {
            return Err(CliError::BadFlag {
                flag: "seqs".into(),
                value: part.into(),
            });
        }
        lens.push(len);
    }
    if lens.is_empty() {
        return Err(CliError::BadFlag {
            flag: "seqs".into(),
            value: spec.clone(),
        });
    }
    Ok(Some(Batch::new(lens)))
}

/// Builds the batch: explicit `--seqs` wins, then `--seqs-file` (one length
/// per line), otherwise sampled from `--dataset` (default arxiv) at
/// `--tokens` (default 65536).
fn build_batch(opts: &Options) -> Result<Batch, CliError> {
    if let Some(batch) = parse_seqs(opts)? {
        return Ok(batch);
    }
    if let Some(path) = opts.flags.get("seqs-file") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::RunFailed(format!("reading {path}: {e}")))?;
        return zeppelin_data::batch::parse_lengths(&text)
            .map_err(|e| CliError::RunFailed(format!("{path}: {e}")));
    }
    let dist = dataset_by_name(opts.flags.get("dataset").map_or("arxiv", |s| s))?;
    let tokens = flag_u64(opts, "tokens", 65_536)?;
    let seed = flag_u64(opts, "seed", 42)?;
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(sample_batch(&dist, &mut rng, tokens))
}

fn build_ctx(opts: &Options) -> Result<(ClusterSpec, ModelConfig, SchedulerCtx), CliError> {
    let nodes = flag_usize(opts, "nodes", 2)?;
    let cluster = cluster_by_name(opts.flags.get("cluster").map_or("a", |s| s), nodes)?;
    let model = model_by_name(opts.flags.get("model").map_or("3b", |s| s))?;
    let ctx = SchedulerCtx::new(&cluster, &model);
    Ok((cluster, model, ctx))
}

/// Executes a parsed command, returning the text to print.
pub fn run(opts: &Options) -> Result<String, CliError> {
    match opts.command.as_str() {
        "clusters" => {
            let mut out = String::new();
            for c in [cluster_a(1), cluster_b(1), cluster_c(1), cluster_mixed(3)] {
                out.push_str(&format!(
                    "{}: {} GPUs/node @ {:.0} TFLOP/s, NVLink {:.0} GB/s, {} NIC(s) @ {:.0} Gb/s\n",
                    c.name,
                    c.node.gpus_per_node,
                    c.node.gpu.peak_flops / 1e12,
                    c.node.gpu.nvlink_bw / 1e9,
                    c.node.nic_count,
                    c.node.nic.bw * 8.0 / 1e9,
                ));
            }
            Ok(out)
        }
        "models" => {
            let mut out = String::new();
            for m in models::paper_models() {
                out.push_str(&format!(
                    "{}: hidden {}, layers {}, heads {}, ~{:.1}B params{}\n",
                    m.name,
                    m.hidden,
                    m.layers,
                    m.num_heads,
                    m.param_count() as f64 / 1e9,
                    if m.is_moe() { " (MoE)" } else { "" },
                ));
            }
            Ok(out)
        }
        "zones" => {
            let (cluster, model, ctx) = build_ctx(opts)?;
            let t = zone_thresholds(&model, &cluster);
            Ok(format!(
                "{} on {} (capacity {} tokens/GPU):\n  local      < {} tokens\n  intra-node < {} tokens\n  inter-node >= {} tokens\n",
                model.name, cluster.name, ctx.capacity, t.local_max, t.intra_max, t.intra_max
            ))
        }
        "plan" => {
            let (cluster, _, ctx) = build_ctx(opts)?;
            let batch = build_batch(opts)?;
            let scheduler = scheduler_by_name(opts.flags.get("method").map_or("zeppelin", |s| s))?;
            let plan = scheduler
                .plan(&batch, &ctx)
                .map_err(|e| CliError::RunFailed(e.to_string()))?;
            if let Some(path) = opts.flags.get("out") {
                std::fs::write(path, zeppelin_core::plan_io::plan_to_json(&plan))
                    .map_err(|e| CliError::RunFailed(format!("writing {path}: {e}")))?;
                return Ok(format!("wrote plan to {path}\n"));
            }
            let mut out = format!(
                "{}: {} sequences, {} tokens over {} GPUs\n",
                plan.scheduler,
                batch.len(),
                batch.total_tokens(),
                cluster.total_gpus()
            );
            for p in &plan.placements {
                out.push_str(&format!(
                    "  seq {:>3} {:>7} tokens  {:?} x{} ({:?})\n",
                    p.seq_index,
                    p.len,
                    p.zone,
                    p.ranks.len(),
                    p.mode
                ));
            }
            Ok(out)
        }
        "step" => {
            let (_, _, ctx) = build_ctx(opts)?;
            let batch = build_batch(opts)?;
            let report = if let Some(path) = opts.flags.get("plan") {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::RunFailed(format!("reading {path}: {e}")))?;
                let plan = zeppelin_core::plan_io::plan_from_json(&text)
                    .map_err(|e| CliError::RunFailed(e.to_string()))?;
                // Plans from files are untrusted: always run the full audit
                // before lowering, release builds included.
                let cfg = StepConfig {
                    audit_plans: true,
                    ..StepConfig::default()
                };
                zeppelin_exec::step::simulate_plan(&plan, &batch, &ctx, &cfg)
                    .map_err(|e| CliError::RunFailed(e.to_string()))?
            } else {
                let scheduler =
                    scheduler_by_name(opts.flags.get("method").map_or("zeppelin", |s| s))?;
                simulate_step(scheduler.as_ref(), &batch, &ctx, &StepConfig::default())
                    .map_err(|e| CliError::RunFailed(e.to_string()))?
            };
            let mut out = format!(
                "{}: step {} ({:.0} tokens/s)\n  layer forward {}, backward {}\n",
                report.scheduler,
                report.step_time,
                report.throughput,
                report.layer_forward,
                report.layer_backward
            );
            if let Some(path) = opts.flags.get("trace") {
                std::fs::write(path, report.trace_forward.to_chrome_json())
                    .map_err(|e| CliError::RunFailed(format!("writing {path}: {e}")))?;
                out.push_str(&format!("  wrote forward trace to {path}\n"));
            }
            Ok(out)
        }
        "compare" => {
            let (_, _, ctx) = build_ctx(opts)?;
            let batch = build_batch(opts)?;
            let mut out = String::new();
            let mut te: Option<f64> = None;
            for name in [
                "te",
                "double-ring",
                "ulysses",
                "llama",
                "hybrid",
                "zeppelin",
            ] {
                let scheduler = scheduler_by_name(name)?;
                let line =
                    match simulate_step(scheduler.as_ref(), &batch, &ctx, &StepConfig::default()) {
                        Ok(r) => {
                            if name == "te" {
                                te = Some(r.throughput);
                            }
                            let speedup = te
                                .map(|b| format!("{:.2}x", r.throughput / b))
                                .unwrap_or_else(|| "-".into());
                            format!(
                                "{:<14} {:>12.0} tokens/s  {speedup}\n",
                                r.scheduler, r.throughput
                            )
                        }
                        Err(e) => format!("{name:<14} failed: {e}\n"),
                    };
                out.push_str(&line);
            }
            Ok(out)
        }
        "run" => {
            let (_, _, ctx) = build_ctx(opts)?;
            let dist = dataset_by_name(opts.flags.get("dataset").map_or("arxiv", |s| s))?;
            let scheduler = scheduler_by_name(opts.flags.get("method").map_or("zeppelin", |s| s))?;
            let cfg = zeppelin_exec::trainer::RunConfig {
                steps: flag_usize(opts, "steps", 10)?,
                tokens_per_step: flag_u64(opts, "tokens", 65_536)?,
                seed: flag_u64(opts, "seed", 42)?,
                step: StepConfig::default(),
            };
            let report =
                zeppelin_exec::trainer::run_training(scheduler.as_ref(), &dist, &ctx, &cfg)
                    .map_err(|e| CliError::RunFailed(e.to_string()))?;
            if let Some(path) = opts.flags.get("json") {
                std::fs::write(path, zeppelin_exec::report::run_report_json(&report))
                    .map_err(|e| CliError::RunFailed(format!("writing {path}: {e}")))?;
                return Ok(format!("wrote run report to {path}\n"));
            }
            Ok(format!(
                "{}: {} steps on {}\n  mean {:.0} tokens/s (min {:.0}, max {:.0}), mean step {}\n",
                report.scheduler,
                report.steps.len(),
                dist.name,
                report.mean_throughput,
                report.min_throughput,
                report.max_throughput,
                report.mean_step_time
            ))
        }
        "faults" => {
            use zeppelin_exec::recovery::{run_training_faults, FaultRunConfig, RecoveryPolicy};
            use zeppelin_sim::fault::FaultSchedule;
            use zeppelin_sim::time::{SimDuration, SimTime};

            let (cluster, _, ctx) = build_ctx(opts)?;
            let dist = dataset_by_name(opts.flags.get("dataset").map_or("arxiv", |s| s))?;
            let scheduler = scheduler_by_name(opts.flags.get("method").map_or("zeppelin", |s| s))?;
            let steps = flag_usize(opts, "steps", 8)?;
            let crash_node = flag_usize(opts, "crash-node", cluster.nodes.saturating_sub(1))?;
            if crash_node >= cluster.nodes {
                return Err(CliError::BadFlag {
                    flag: "crash-node".into(),
                    value: crash_node.to_string(),
                });
            }
            let crash_ms = flag_u64(opts, "crash-at-ms", 1200)?;
            let faults = FaultSchedule::new().node_crash(
                &cluster,
                crash_node,
                SimTime::from_nanos(crash_ms.saturating_mul(1_000_000)),
            );
            let run_cfg = zeppelin_exec::trainer::RunConfig {
                steps,
                tokens_per_step: flag_u64(opts, "tokens", 65_536)?,
                seed: flag_u64(opts, "seed", 42)?,
                step: StepConfig::default(),
            };
            let mut out = format!(
                "node {crash_node} of {} crashes at t={crash_ms}ms; {} steps on {}\n\
                 {:<20} {:<10} {:>5} {:>10} {:>10} {:>9} {:>9} {:>5}\n",
                cluster.name,
                steps,
                dist.name,
                "policy",
                "outcome",
                "steps",
                "tokens/s",
                "goodput",
                "lost tok",
                "recovery",
                "ranks"
            );
            for policy in [
                RecoveryPolicy::FailStop,
                RecoveryPolicy::RetryWithBackoff {
                    max_retries: 3,
                    backoff: SimDuration::from_millis(25),
                },
                RecoveryPolicy::ReplanSurvivors,
                RecoveryPolicy::CheckpointRestart {
                    every_steps: 4,
                    restore_cost: SimDuration::from_millis(500),
                },
            ] {
                let name = policy.name();
                let cfg = FaultRunConfig {
                    run: run_cfg.clone(),
                    policy,
                    ..FaultRunConfig::default()
                };
                match run_training_faults(scheduler.as_ref(), &dist, &ctx, &cfg, &faults) {
                    Ok(r) => out.push_str(&format!(
                        "{:<20} {:<10} {:>5} {:>10.0} {:>10.0} {:>9} {:>8.2}s {:>5}\n",
                        name,
                        "completed",
                        r.committed_steps,
                        r.throughput,
                        r.goodput,
                        r.lost_tokens,
                        r.recovery_latency.as_secs_f64(),
                        r.final_ranks,
                    )),
                    Err(e) => out.push_str(&format!("{name:<20} error: {e}\n")),
                }
            }
            Ok(out)
        }
        "serve" => {
            let port = flag_usize(opts, "port", 7077)?;
            let host = opts.flags.get("host").map_or("127.0.0.1", |s| s);
            let defaults = ServerConfig::default();
            let cfg = ServerConfig {
                addr: format!("{host}:{port}"),
                workers: flag_usize(opts, "workers", 4)?.max(1),
                max_queue: flag_usize(opts, "queue", 64)?.max(1),
                cache_capacity: flag_usize(opts, "cache", 1024)?,
                cache_shards: flag_usize(opts, "cache-shards", defaults.cache_shards)?.max(1),
                max_connections: flag_usize(opts, "max-conns", defaults.max_connections)?.max(1),
                method: opts.flags.get("method").map_or("zeppelin", |s| s).into(),
                model: opts.flags.get("model").map_or("3b", |s| s).into(),
                cluster: opts.flags.get("cluster").map_or("a", |s| s).into(),
                nodes: flag_usize(opts, "nodes", 2)?,
                degraded_method: opts
                    .flags
                    .get("degraded-method")
                    .map_or(defaults.degraded_method.as_str(), |s| s)
                    .into(),
                grace_ms: flag_u64(opts, "grace-ms", defaults.grace_ms)?,
                idle_timeout_ms: flag_u64(opts, "idle-timeout-ms", defaults.idle_timeout_ms)?,
                frame_timeout_ms: flag_u64(opts, "frame-timeout-ms", defaults.frame_timeout_ms)?,
                write_timeout_ms: flag_u64(opts, "write-timeout-ms", defaults.write_timeout_ms)?,
                planner_highwater_ms: flag_u64(
                    opts,
                    "highwater-ms",
                    defaults.planner_highwater_ms,
                )?,
                planner_estimate_ms: defaults.planner_estimate_ms,
                breaker_failures: flag_u64(
                    opts,
                    "breaker-failures",
                    defaults.breaker_failures as u64,
                )?
                .clamp(1, u32::MAX as u64) as u32,
                breaker_cooldown_ms: flag_u64(
                    opts,
                    "breaker-cooldown-ms",
                    defaults.breaker_cooldown_ms,
                )?,
                chaos: None,
            };
            // Fail fast on bad defaults instead of erroring per-request.
            scheduler_by_name(&cfg.method)?;
            registry::scheduler_by_name(&cfg.degraded_method)
                .map_err(bad_flag("degraded-method"))?;
            model_by_name(&cfg.model)?;
            cluster_by_name(&cfg.cluster, cfg.nodes)?;
            let server = Server::bind(cfg)
                .map_err(|e| CliError::RunFailed(format!("bind {host}:{port}: {e}")))?;
            // Announce readiness before blocking; clients and the CI smoke
            // test wait for this line.
            println!("zeppelin-serve listening on {}", server.local_addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            let report = server
                .run()
                .map_err(|e| CliError::RunFailed(format!("serve: {e}")))?;
            let m = &report.metrics;
            Ok(format!(
                "shutdown: {} plan requests ({} hits, {:.1}% hit rate), {} stats, \
                 {} errors, {} rejected\n  plan latency p50 {}us p99 {}us p999 {}us; \
                 {} cached plans ({} evictions)\n  planner: {} runs, {} coalesced\n  \
                 faults: {} shed, {} degraded, \
                 {} deadline-exceeded, {} panics contained, {} escaped, \
                 {} breaker trips, {} slow clients, {} drain stragglers\n",
                m.plan_requests,
                m.cache_hits,
                m.hit_rate() * 100.0,
                m.stats_requests,
                m.errors,
                m.rejected,
                m.p50_us,
                m.p99_us,
                m.p999_us,
                report.cached_plans,
                report.cache.evictions,
                m.planner_runs,
                m.coalesced,
                m.shed,
                m.degraded,
                m.deadline_exceeded,
                m.worker_panics,
                m.worker_respawns,
                m.breaker_trips,
                m.slow_clients,
                m.shutting_down,
            ))
        }
        "chaos" => {
            let seed = flag_u64(opts, "seed", 42)?;
            let events = flag_usize(opts, "events", 12)?;
            let schedule = zeppelin_serve::ServeFaultSchedule::random(seed, events);
            schedule
                .validate()
                .map_err(|e| CliError::RunFailed(format!("chaos schedule: {e}")))?;
            let report = zeppelin_serve::run_chaos(&schedule)
                .map_err(|e| CliError::RunFailed(format!("chaos run: {e}")))?;
            let summary = report.summary();
            if report.passed() {
                Ok(format!("{summary}chaos invariant held (seed {seed})\n"))
            } else {
                Err(CliError::RunFailed(format!(
                    "{summary}chaos invariant VIOLATED (seed {seed})"
                )))
            }
        }
        "client" => {
            let port = flag_usize(opts, "port", 7077)?;
            let host = opts.flags.get("host").map_or("127.0.0.1", |s| s);
            let addr = format!("{host}:{port}");
            let op = opts.flags.get("op").map_or("plan", |s| s);
            let req = match op {
                "stats" => Request::Stats,
                "shutdown" => Request::Shutdown,
                "plan" => {
                    let nodes = match opts.flags.get("nodes") {
                        None => None,
                        Some(_) => Some(flag_usize(opts, "nodes", 2)?),
                    };
                    let deadline_ms = match opts.flags.get("deadline-ms") {
                        None => None,
                        Some(_) => Some(flag_u64(opts, "deadline-ms", 0)?),
                    };
                    Request::Plan {
                        seqs: build_batch(opts)?.seqs,
                        method: opts.flags.get("method").cloned(),
                        model: opts.flags.get("model").cloned(),
                        cluster: opts.flags.get("cluster").cloned(),
                        nodes,
                        deadline_ms,
                    }
                }
                other => {
                    return Err(CliError::BadFlag {
                        flag: "op".into(),
                        value: other.into(),
                    })
                }
            };
            // Transport failures retry with jittered backoff; typed server
            // errors come back as response lines and are never retried.
            let client_cfg = zeppelin_serve::ClientConfig::with_timeout_ms(flag_u64(
                opts,
                "timeout-ms",
                30_000,
            )?)
            .retries(flag_u64(opts, "retries", 0)?.min(u32::MAX as u64) as u32);
            let line = zeppelin_serve::send_request_with(addr.as_str(), &req, &client_cfg)
                .map_err(|e| CliError::RunFailed(format!("{addr}: {e}")))?;
            Ok(format!("{line}\n"))
        }
        "explain" => {
            let (cluster, model, ctx) = build_ctx(opts)?;
            let batch = build_batch(opts)?;
            let scheduler = scheduler_by_name(opts.flags.get("method").map_or("zeppelin", |s| s))?;
            let plan = scheduler
                .plan(&batch, &ctx)
                .map_err(|e| CliError::RunFailed(e.to_string()))?;
            let a = zeppelin_core::analysis::try_analyze(&plan, &model, &cluster).map_err(|v| {
                CliError::RunFailed(format!(
                    "plan failed audit: {}",
                    zeppelin_core::validate::report(&v)
                ))
            })?;
            let mut out = format!(
                "{}: zones local/intra/inter = {}/{}/{}\nattention critical path {:.3} ms, imbalance {:.3}, cross-node KV {:.1} MB\n",
                plan.scheduler,
                a.zone_counts.0,
                a.zone_counts.1,
                a.zone_counts.2,
                a.attn_critical_secs * 1e3,
                a.attn_imbalance(),
                a.total_inter_bytes() / 1e6,
            );
            out.push_str("rank  attn_ms  peak_tokens  intra_MB  inter_MB\n");
            for (r, est) in a.ranks.iter().enumerate() {
                out.push_str(&format!(
                    "{:>4}  {:>7.3}  {:>11}  {:>8.1}  {:>8.1}\n",
                    r,
                    est.attn_secs * 1e3,
                    est.peak_tokens,
                    est.intra_sent_bytes / 1e6,
                    est.inter_sent_bytes / 1e6,
                ));
            }
            Ok(out)
        }
        "audit" => {
            let path = opts
                .flags
                .get("plan")
                .cloned()
                .or_else(|| opts.args.first().cloned())
                .ok_or_else(|| CliError::BadFlag {
                    flag: "plan".into(),
                    value: "(missing: audit <plan.json>)".into(),
                })?;
            let text = std::fs::read_to_string(&path)
                .map_err(|e| CliError::RunFailed(format!("reading {path}: {e}")))?;
            let plan =
                zeppelin_core::plan_io::plan_from_json(&text).map_err(|e| match e {
                    zeppelin_core::plan_io::PlanIoError::Invalid(v) => CliError::RunFailed(
                        format!("{path}: {} violation(s)\n{}", v.len(), violation_lines(&v)),
                    ),
                    other => CliError::RunFailed(format!("{path}: {other}")),
                })?;
            let (cluster, _, ctx) = build_ctx(opts)?;
            // Conservation needs the source workload; only audit it when
            // the caller names one explicitly (a sampled default would
            // flag every plan for an unrelated batch).
            let result = match parse_seqs(opts)? {
                Some(batch) => zeppelin_core::validate::validate_with_batch(&plan, &ctx, &batch),
                None => zeppelin_core::validate::validate(&plan, &ctx),
            };
            match result {
                Ok(()) => Ok(format!(
                    "{path}: clean ({} placement(s), {} micro-batch(es), {} tokens on {} of {})\n",
                    plan.placements.len(),
                    plan.micro_batches,
                    plan.total_tokens(),
                    plan.scheduler,
                    cluster.name,
                )),
                Err(v) => Err(CliError::RunFailed(format!(
                    "{path}: {} violation(s)\n{}",
                    v.len(),
                    violation_lines(&v)
                ))),
            }
        }
        "cluster" => {
            use zeppelin_cluster::policy::{ClusterPolicy, FairShare, Fifo, Srwf};
            use zeppelin_cluster::trace::{trace_from_json, JobTrace, MAX_TRACE_BYTES};
            use zeppelin_cluster::{run_cluster, ClusterConfig};

            let nodes = flag_usize(opts, "nodes", 16)?.max(2);
            let cluster = cluster_by_name(opts.flags.get("cluster").map_or("a", |s| s), nodes)?;
            let policy: &dyn ClusterPolicy = match opts.flags.get("policy").map_or("fair", |s| s) {
                "fifo" => &Fifo,
                "srwf" => &Srwf,
                "fair" | "fair-share" => &FairShare,
                other => {
                    return Err(CliError::BadFlag {
                        flag: "policy".into(),
                        value: other.into(),
                    })
                }
            };
            // The trace: an explicit JSON file wins; otherwise a seeded
            // generated one (`--skewed` for the fairness scenario).
            let trace = if let Some(path) = opts.flags.get("trace") {
                let meta = std::fs::metadata(path)
                    .map_err(|e| CliError::RunFailed(format!("reading {path}: {e}")))?;
                // Bounded read, same discipline as plan files: refuse
                // oversized inputs before touching their contents.
                if meta.len() > MAX_TRACE_BYTES {
                    return Err(CliError::RunFailed(format!(
                        "{path}: trace file is {} bytes, over the {MAX_TRACE_BYTES}-byte limit",
                        meta.len()
                    )));
                }
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::RunFailed(format!("reading {path}: {e}")))?;
                trace_from_json(&text).map_err(|e| CliError::RunFailed(format!("{path}: {e}")))?
            } else {
                let jobs = flag_usize(opts, "jobs", 24)?.max(1);
                let seed = flag_u64(opts, "seed", 42)?;
                if opts.flags.contains_key("skewed") {
                    JobTrace::skewed(seed, jobs, &cluster)
                } else {
                    JobTrace::random(seed, jobs, &cluster)
                }
            };
            let scheduler = scheduler_by_name(opts.flags.get("method").map_or("zeppelin", |s| s))?;
            let cfg = ClusterConfig {
                cluster,
                ..ClusterConfig::default()
            };
            let report = run_cluster(policy, scheduler.as_ref(), &trace, &cfg)
                .map_err(|e| CliError::RunFailed(e.to_string()))?;
            report
                .check()
                .map_err(|e| CliError::RunFailed(format!("inconsistent report: {e}")))?;
            if let Some(path) = opts.flags.get("out") {
                std::fs::write(path, format!("{}\n", report.to_json()))
                    .map_err(|e| CliError::RunFailed(format!("writing {path}: {e}")))?;
            }
            let mut out = format!(
                "{} on {} nodes ({}): {} jobs — {} completed, {} failed, {} rejected\n\
                 makespan {:.2}s, goodput {:.0} tok/s (throughput {:.0}), utilization {:.2}\n\
                 JCT p50/p99 {:.2}s/{:.2}s, queue p50/p99 {:.2}s/{:.2}s\n\
                 Jain fairness {:.4}, {} preemption(s), {} replan(s)\n",
                report.policy,
                report.nodes,
                report.scheduler,
                report.outcomes.len(),
                report.completed,
                report.failed,
                report.rejected,
                report.makespan.as_secs_f64(),
                report.goodput,
                report.throughput,
                report.utilization,
                report.jct_p50.as_secs_f64(),
                report.jct_p99.as_secs_f64(),
                report.queue_p50.as_secs_f64(),
                report.queue_p99.as_secs_f64(),
                report.fairness,
                report.preemptions,
                report.replans,
            );
            for t in &report.tenants {
                out.push_str(&format!(
                    "  {:<8} {:>3} job(s), {:>3} completed, mean JCT {:>7.2}s, efficiency {:.2}\n",
                    t.tenant, t.jobs, t.completed, t.mean_jct_s, t.mean_efficiency
                ));
            }
            if opts.flags.contains_key("out") {
                out.push_str(&format!("wrote report to {}\n", opts.flags["out"]));
            }
            Ok(out)
        }
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// One violation per line, indented, for audit reports.
fn violation_lines(violations: &[zeppelin_core::validate::PlanViolation]) -> String {
    violations
        .iter()
        .map(|v| format!("  - {v}\n"))
        .collect::<String>()
}

/// Usage text.
pub fn usage() -> String {
    "zeppelin-cli <command> [flags]\n\
     commands:\n\
       clusters                         list cluster presets\n\
       models                           list model presets\n\
       zones    [--model M --cluster C --nodes N]\n\
       plan     [--method S --seqs 3000,500 | --dataset D --tokens T] [--out plan.json]\n\
       step     [--method S ... --trace out.json | --plan plan.json]\n\
       compare  [... same workload flags]\n\
       explain  [... same workload flags]  static per-rank cost analysis\n\
       audit    <plan.json> [--seqs L,...]  validate a plan file, report violations\n\
       run      [--steps N --json out.json] multi-step training run\n\
       faults   [--crash-node N --crash-at-ms T --steps N] recovery-policy table\n\
       serve    [--port P --workers W --queue Q --cache N] online planning server\n\
                [--cache-shards S --max-conns M]\n\
                [--grace-ms G --frame-timeout-ms F --idle-timeout-ms I]\n\
                [--highwater-ms H --degraded-method S --breaker-failures N --breaker-cooldown-ms C]\n\
       client   [--port P --op plan|stats|shutdown ... workload flags] one request\n\
                [--deadline-ms D --timeout-ms T --retries R]\n\
       chaos    [--seed S --events N] seeded fault storm against a loopback server\n\
       cluster  [--jobs N --seed S --policy fifo|srwf|fair --skewed | --trace t.json]\n\
                [--nodes N --out report.json] multi-job cluster simulation\n\
     flags:\n\
       --model    3b|7b|13b|30b|moe        (default 3b)\n\
       --cluster  a|b|c|mixed              (default a)\n\
       --nodes    N                        (default 2)\n\
       --method   zeppelin|te|llama|hybrid|packing|ulysses|double-ring\n\
       --dataset  arxiv|github|prolong64k|stackexchange|openwebmath|fineweb\n\
       --tokens   total batch tokens       (default 65536)\n\
       --seqs     comma-separated lengths  (overrides --dataset)\n\
       --seqs-file path with one length per line (trace replay)\n\
       --seed     sampling seed            (default 42)\n\
       --trace    write Chrome trace JSON  (step only)\n\
       --host/--port serving address        (default 127.0.0.1:7077)\n\
       --op       plan|stats|shutdown      (client only, default plan)\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Options {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parser_splits_command_and_flags() {
        let o = opts(&["plan", "--model", "7b", "--seqs", "100,200", "--quiet"]);
        assert_eq!(o.command, "plan");
        assert_eq!(o.flags["model"], "7b");
        assert_eq!(o.flags["seqs"], "100,200");
        assert_eq!(o.flags["quiet"], "");
        // Positionals after the command are kept in order.
        let o = opts(&["audit", "plan.json", "--nodes", "2"]);
        assert_eq!(o.command, "audit");
        assert_eq!(o.args, vec!["plan.json".to_string()]);
    }

    #[test]
    fn unknown_command_errors() {
        let Err(e) = run(&opts(&["frobnicate"])) else {
            panic!("expected UnknownCommand");
        };
        assert!(matches!(e, CliError::UnknownCommand(_)));
        assert!(e.to_string().contains("compare"));
    }

    #[test]
    fn clusters_and_models_render() -> Result<(), CliError> {
        let c = run(&opts(&["clusters"]))?;
        assert!(c.contains("A800") && c.contains("H200"));
        let m = run(&opts(&["models"]))?;
        assert!(m.contains("LLaMA-7B") && m.contains("MoE"));
        Ok(())
    }

    #[test]
    fn zones_command_reports_thresholds() -> Result<(), CliError> {
        let out = run(&opts(&["zones", "--model", "7b"]))?;
        assert!(out.contains("local"));
        assert!(out.contains("intra-node"));
        Ok(())
    }

    #[test]
    fn plan_with_explicit_seqs() -> Result<(), CliError> {
        let out = run(&opts(&["plan", "--seqs", "30000,2000,500"]))?;
        assert!(out.contains("3 sequences"));
        assert!(out.contains("32500 tokens"));
        Ok(())
    }

    #[test]
    fn step_and_compare_run() -> Result<(), CliError> {
        let out = run(&opts(&["step", "--seqs", "8000,4000", "--method", "te"]))?;
        assert!(out.contains("tokens/s"));
        let out = run(&opts(&["compare", "--tokens", "16384", "--nodes", "1"]))?;
        assert!(out.contains("Zeppelin"));
        assert!(out.contains("TE CP"));
        Ok(())
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(matches!(
            run(&opts(&["zones", "--model", "70b"])),
            Err(CliError::BadFlag { .. })
        ));
        assert!(matches!(
            run(&opts(&["plan", "--seqs", "10,x"])),
            Err(CliError::BadFlag { .. })
        ));
        assert!(matches!(
            run(&opts(&["plan", "--seqs", "0"])),
            Err(CliError::BadFlag { .. })
        ));
        assert!(matches!(
            run(&opts(&["step", "--dataset", "wikipedia"])),
            Err(CliError::BadFlag { .. })
        ));
        assert!(matches!(
            run(&opts(&["step", "--nodes", "two"])),
            Err(CliError::BadFlag { .. })
        ));
        assert!(matches!(
            run(&opts(&["step", "--method", "zeppelin-het"])),
            Err(CliError::BadFlag { .. })
        ));
    }

    #[test]
    fn step_on_mixed_tiers_is_slower_than_on_cluster_b() -> Result<(), CliError> {
        // Cluster M is Cluster B with every third node an A800: the
        // executor must price its slow tier without any extra flag.
        let tput = |cluster: &str| -> Result<f64, CliError> {
            let out = run(&opts(&["step", "--cluster", cluster, "--nodes", "3"]))?;
            let open = out.find('(').expect("throughput in output");
            let close = out.find(" tokens/s").expect("throughput in output");
            Ok(out[open + 1..close].parse().expect("numeric throughput"))
        };
        let (mixed, b) = (tput("mixed")?, tput("b")?);
        assert!(mixed < b, "mixed {mixed} tok/s vs cluster b {b} tok/s");
        Ok(())
    }

    #[test]
    fn explain_reports_static_analysis() -> Result<(), CliError> {
        let out = run(&opts(&[
            "explain",
            "--seqs",
            "9000,2000,500",
            "--nodes",
            "1",
        ]))?;
        assert!(out.contains("zones local/intra/inter"));
        assert!(out.contains("attn_ms"));
        Ok(())
    }

    #[test]
    fn plan_json_round_trips_through_files() -> Result<(), Box<dyn std::error::Error>> {
        let dir = std::env::temp_dir().join("zeppelin-cli-test");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("plan.json");
        let path_s = path.to_string_lossy().to_string();
        run(&opts(&["plan", "--seqs", "9000,500", "--out", &path_s]))?;
        let out = run(&opts(&["step", "--plan", &path_s, "--seqs", "9000,500"]))?;
        assert!(out.contains("tokens/s"));
        std::fs::remove_file(&path).ok();
        Ok(())
    }

    #[test]
    fn audit_passes_real_plans_and_names_violations_in_hostile_ones(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let dir = std::env::temp_dir().join("zeppelin-cli-audit-test");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("plan.json");
        let path_s = path.to_string_lossy().to_string();
        run(&opts(&[
            "plan",
            "--seqs",
            "30000,9000,500",
            "--out",
            &path_s,
        ]))?;
        // Clean, both with and without the conservation batch.
        let out = run(&opts(&["audit", &path_s]))?;
        assert!(out.contains("clean"), "{out}");
        let out = run(&opts(&["audit", &path_s, "--seqs", "30000,9000,500"]))?;
        assert!(out.contains("clean"), "{out}");
        // A structural break is caught at parse time with a field-named
        // report...
        let text = std::fs::read_to_string(&path)?;
        let mut broken =
            zeppelin_core::plan_io::plan_from_json(&text).expect("written plan parses");
        broken.micro_batches = 0;
        let hostile = dir.join("hostile.json");
        let hostile_s = hostile.to_string_lossy().to_string();
        std::fs::write(&hostile, zeppelin_core::plan_io::plan_to_json(&broken))?;
        let Err(CliError::RunFailed(msg)) = run(&opts(&["audit", &hostile_s])) else {
            panic!("hostile plan must fail the audit");
        };
        assert!(msg.contains("violation") && msg.contains("micro"), "{msg}");
        // ...and step --plan refuses the same file instead of panicking.
        let Err(CliError::RunFailed(msg)) = run(&opts(&[
            "step",
            "--plan",
            &hostile_s,
            "--seqs",
            "30000,9000,500",
        ])) else {
            panic!("step --plan must reject a hostile plan");
        };
        assert!(msg.contains("invalid plan"), "{msg}");
        // An out-of-range rank parses fine but fails the cluster audit.
        let mut oob_plan = zeppelin_core::plan_io::plan_from_json(&text).expect("plan parses");
        oob_plan.placements[0].ranks[0] = 999;
        let oob = dir.join("oob.json");
        let oob_s = oob.to_string_lossy().to_string();
        std::fs::write(&oob, zeppelin_core::plan_io::plan_to_json(&oob_plan))?;
        let Err(CliError::RunFailed(msg)) = run(&opts(&["audit", &oob_s])) else {
            panic!("out-of-range rank must fail the audit");
        };
        assert!(msg.contains("rank 999"), "{msg}");
        // Missing operand is a flag error, not a panic.
        assert!(matches!(
            run(&opts(&["audit"])),
            Err(CliError::BadFlag { .. })
        ));
        for p in [&path, &hostile, &oob] {
            std::fs::remove_file(p).ok();
        }
        Ok(())
    }

    #[test]
    fn audit_reports_hostile_nesting_instead_of_overflowing(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let dir = std::env::temp_dir().join("zeppelin-cli-nesting-test");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("deep.json");
        let path_s = path.to_string_lossy().to_string();
        std::fs::write(&path, "[".repeat(1_000_000))?;
        let Err(CliError::RunFailed(msg)) = run(&opts(&["audit", &path_s])) else {
            panic!("a million open brackets must fail the audit");
        };
        assert!(msg.contains("nests deeper than 128 levels"), "{msg}");
        std::fs::remove_file(&path).ok();
        Ok(())
    }

    #[test]
    fn run_command_aggregates_and_exports_json() -> Result<(), Box<dyn std::error::Error>> {
        let out = run(&opts(&[
            "run", "--steps", "2", "--tokens", "16384", "--nodes", "1",
        ]))?;
        assert!(out.contains("2 steps"));
        assert!(out.contains("tokens/s"));
        let dir = std::env::temp_dir().join("zeppelin-cli-test");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("run.json");
        let path_s = path.to_string_lossy().to_string();
        run(&opts(&[
            "run", "--steps", "2", "--tokens", "16384", "--nodes", "1", "--json", &path_s,
        ]))?;
        let text = std::fs::read_to_string(&path)?;
        assert!(zeppelin_exec::report::looks_like_json(&text));
        std::fs::remove_file(&path).ok();
        Ok(())
    }

    #[test]
    fn faults_command_prints_a_recovery_table() -> Result<(), CliError> {
        let out = run(&opts(&[
            "faults",
            "--steps",
            "3",
            "--tokens",
            "16384",
            "--crash-at-ms",
            "200",
        ]))?;
        assert!(out.contains("fail-stop"));
        assert!(out.contains("replan-survivors"));
        assert!(out.contains("goodput"));
        // Fail-stop aborts while replanning completes on the survivors.
        assert!(out.contains("fail-stop") && out.contains("error: rank"));
        assert!(out.contains("completed"));
        assert!(matches!(
            run(&opts(&["faults", "--crash-node", "9"])),
            Err(CliError::BadFlag { .. })
        ));
        Ok(())
    }

    #[test]
    fn client_rejects_unknown_ops_and_dead_servers() {
        assert!(matches!(
            run(&opts(&["client", "--op", "fly"])),
            Err(CliError::BadFlag { .. })
        ));
        // Nothing listens on this port of the discard range.
        let err = run(&opts(&["client", "--op", "stats", "--port", "9"]));
        assert!(matches!(err, Err(CliError::RunFailed(_))));
    }

    #[test]
    fn serve_rejects_bad_defaults_before_binding() {
        assert!(matches!(
            run(&opts(&["serve", "--method", "mesh"])),
            Err(CliError::BadFlag { .. })
        ));
        assert!(matches!(
            run(&opts(&["serve", "--port", "many"])),
            Err(CliError::BadFlag { .. })
        ));
    }

    #[test]
    fn cluster_command_runs_and_round_trips_trace_files() -> Result<(), Box<dyn std::error::Error>>
    {
        // Small generated trace end-to-end, with a report file.
        let dir = std::env::temp_dir().join("zeppelin-cli-cluster-test");
        std::fs::create_dir_all(&dir)?;
        let report = dir.join("report.json");
        let report_s = report.to_string_lossy().to_string();
        let out = run(&opts(&[
            "cluster", "--nodes", "3", "--jobs", "5", "--seed", "7", "--policy", "fifo", "--out",
            &report_s,
        ]))?;
        assert!(out.contains("fifo on 3 nodes"), "{out}");
        assert!(out.contains("Jain fairness"), "{out}");
        let text = std::fs::read_to_string(&report)?;
        assert!(text.contains("\"fairness\""), "{text}");

        // An explicit trace file drives the run instead of the generator.
        let trace =
            zeppelin_cluster::trace::JobTrace::random(7, 4, &zeppelin_sim::topology::cluster_a(3));
        let tpath = dir.join("trace.json");
        let tpath_s = tpath.to_string_lossy().to_string();
        std::fs::write(&tpath, zeppelin_cluster::trace::trace_to_json(&trace))?;
        let out = run(&opts(&["cluster", "--nodes", "3", "--trace", &tpath_s]))?;
        assert!(out.contains("4 jobs"), "{out}");

        // Malformed trace files fail with a typed, file-named error.
        let bad = dir.join("bad.json");
        let bad_s = bad.to_string_lossy().to_string();
        std::fs::write(&bad, "{\"jobs\": [{\"id\": true}]}")?;
        let Err(CliError::RunFailed(msg)) = run(&opts(&["cluster", "--trace", &bad_s])) else {
            panic!("malformed trace must fail");
        };
        assert!(msg.contains("bad.json"), "{msg}");
        for p in [&report, &tpath, &bad] {
            std::fs::remove_file(p).ok();
        }
        Ok(())
    }

    #[test]
    fn cluster_command_rejects_bad_flags() {
        assert!(matches!(
            run(&opts(&["cluster", "--policy", "lottery"])),
            Err(CliError::BadFlag { .. })
        ));
        assert!(matches!(
            run(&opts(&["cluster", "--trace", "/nonexistent/trace.json"])),
            Err(CliError::RunFailed(_))
        ));
    }

    #[test]
    fn usage_mentions_every_command() {
        let u = usage();
        for c in COMMANDS {
            assert!(u.contains(c), "usage missing {c}");
        }
    }
}
