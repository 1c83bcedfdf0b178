//! The paper runner. Figs. 8–11 are one declarative cell list run by one
//! loop; the renderers print each figure's tables from the results, and
//! [`to_json`] pins every cell, plus Fig. 12's and Table 3's simulated
//! numbers, in `BENCH_paper.json`.

use std::collections::BTreeMap;
use std::fmt::{Debug, Display, Write as _};

use zeppelin_baselines::te_cp::TeCp;
use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
use zeppelin_core::zeppelin::{Zeppelin, ZeppelinConfig};
use zeppelin_data::batch::{balanced_batch, skewed_batch, Batch};
use zeppelin_data::datasets::{arxiv, paper_datasets};
use zeppelin_data::distribution::LengthDistribution;
use zeppelin_exec::step::{simulate_step, PhaseBreakdown, StepConfig, StepReport};
use zeppelin_exec::tp::{fold_tp, tp_linear_overhead_per_token};
use zeppelin_exec::trainer::RunConfig;
use zeppelin_model::config::{llama_13b, llama_30b, llama_3b, llama_7b, moe_8x550m, ModelConfig};
use zeppelin_sim::time::SimDuration;
use zeppelin_sim::topology::{cluster_c, ClusterSpec};
use zeppelin_sim::trace::{Trace, TraceCategory, TraceEvent};

use crate::harness::{methods, paper_testbed, run_method, ClusterKind, Method, PAPER_SEED};
use crate::table::{fmt_speedup, fmt_tput, Table};

/// Tokens per physical GPU in every throughput figure.
const TOKENS_PER_GPU: u64 = 4096;

/// A throughput figure of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// End-to-end throughput: four model settings × datasets × context.
    Fig8,
    /// Scalability of LLaMA 3B on Cluster A, 16–128 GPUs.
    Fig9,
    /// The same 3B workload on Clusters A and B.
    Fig10,
    /// Component ablation, 3B on 32 GPUs of Cluster A.
    Fig11,
}

impl Figure {
    /// The figure's binary name, also its key in `BENCH_paper.json`.
    pub fn id(self) -> String {
        format!("{self:?}").to_lowercase()
    }
}

/// The methods a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Roster {
    /// [`methods`]: the three baselines, then full Zeppelin.
    Methods,
    /// Fig. 11's five variants, from TE CP to full Zeppelin.
    Ablation,
}

impl Roster {
    /// Labelled methods. The first is TE CP and the last full Zeppelin.
    pub fn entries(self) -> Vec<(&'static str, Method)> {
        let zeppelin = |routing, remapping| Method::Zeppelin(ZeppelinConfig { routing, remapping });
        match self {
            Roster::Methods => methods().into_iter().map(|m| (m.name(), m)).collect(),
            Roster::Ablation => vec![
                ("TE CP", Method::TeCp),
                ("TE CP + Routing", Method::TeCpRouting),
                ("Engine only", zeppelin(false, false)),
                ("Engine + Routing", zeppelin(true, false)),
                ("Full Zeppelin", zeppelin(true, true)),
            ],
        }
    }
}

/// One experimental point: a roster run on one model, cluster and dataset.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The figure the cell belongs to.
    pub figure: Figure,
    /// The table the cell is printed in.
    pub section: String,
    /// Unique within (figure, section).
    pub row: String,
    /// The model trained.
    pub model: ModelConfig,
    /// The cluster preset.
    pub cluster: ClusterKind,
    /// Physical nodes.
    pub nodes: usize,
    /// Tensor-parallel degree folded into each logical worker.
    pub tp: usize,
    /// The dataset batches are sampled from.
    pub dataset: LengthDistribution,
    /// Total context tokens per step.
    pub tokens_per_step: u64,
    /// Sampled steps per method.
    pub steps: usize,
    /// The methods run.
    pub roster: Roster,
}

impl Cell {
    fn new(
        figure: Figure,
        section: &str,
        row: String,
        model: &ModelConfig,
        cluster: ClusterKind,
        nodes: usize,
        dataset: &LengthDistribution,
    ) -> Cell {
        let (steps, roster) = match figure {
            Figure::Fig8 | Figure::Fig10 => (5, Roster::Methods),
            Figure::Fig9 => (4, Roster::Methods),
            Figure::Fig11 => (6, Roster::Ablation),
        };
        Cell {
            figure,
            section: section.to_string(),
            row,
            model: model.clone(),
            cluster,
            nodes,
            tp: 1,
            dataset: dataset.clone(),
            tokens_per_step: TOKENS_PER_GPU * 8 * nodes as u64,
            steps,
            roster,
        }
    }
}

/// Every cell of Figs. 8–11, in print order.
pub fn cells() -> Vec<Cell> {
    use ClusterKind::{A, B, C};
    use Figure::{Fig10, Fig11, Fig8, Fig9};
    let (datasets, m3) = (paper_datasets(), llama_3b());
    let mut cells = Vec::new();
    for (model, cluster, tp) in [
        (llama_7b(), A, 1),
        (llama_13b(), A, 2),
        (llama_30b(), C, 2),
        (moe_8x550m(), C, 1),
    ] {
        let section = format!("{} on {} (tp={tp})", model.name, cluster.label());
        for d in &datasets {
            for nodes in [2, 4, 8] {
                let row = format!("{} {}k", d.name, TOKENS_PER_GPU * 8 * nodes as u64 / 1024);
                let cell = Cell::new(Fig8, &section, row, &model, cluster, nodes, d);
                cells.push(Cell { tp, ..cell });
            }
        }
    }
    for d in &datasets {
        for gpus in [16, 32, 64, 128] {
            let cell = Cell::new(Fig9, &d.name, format!("{gpus} GPUs"), &m3, A, gpus / 8, d);
            cells.push(cell);
        }
    }
    for kind in [A, B] {
        for d in &datasets {
            let cell = Cell::new(Fig10, kind.label(), d.name.clone(), &m3, kind, 4, d);
            cells.push(cell);
        }
    }
    for d in &datasets {
        let cell = Cell::new(Fig11, "ablation", d.name.clone(), &m3, A, 4, d);
        cells.push(cell);
    }
    cells
}

/// A cell's measured throughputs.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell run.
    pub cell: Cell,
    /// Mean tokens/s per roster entry; `None` where it ran out of memory.
    pub throughput: Vec<Option<f64>>,
}

impl CellResult {
    /// Full Zeppelin (the roster's last entry) over TE CP (its first).
    pub fn speedup(&self) -> Option<f64> {
        let (te, zeppelin) = (self.throughput[0]?, (*self.throughput.last()?)?);
        Some(zeppelin / te)
    }
}

/// Runs every method of every cell through [`run_method`].
pub fn run(cells: Vec<Cell>) -> Vec<CellResult> {
    let run_cell = |cell: Cell| {
        let physical = cell.cluster.build(cell.nodes);
        let cluster = fold_tp(&physical, cell.tp).expect("tp folds");
        let mut cfg = RunConfig::default();
        (cfg.steps, cfg.tokens_per_step, cfg.seed) = (cell.steps, cell.tokens_per_step, PAPER_SEED);
        cfg.step.exec.tp_overhead_per_token =
            tp_linear_overhead_per_token(&cell.model, cell.tp, physical.node.gpu.nvlink_bw);
        let tput = |(_, m): &(&str, Method)| {
            let report = run_method(m, &cell.dataset, &cluster, &cell.model, &cfg);
            report.map(|r| r.mean_throughput)
        };
        let throughput = cell.roster.entries().iter().map(tput).collect();
        CellResult { cell, throughput }
    };
    cells.into_iter().map(run_cell).collect()
}

/// Runs one figure's cells and prints its tables.
pub fn print_figure(figure: Figure) {
    let cells = cells().into_iter().filter(|c| c.figure == figure).collect();
    print!("{}", render(figure, &run(cells)));
}

/// The leading (header, value) columns of a cell's row in its figure's
/// throughput table.
fn row_labels(c: &Cell) -> Vec<(&'static str, String)> {
    let dataset = ("dataset", c.dataset.name.clone());
    let context = ("context", format!("{}k", c.tokens_per_step / 1024));
    match c.figure {
        Figure::Fig8 => vec![dataset, context],
        Figure::Fig9 => vec![("GPUs", format!("{}", c.nodes * 8))],
        Figure::Fig10 | Figure::Fig11 => vec![dataset],
    }
}

/// One section's table: the row labels, one throughput column per roster
/// entry, and Zeppelin's speedup over TE CP.
fn throughput_table(rs: &[&CellResult]) -> Table {
    let (labels, entries) = (row_labels(&rs[0].cell), rs[0].cell.roster.entries());
    let mut header: Vec<&str> = labels.iter().map(|(h, _)| *h).collect();
    header.extend(entries.iter().map(|(name, _)| *name).chain(["speedup"]));
    let mut table = Table::new(header);
    for r in rs {
        let mut row: Vec<String> = row_labels(&r.cell).into_iter().map(|(_, v)| v).collect();
        row.extend(r.throughput.iter().map(|t| fmt_tput(*t)));
        row.push(fmt_speedup(*r.throughput.last().unwrap(), r.throughput[0]));
        table.row(row);
    }
    table
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Prints one figure's tables and summary lines from its results.
pub fn render(figure: Figure, results: &[CellResult]) -> String {
    let results: Vec<&CellResult> = results.iter().filter(|r| r.cell.figure == figure).collect();
    let sections = Vec::from_iter(results.chunk_by(|a, b| a.cell.section == b.cell.section));
    let Some(first) = results.first().map(|r| &r.cell) else {
        return String::new();
    };
    let (steps, nodes, mut out) = (first.steps, first.nodes, String::new());
    macro_rules! w {
        ($($arg:tt)*) => { writeln!(out, $($arg)*).unwrap() };
    }
    let title = match figure {
        Figure::Fig8 => "Fig. 8 — end-to-end training throughput (tokens/s)".to_string(),
        Figure::Fig9 => "Fig. 9 — scalability, LLaMA 3B on Cluster A (4k tokens/GPU)".to_string(),
        Figure::Fig10 => format!("Fig. 10 — Cluster A vs Cluster B, LLaMA 3B, {nodes} nodes"),
        Figure::Fig11 => "Fig. 11 — ablation, LLaMA 3B on 32 GPUs (Cluster A)".to_string(),
    };
    let (prefix, unit) = match figure {
        Figure::Fig8 => ("4k tokens per physical GPU; ", "cell"),
        Figure::Fig9 => ("", "point"),
        Figure::Fig10 | Figure::Fig11 => ("", "cell"),
    };
    w!("{title}\n({prefix}{steps} sampled steps per {unit})\n");
    if figure == Figure::Fig11 {
        // Transposed: one row per variant, one column per dataset.
        let datasets = results.iter().map(|r| r.cell.dataset.name.as_str());
        let mut table = Table::new(["variant"].into_iter().chain(datasets).collect());
        for (i, (name, _)) in first.roster.entries().iter().enumerate() {
            let mut row = vec![name.to_string()];
            for r in &results {
                let (t, te) = (r.throughput[i], r.throughput[0]);
                row.push(format!("{} ({})", fmt_tput(t), fmt_speedup(t, te)));
            }
            table.row(row);
        }
        w!("{}", table.render());
        w!("(paper: routing alone ~1.6x; engine up to 3.2x on ArXiv;");
        w!(" remapping lifts ArXiv 3.51x -> 3.64x, negligible on GitHub)");
        return out;
    }
    let mut speedups: Vec<Vec<f64>> = Vec::new();
    for rs in &sections {
        speedups.push(rs.iter().filter_map(|r| r.speedup()).collect());
        let avg = mean(speedups.last().unwrap());
        let note = match figure {
            Figure::Fig10 => format!(" (avg Zeppelin speedup {avg:.2}x)"),
            _ => String::new(),
        };
        let section = &rs[0].cell.section;
        w!("{section}{note}:\n{}", throughput_table(rs).render());
    }
    if figure == Figure::Fig8 {
        let all = speedups.concat();
        let max = all.iter().cloned().fold(0.0f64, f64::max);
        let (n, avg) = (all.len(), mean(&all));
        w!("Zeppelin vs TE CP over {n} cells: average {avg:.2}x, max {max:.2}x");
        w!("(paper reports average 2.80x, up to 6.60x)");
    }
    if figure == Figure::Fig10 {
        let (a, b) = (&sections[0][0].cell.section, &sections[1][0].cell.section);
        let (a_avg, b_avg) = (mean(&speedups[0]), mean(&speedups[1]));
        w!("avg Zeppelin speedup: {a_avg:.2}x on {a} vs {b_avg:.2}x on {b}");
        w!(
            "KNOWN DEVIATION: the paper measures the larger *relative* speedup on\n\
            Cluster A; here it is larger on Cluster B. The cause is open. It is\n\
            not kernel calibration: with the attention kernel's efficiency swept\n\
            from 50% down to the paper's ~8% of peak, B's speedup stays larger\n\
            and TE CP's throughput does not move. The leading hypothesis is TE\n\
            CP's ring overlap: the paper's Fig. 12 per-round costs add up (comm\n\
            plus compute), so its TE CP does not hide ring communication under\n\
            compute, while this simulator's lowering overlaps the two. See\n\
            EXPERIMENTS.md."
        );
    }
    out
}

/// Trace file stems of Fig. 12's three executions on the two-node Cluster
/// A testbed: TE CP and Zeppelin on one 64k sequence, then Zeppelin on a
/// 14-sequence 64k batch.
pub const FIG12_RUNS: [&str; 3] = ["te_cp_single", "zeppelin_single", "zeppelin_multi"];

/// The simulated [`FIG12_RUNS`].
pub struct Fig12 {
    /// The testbed.
    pub cluster: ClusterSpec,
    /// One report per [`FIG12_RUNS`] entry.
    pub runs: [StepReport; 3],
}

impl Fig12 {
    /// Simulates the three executions.
    pub fn simulate() -> Fig12 {
        let (cluster, _, ctx) = paper_testbed();
        let cfg = StepConfig::default();
        let single = Batch::new(vec![65_536]);
        let multi = Batch::new(vec![
            12_000, 9_000, 8_000, 7_000, 6_000, 5_000, 4_500, 4_000, 3_000, 2_500, 2_000, 1_500,
            1_000, 36,
        ]);
        assert_eq!(multi.total_tokens(), 65_536);
        let (te, zep) = (TeCp::new(), Zeppelin::new());
        let runs: [(&dyn Scheduler, &Batch); 3] = [(&te, &single), (&zep, &single), (&zep, &multi)];
        let runs = runs.map(|(s, b)| simulate_step(s, b, &ctx, &cfg).expect("fig12 step"));
        Fig12 { cluster, runs }
    }

    /// Count, mean and max duration in µs of a trace's events in
    /// `category`, filtered on whether the label's `src->dst` edge crosses
    /// nodes.
    pub fn comm_stats(
        &self,
        trace: &Trace,
        category: TraceCategory,
        cross_node: Option<bool>,
    ) -> Option<(usize, f64, f64)> {
        let crosses = |e: &TraceEvent| e.label.edge().map(|(s, d)| !self.cluster.same_node(s, d));
        let durations: Vec<f64> = (trace.events().iter())
            .filter(|e| e.category == category && cross_node.is_none_or(|c| crosses(e) == Some(c)))
            .map(|e| e.duration().as_micros_f64())
            .collect();
        let max = durations.iter().cloned().fold(0.0f64, f64::max);
        (!durations.is_empty()).then(|| (durations.len(), mean(&durations), max))
    }

    /// The paper's per-round comparison, µs: TE CP's mean direct cross-node
    /// ring hop, routed Zeppelin's mean inter-node stage, and its round. A
    /// routed round pipelines `routing_pipeline` chunks per NIC lane, so it
    /// spans roughly chunk duration × chunks.
    pub fn hops_us(&self) -> (f64, f64, f64) {
        let mean_us = |run: usize, category, cross| {
            let stats = self.comm_stats(&self.runs[run].trace_forward, category, cross);
            stats.map_or(0.0, |(_, mean, _)| mean)
        };
        let direct = mean_us(0, TraceCategory::RingComm, Some(true));
        let routed = mean_us(1, TraceCategory::InterNode, None);
        let round = routed * StepConfig::default().exec.routing_pipeline as f64;
        (direct, routed, round)
    }
}

/// Placements per zone.
pub fn zone_counts(report: &StepReport) -> BTreeMap<String, usize> {
    let mut zones = BTreeMap::new();
    for p in &report.plan.placements {
        *zones.entry(format!("{:?}", p.zone)).or_insert(0) += 1;
    }
    zones
}

/// The paper's §5.4.1 "bubbles": forward compute-stream gaps over 50 µs,
/// summed across ranks.
pub fn compute_bubbles(report: &StepReport) -> SimDuration {
    (report.trace_forward).total_bubble_time(SimDuration::from_micros(50))
}

/// Table 3: full Zeppelin on 7B, 4 nodes of Cluster C, a balanced and a
/// skewed 128k batch.
pub struct Table3 {
    /// Model layers, the factor from per-layer to whole-model times.
    pub layers: u64,
    /// (batch, sequences, report) for the balanced then the skewed batch.
    pub runs: [(&'static str, usize, StepReport); 2],
}

impl Table3 {
    /// Names of the simulated-time rows, in [`Table3::ranges`] order.
    pub const ROWS: [&'static str; 5] = [
        "Forward",
        "Forward Quadratic Attention",
        "Forward Linear Modules",
        "Forward Remapping Layer",
        "Backward",
    ];

    /// Simulates both batches.
    pub fn simulate() -> Table3 {
        const TOTAL: u64 = 131_072;
        let model = llama_7b();
        let ctx = SchedulerCtx::new(&cluster_c(4), &model);
        let cfg = StepConfig::default();
        let step = |b: &Batch| simulate_step(&Zeppelin::new(), b, &ctx, &cfg).expect("table3 step");
        let (balanced, skewed) = (balanced_batch(&arxiv(), TOTAL), skewed_batch(TOTAL, 0.7));
        let balanced = ("balanced", balanced.len(), step(&balanced));
        let runs = [balanced, ("skewed", skewed.len(), step(&skewed))];
        let layers = model.layers as u64;
        Table3 { layers, runs }
    }

    /// Whole-model (min, max) ms across ranks for each of [`Table3::ROWS`].
    pub fn ranges(&self, report: &StepReport) -> [(f64, f64); 5] {
        let range = |v: &[SimDuration]| {
            let ((min, max), layers) = (PhaseBreakdown::range(v), self.layers as f64);
            (min.as_millis_f64() * layers, max.as_millis_f64() * layers)
        };
        let elapsed = |trace: &Trace| {
            let ranks = 0..report.forward_phase.attention.len();
            let span = |evs: Vec<&TraceEvent>| match evs.first() {
                Some(first) => evs.iter().map(|e| e.end).max().unwrap().since(first.start),
                None => SimDuration::ZERO,
            };
            let spans: Vec<SimDuration> = ranks.map(|r| span(trace.rank_timeline(r))).collect();
            range(&spans)
        };
        let phase = &report.forward_phase;
        [
            elapsed(&report.trace_forward),
            range(&phase.attention),
            range(&phase.linear),
            range(&phase.remap),
            elapsed(&report.trace_backward),
        ]
    }
}

/// `{"key": value, ...}` over already-encoded values.
fn object<K: Debug, V: Display>(entries: impl IntoIterator<Item = (K, V)>) -> String {
    let entries: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("{k:?}: {v}"))
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// `BENCH_paper.json`: one line per cell with its inputs, each method's
/// throughput (`null` for out of memory) and Zeppelin's speedup over TE
/// CP; then Fig. 12's and Table 3's simulated numbers. Host-dependent
/// values (wall times, paths, CPU count) are left out, so every run of the
/// same source writes the same bytes.
pub fn to_json(results: &[CellResult], fig12: &Fig12, table3: &Table3) -> String {
    let num = |v: Option<f64>, digits| v.map_or("null".into(), |v| format!("{v:.digits$}"));
    let cells = results.iter().map(|r| {
        let c = &r.cell;
        let names = c.roster.entries().into_iter().map(|(name, _)| name);
        let tputs = names.zip(r.throughput.iter().map(|t| num(*t, 3)));
        object([
            ("figure", format!("{:?}", c.figure.id())),
            ("section", format!("{:?}", c.section)),
            ("row", format!("{:?}", c.row)),
            ("model", format!("{:?}", c.model.name)),
            ("cluster", format!("{:?}", c.cluster.label())),
            ("nodes", c.nodes.to_string()),
            ("tp", c.tp.to_string()),
            ("dataset", format!("{:?}", c.dataset.name)),
            ("tokens_per_step", c.tokens_per_step.to_string()),
            ("steps", c.steps.to_string()),
            ("throughput", object(tputs)),
            ("speedup", num(r.speedup(), 6)),
        ])
    });
    let runs = fig12.runs.iter().zip(FIG12_RUNS).map(|(report, stem)| {
        let bubbles = compute_bubbles(report).as_micros_f64();
        let layer = report.layer_forward.saturating_add(report.layer_backward);
        object([
            ("run", format!("{stem:?}")),
            ("zones", object(zone_counts(report))),
            ("compute_bubbles_us", format!("{bubbles:.3}")),
            ("layer_fwd_bwd_us", format!("{:.3}", layer.as_micros_f64())),
        ])
    });
    let batches = table3.runs.iter().map(|(batch, sequences, report)| {
        let ranges = table3
            .ranges(report)
            .map(|(lo, hi)| format!("[{lo:.3}, {hi:.3}]"));
        let ranges = object(Table3::ROWS.into_iter().zip(ranges));
        let fields = object([("sequences", sequences.to_string()), ("ranges_ms", ranges)]);
        format!("{batch:?}: {fields}")
    });
    let list = |items: Vec<String>, indent: &str| items.join(&format!(",\n{indent}"));
    let cells = list(cells.collect(), "    ");
    let runs = list(runs.collect(), "      ");
    let batches = list(batches.collect(), "    ");
    let (direct, routed, round) = fig12.hops_us();
    format!(
        "{{\n  \"exhibit\": \"paper\",\n  \"seed\": {PAPER_SEED},\n  \"cells\": [\n    {cells}\n  \
         ],\n  \"fig12\": {{\n    \"direct_hop_mean_us\": {direct:.3},\n    \
         \"routed_stage_mean_us\": {routed:.3},\n    \"routed_round_us\": {round:.3},\n    \
         \"runs\": [\n      {runs}\n    ]\n  }},\n  \"table3\": {{\n    {batches}\n  }}\n}}\n"
    )
}
