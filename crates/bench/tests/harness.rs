//! Smoke tests of the bench harness: every exhibit's plumbing must run on
//! a miniature configuration, so the figure binaries cannot rot silently,
//! and the paper runner's cell list must cover each figure exactly once.

use std::collections::HashSet;

use zeppelin_bench::harness::{methods, run_method, ClusterKind, Method, PAPER_SEED};
use zeppelin_bench::paper::{self, Cell, Fig12, Figure, Table3};
use zeppelin_bench::table::Table;
use zeppelin_core::plan_io::parse_json;
use zeppelin_core::zeppelin::ZeppelinConfig;
use zeppelin_data::datasets::paper_datasets;
use zeppelin_exec::trainer::RunConfig;
use zeppelin_exec::StepConfig;
use zeppelin_model::config::llama_3b;

fn mini_cfg() -> RunConfig {
    RunConfig {
        steps: 2,
        tokens_per_step: 32_768,
        seed: PAPER_SEED,
        step: StepConfig::default(),
    }
}

#[test]
fn every_method_runs_on_every_cluster_kind() {
    let model = llama_3b();
    let dist = &paper_datasets()[0];
    for kind in [ClusterKind::A, ClusterKind::B, ClusterKind::C] {
        let cluster = kind.build(1);
        for method in methods() {
            let out = run_method(&method, dist, &cluster, &model, &mini_cfg());
            let tput = out.map_or(0.0, |r| r.mean_throughput);
            assert!(tput > 0.0, "{} on {}", method.name(), kind.label());
        }
    }
}

#[test]
fn extended_methods_run_too() {
    let model = llama_3b();
    let cluster = ClusterKind::A.build(2);
    let dist = &paper_datasets()[1];
    for method in [
        Method::TeCpRouting,
        Method::Packing,
        Method::Zeppelin(ZeppelinConfig {
            routing: false,
            remapping: true,
        }),
    ] {
        let out = run_method(&method, dist, &cluster, &model, &mini_cfg());
        assert!(
            out.map_or(0.0, |r| r.mean_throughput) > 0.0,
            "{}",
            method.name()
        );
    }
}

#[test]
fn method_roster_matches_paper_baselines() {
    let names: Vec<&str> = methods().iter().map(|m| m.name()).collect();
    assert_eq!(names, vec!["TE CP", "LLaMA CP", "Hybrid DP", "Zeppelin"]);
}

#[test]
fn oom_points_surface_as_none_not_panic() {
    // 30B on a single tiny node cannot fit large batches with TE CP.
    let model = zeppelin_model::config::llama_30b();
    let cluster = ClusterKind::A.build(1);
    let mut cfg = mini_cfg();
    cfg.tokens_per_step = 1 << 22; // 4M tokens on 8 GPUs: hopeless.
    let out = run_method(&Method::TeCp, &paper_datasets()[0], &cluster, &model, &cfg);
    assert!(out.is_none());
}

#[test]
fn table_rendering_is_stable() {
    let mut t = Table::new(vec!["a", "bb"]);
    t.row(vec!["1", "2"]);
    let first = t.render();
    let second = t.render();
    assert_eq!(first, second);
    assert_eq!(first.lines().count(), 3);
}

#[test]
fn paper_cell_list_has_every_figure_point_once() {
    let cells = paper::cells();
    for (figure, count, roster) in [
        (Figure::Fig8, 36, 4),
        (Figure::Fig9, 12, 4),
        (Figure::Fig10, 6, 4),
        (Figure::Fig11, 3, 5),
    ] {
        let fig: Vec<_> = cells.iter().filter(|c| c.figure == figure).collect();
        assert_eq!(fig.len(), count, "{figure:?} cells");
        for c in fig {
            assert_eq!(c.roster.entries().len(), roster, "{figure:?} roster");
        }
    }
    let keys: HashSet<_> = cells
        .iter()
        .map(|c| (c.figure.id(), &c.section, &c.row))
        .collect();
    assert_eq!(
        keys.len(),
        cells.len(),
        "duplicate (figure, section, row) key"
    );
}

#[test]
fn paper_json_of_a_one_cell_run_parses() {
    let cell = paper::cells()
        .into_iter()
        .find(|c| c.figure == Figure::Fig11)
        .unwrap();
    let mini = Cell {
        nodes: 1,
        tokens_per_step: 32_768,
        steps: 2,
        ..cell
    };
    let results = paper::run(vec![mini]);
    let json = paper::to_json(&results, &Fig12::simulate(), &Table3::simulate());
    let doc = parse_json(&json).expect("BENCH_paper.json parses");
    let cells = doc.get("cells").and_then(|c| c.as_array()).unwrap();
    assert_eq!(cells.len(), 1);
    let tput = cells[0].get("throughput").unwrap();
    for name in ["TE CP", "Full Zeppelin"] {
        assert!(
            tput.get(name).and_then(|t| t.as_f64()).unwrap() > 0.0,
            "{name}"
        );
    }
    assert!(cells[0].get("speedup").and_then(|s| s.as_f64()).unwrap() > 0.0);
    let runs = doc.get("fig12").and_then(|f| f.get("runs")).unwrap();
    assert_eq!(runs.as_array().unwrap().len(), 3);
    let skewed = doc.get("table3").and_then(|t| t.get("skewed")).unwrap();
    assert_eq!(skewed.get("sequences").and_then(|s| s.as_u64()), Some(40));
}
