//! Table 3: per-rank cost distribution under two length distributions.
//!
//! 7B model, 4 nodes of Cluster C (32 GPUs), 128k total context, full
//! Zeppelin. The *Balanced* batch samples one sequence per Table 2 (ArXiv)
//! bucket; the *Skewed* batch is one very long sequence plus short fillers.
//! Rows report `min - max` across ranks, whole-forward / whole-backward
//! (per-layer values × layer count), matching the paper's table format.
//! "Forward Sequence Partition" is the planner's host wall time, so it is
//! the one row that changes between runs.

use zeppelin_bench::paper::Table3;
use zeppelin_bench::table::Table;

fn main() {
    let t3 = Table3::simulate();
    let [(_, balanced, rb), (_, skewed, rs)] = &t3.runs;
    let (cb, cs) = (t3.ranges(rb), t3.ranges(rs));
    let range = |(min, max): (f64, f64)| format!("{min:.0} - {max:.0}");

    println!(
        "Table 3 — cost distribution across ranks (ms, min - max)\n\
              (7B, 4 nodes Cluster C, 128k total context, full Zeppelin)\n"
    );
    let mut table = Table::new(vec!["Components (ms)", "Balanced", "Skewed"]);
    for (i, name) in Table3::ROWS.iter().enumerate() {
        if *name == "Backward" {
            let [b, s] = [rb, rs].map(|r| format!("{:.3}", r.plan_wall.as_secs_f64() * 1e3));
            table.row(vec!["Forward Sequence Partition".into(), b, s]);
        }
        table.row(vec![name.to_string(), range(cb[i]), range(cs[i])]);
    }
    println!("{}", table.render());
    println!("batch shapes: balanced = {balanced} sequences, skewed = {skewed} sequences");
    println!(
        "(paper: skewed forward dominated by the long sequence's attention;\n \
              remapping and partitioning negligible in both)"
    );
}
