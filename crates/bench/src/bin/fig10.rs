//! Fig. 10: the same 3B workload on Clusters A and B. The cells are
//! `zeppelin_bench::paper::cells` of `Figure::Fig10`; EXPERIMENTS.md
//! compares them with the paper.

fn main() {
    zeppelin_bench::paper::print_figure(zeppelin_bench::paper::Figure::Fig10);
}
