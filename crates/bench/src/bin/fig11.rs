//! Fig. 11: component ablation, 3B on 32 GPUs of Cluster A, over the five
//! variants of `zeppelin_bench::paper::Roster::Ablation`; EXPERIMENTS.md
//! compares them with the paper.

fn main() {
    zeppelin_bench::paper::print_figure(zeppelin_bench::paper::Figure::Fig11);
}
