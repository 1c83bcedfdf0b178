//! Fig. 9: scalability of LLaMA 3B on Cluster A, 16–128 GPUs at 4k tokens
//! per GPU. The cells are `zeppelin_bench::paper::cells` of `Figure::Fig9`;
//! EXPERIMENTS.md compares them with the paper.

fn main() {
    zeppelin_bench::paper::print_figure(zeppelin_bench::paper::Figure::Fig9);
}
