//! Fig. 8: end-to-end throughput across models, datasets and context
//! lengths. The cells are `zeppelin_bench::paper::cells` of `Figure::Fig8`;
//! EXPERIMENTS.md compares them with the paper.

fn main() {
    zeppelin_bench::paper::print_figure(zeppelin_bench::paper::Figure::Fig8);
}
