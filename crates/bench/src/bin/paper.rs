//! The paper runner: runs Figs. 8–11, prints their tables, and writes
//! every cell, plus Fig. 12's and Table 3's simulated numbers, to
//! `BENCH_paper.json` (or `--out <path>`). The file is committed; a change
//! that moves a number re-records it.

use zeppelin_bench::paper::{cells, render, run, to_json, Fig12, Figure, Table3};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match &args[..] {
        [] => "BENCH_paper.json",
        [flag, path] if flag == "--out" => path,
        _ => panic!("usage: paper [--out <path>]"),
    };
    let results = run(cells());
    for figure in [Figure::Fig8, Figure::Fig9, Figure::Fig10, Figure::Fig11] {
        print!("{}", render(figure, &results));
    }
    let json = to_json(&results, &Fig12::simulate(), &Table3::simulate());
    std::fs::write(out, json).expect("write BENCH_paper.json");
    println!("wrote {out}");
}
