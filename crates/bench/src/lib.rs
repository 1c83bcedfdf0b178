//! # zeppelin-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation. Each `src/bin/figN.rs` / `src/bin/tableN.rs` binary prints
//! the rows or series of the corresponding exhibit; this library holds the
//! shared experiment plumbing (method roster, cluster/model/dataset lookup,
//! run orchestration, table rendering) and the [`paper`] runner.
//!
//! Run an exhibit with e.g. `cargo run --release -p zeppelin-bench --bin
//! fig8`. Criterion micro-benchmarks of the algorithms themselves live in
//! `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod paper;
pub mod table;
