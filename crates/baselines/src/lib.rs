//! # zeppelin-baselines
//!
//! The state-of-the-art methods the paper compares against, implemented on
//! the same plan IR and executed by the same simulator as Zeppelin:
//!
//! - [`te_cp`]: Transformer Engine context parallelism (global zigzag ring),
//!   optionally with Zeppelin's routing layer grafted on for the Fig. 11
//!   ablation;
//! - [`llama_cp`]: LLaMA 3-style all-gather context parallelism;
//! - [`hybrid_dp`]: FLOP-balanced hybrid DP+CP with micro-batching
//!   (ByteScale-style);
//! - [`packing`]: input-balanced packing with redundant cross-sequence
//!   attention (Qwen/DeepSeek-style), used by the Fig. 3a analysis;
//! - [`ulysses`]: DeepSpeed-Ulysses all-to-all sequence parallelism
//!   (related work, §6);
//! - [`double_ring`]: LoongTrain-style two-level ring attention (related
//!   work, §6).
//!
//! [`scheduler_by_name`] resolves Zeppelin and every baseline, so every
//! frontend shares one scheduler vocabulary. Heterogeneity needs no name
//! of its own: Zeppelin reads per-rank speeds from its context.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod double_ring;
pub mod flat;
pub mod hybrid_dp;
pub mod llama_cp;
pub mod packing;
pub mod te_cp;
pub mod ulysses;

pub use double_ring::DoubleRingCp;
pub use flat::FlatQuadratic;
pub use hybrid_dp::HybridDp;
pub use llama_cp::LlamaCp;
pub use packing::{pack_into_bins, pack_into_bins_tagged, redundant_fraction, Packing};
pub use te_cp::TeCp;
pub use ulysses::Ulysses;

use zeppelin_core::scheduler::Scheduler;
use zeppelin_core::zeppelin::Zeppelin;

/// Scheduler names accepted by [`scheduler_by_name`] (canonical spellings).
pub const SCHEDULER_NAMES: [&str; 7] = [
    "zeppelin",
    "te",
    "llama",
    "hybrid",
    "packing",
    "ulysses",
    "double-ring",
];

/// Resolves a scheduler (Zeppelin or a baseline) by its CLI/protocol name.
/// This is the one vocabulary shared by the CLI, the serving registry, and
/// the cluster simulation.
///
/// # Errors
///
/// Returns the offending name for unknown schedulers.
pub fn scheduler_by_name(name: &str) -> Result<Box<dyn Scheduler>, String> {
    match name.to_ascii_lowercase().as_str() {
        "zeppelin" => Ok(Box::new(Zeppelin::new())),
        "te" | "te-cp" => Ok(Box::new(TeCp::new())),
        "llama" | "llama-cp" => Ok(Box::new(LlamaCp::new())),
        "hybrid" | "hybrid-dp" => Ok(Box::new(HybridDp::new())),
        "packing" => Ok(Box::new(Packing::new())),
        "ulysses" => Ok(Box::new(Ulysses::new())),
        "double-ring" | "doublering" => Ok(Box::new(DoubleRingCp::new())),
        other => Err(other.to_string()),
    }
}
