//! Flow-network partitioner: incremental connected components over the
//! port↔flow bipartite graph, plus the progressive-filling kernel that both
//! the sequential and the worker-pool rebalance paths share.
//!
//! # Components
//!
//! Two flows interact in max-min fair filling iff they transitively share a
//! port. [`Partitioner::partition`] floods outward from the ports dirtied
//! since the last rebalance and splits the reachable region into its true
//! connected components, each a `(ports, flows)` pair stored in flat arenas
//! (no per-component allocation). Components are discovered — and later
//! applied — in the order the dirty ports were recorded, which is itself
//! deterministic, so the commit barrier has a **fixed component ordering**:
//! results are written back in ascending component id regardless of which
//! worker computed them or when it finished.
//!
//! # One fill kernel, two drivers
//!
//! [`fill_component`] is the only implementation of progressive filling.
//! The sequential path calls it in a loop; the worker pool
//! ([`crate::pool`]) calls it from scoped threads, one component per task.
//! Determinism across worker counts is therefore structural, not tested-in:
//! every float operation on a component happens in the same order whether 1
//! or 8 workers run, and disjoint components share no state. The kernel
//! writes into caller-owned [`FillScratch`]/[`FillOutput`] buffers so
//! workers never contend and repeated rebalances allocate nothing.
//!
//! The floating-point expressions replicate [`crate::reference`]'s
//! whole-network filling operation for operation (see the bit-equality
//! discussion in [`crate::network`]); flows within a component are visited
//! in ascending slot order, matching the reference's whole-table order.

use crate::network::FlowSlot;

/// One connected component: views into the partitioner's flat arenas.
#[derive(Debug, Clone, Copy)]
pub struct ComponentRef<'a> {
    /// Interned port indices of the component, in flood discovery order.
    pub ports: &'a [usize],
    /// Flow slots of the component, sorted ascending.
    pub flows: &'a [usize],
}

/// Span of one component inside the flat port/flow arenas.
#[derive(Debug, Clone, Copy)]
struct CompSpan {
    port_start: u32,
    port_end: u32,
    flow_start: u32,
    flow_end: u32,
}

/// Incremental connected-component index over the port↔flow graph.
///
/// Epoch-stamped marks make each partition pass O(touched region), not
/// O(network); the flat arenas are reused across passes.
#[derive(Debug, Default)]
pub struct Partitioner {
    /// Current partition epoch (stamps start at 0, epochs at 1).
    epoch: u64,
    /// Per-port: stamped when the port joins a component this epoch.
    port_mark: Vec<u64>,
    /// Per-slot: stamped when the flow joins a component this epoch.
    flow_mark: Vec<u64>,
    /// DFS work list of ports.
    stack: Vec<usize>,
    /// Flat arena of component ports.
    comp_ports: Vec<usize>,
    /// Flat arena of component flows.
    comp_flows: Vec<usize>,
    spans: Vec<CompSpan>,
}

impl Partitioner {
    /// Creates an empty partitioner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of components found by the last [`Partitioner::partition`].
    pub fn components(&self) -> usize {
        self.spans.len()
    }

    /// Total flows across all current components.
    pub fn flow_count(&self) -> usize {
        self.comp_flows.len()
    }

    /// Views component `c` of the last partition.
    pub fn component(&self, c: usize) -> ComponentRef<'_> {
        let s = self.spans[c];
        ComponentRef {
            ports: &self.comp_ports[s.port_start as usize..s.port_end as usize],
            flows: &self.comp_flows[s.flow_start as usize..s.flow_end as usize],
        }
    }

    /// Splits the region reachable from `seeds` into connected components.
    ///
    /// Each seed port not already absorbed by an earlier component starts a
    /// new flood over the port→flow→port adjacency. A seed port with no
    /// live flows would form a flow-less component; the network zeroes
    /// such ports' rate sums itself and passes only crossed ports as seeds.
    /// Duplicate seeds are skipped via the epoch marks.
    pub fn partition(&mut self, seeds: &[usize], port_flows: &[Vec<usize>], flows: &[FlowSlot]) {
        self.port_mark.resize(port_flows.len(), 0);
        self.flow_mark.resize(flows.len(), 0);
        self.epoch += 1;
        let epoch = self.epoch;
        self.comp_ports.clear();
        self.comp_flows.clear();
        self.spans.clear();
        self.stack.clear();
        for &seed in seeds {
            if self.port_mark[seed] == epoch {
                continue; // Already inside an earlier component.
            }
            let port_start = self.comp_ports.len() as u32;
            let flow_start = self.comp_flows.len() as u32;
            self.port_mark[seed] = epoch;
            self.comp_ports.push(seed);
            self.stack.push(seed);
            while let Some(p) = self.stack.pop() {
                for &k in &port_flows[p] {
                    if self.flow_mark[k] != epoch {
                        self.flow_mark[k] = epoch;
                        self.comp_flows.push(k);
                        for &q in flows[k].path() {
                            if self.port_mark[q] != epoch {
                                self.port_mark[q] = epoch;
                                self.comp_ports.push(q);
                                self.stack.push(q);
                            }
                        }
                    }
                }
            }
            // Ascending slot order: the freeze pass mutates per-port state
            // while iterating, so flow order is observable and must match
            // the reference's whole-table order.
            self.comp_flows[flow_start as usize..].sort_unstable();
            self.spans.push(CompSpan {
                port_start,
                port_end: self.comp_ports.len() as u32,
                flow_start,
                flow_end: self.comp_flows.len() as u32,
            });
        }
    }
}

/// Reusable per-caller workspace for [`fill_component`].
///
/// Full-size arrays indexed by port/slot id, epoch-stamped so resets cost
/// O(component); each sequential allocator and each pool worker owns one.
#[derive(Debug, Default)]
pub struct FillScratch {
    /// Current fill epoch (stamps start at 0, epochs at 1).
    epoch: u64,
    /// Per-slot: stamped when the flow freezes in the current filling.
    frozen_mark: Vec<u64>,
    /// Per-port: bandwidth already committed to frozen flows.
    frozen_usage: Vec<f64>,
    /// Per-port: number of unfrozen component flows crossing the port.
    unfrozen_count: Vec<usize>,
    /// Per-slot: rate assigned in the current filling.
    rate: Vec<f64>,
}

/// Rates and per-port sums computed by one [`fill_component`] call.
///
/// `rates[i]` belongs to `component.flows[i]`; `port_sums[j]` to
/// `component.ports[j]`. Kept separate from the live flow table so workers
/// write only caller-owned memory; the commit barrier applies outputs in
/// ascending component order.
#[derive(Debug, Default)]
pub struct FillOutput {
    /// Max-min fair rate per component flow.
    pub rates: Vec<f64>,
    /// Refreshed rate sum per component port.
    pub port_sums: Vec<f64>,
}

/// Progressive max-min filling of one component.
///
/// Component flows rise from rate 0 together; each port `p` saturates at
/// level `(cap_p - frozen_p) / unfrozen_p`. The minimum level across
/// component ports freezes every unfrozen flow crossing a bottleneck port,
/// and the process repeats until all component flows are frozen. Reads only
/// shared network state and the component views; writes only `scratch` and
/// `out`, so concurrent calls on disjoint components are race-free by
/// construction.
pub fn fill_component(
    port_caps: &[f64],
    port_flows: &[Vec<usize>],
    flows: &[FlowSlot],
    comp: ComponentRef<'_>,
    scratch: &mut FillScratch,
    out: &mut FillOutput,
) {
    let s = scratch;
    s.frozen_usage.resize(port_caps.len(), 0.0);
    s.unfrozen_count.resize(port_caps.len(), 0);
    s.frozen_mark.resize(flows.len(), 0);
    s.rate.resize(flows.len(), 0.0);
    s.epoch += 1;
    let epoch = s.epoch;

    for &p in comp.ports {
        s.frozen_usage[p] = 0.0;
        s.unfrozen_count[p] = 0;
    }
    for &k in comp.flows {
        for &p in flows[k].path() {
            s.unfrozen_count[p] += 1;
        }
    }
    let mut remaining_live = comp.flows.len();
    while remaining_live > 0 {
        // Find the lowest saturation level among contended ports.
        let mut level = f64::INFINITY;
        for &p in comp.ports {
            if s.unfrozen_count[p] > 0 {
                let l = (port_caps[p] - s.frozen_usage[p]) / s.unfrozen_count[p] as f64;
                if l < level {
                    level = l;
                }
            }
        }
        debug_assert!(level.is_finite(), "live flows but no contended port");
        let level = level.max(0.0);
        // Freeze every unfrozen flow that crosses a bottleneck port.
        let mut froze_any = false;
        for &k in comp.flows {
            if s.frozen_mark[k] == epoch {
                continue;
            }
            let at_bottleneck = flows[k].path().iter().any(|&p| {
                let l = (port_caps[p] - s.frozen_usage[p]) / s.unfrozen_count[p] as f64;
                l <= level + level.abs() * 1e-12
            });
            if at_bottleneck {
                s.frozen_mark[k] = epoch;
                froze_any = true;
                remaining_live -= 1;
                s.rate[k] = level;
                for &p in flows[k].path() {
                    s.frozen_usage[p] += level;
                    s.unfrozen_count[p] -= 1;
                }
            }
        }
        debug_assert!(froze_any, "max-min fair filling made no progress");
        if !froze_any {
            break; // Defensive: avoid an infinite loop under fp anomalies.
        }
    }

    // Rates in component-flow order, port sums in component-port order. The
    // per-port sum iterates the port's reverse index in its stored order so
    // float addition order matches the pre-partitioned allocator exactly.
    out.rates.clear();
    out.rates.extend(comp.flows.iter().map(|&k| s.rate[k]));
    out.port_sums.clear();
    for &p in comp.ports {
        let mut sum = 0.0;
        for &k in &port_flows[p] {
            sum += s.rate[k];
        }
        out.port_sums.push(sum);
    }
}
