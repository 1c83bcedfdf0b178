//! Cluster topology: GPUs, NICs, intra-node fabric, and GPU–NIC affinity.
//!
//! A cluster is a homogeneous set of nodes. Each node holds `gpus_per_node`
//! GPUs connected by an NVSwitch-style non-blocking fabric (modelled as
//! per-GPU ingress/egress ports) and `nic_count` NICs; the affinity map
//! assigns every GPU to exactly one NIC, possibly shared (e.g. the paper's
//! Cluster A pairs two GPUs per NIC behind one PCIe switch).
//!
//! Topologies are pure data; the flow network (see [`crate::network`]) turns
//! the port inventory into capacitated resources.

use crate::error::SimError;

/// Identifies a GPU by its flat rank across the cluster (`node * P + local`).
pub type Rank = usize;

/// One directional capacitated port in the network fabric.
///
/// A flow's path is a sequence of ports it traverses; concurrent flows
/// sharing a port split its bandwidth max-min fairly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Port {
    /// A GPU's egress into the intra-node switch fabric.
    NvlinkOut(Rank),
    /// A GPU's ingress from the intra-node switch fabric.
    NvlinkIn(Rank),
    /// A GPU's egress towards its PCIe switch / NIC complex.
    PcieOut(Rank),
    /// A GPU's ingress from its PCIe switch / NIC complex.
    PcieIn(Rank),
    /// A NIC's transmit direction; index is global (`node * nic_count + i`).
    NicTx(usize),
    /// A NIC's receive direction; index is global.
    NicRx(usize),
}

/// A direct GPU-to-GPU port path held inline ([`ClusterSpec::direct_ports`]):
/// two ports within a node, four across nodes. Dereferences to the ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectPath {
    ports: [Port; 4],
    len: u8,
}

impl std::ops::Deref for DirectPath {
    type Target = [Port];

    fn deref(&self) -> &[Port] {
        &self.ports[..usize::from(self.len)]
    }
}

/// Per-GPU hardware characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Peak dense bf16 throughput in FLOP/s.
    pub peak_flops: f64,
    /// HBM capacity in bytes.
    pub mem_bytes: u64,
    /// Per-direction NVLink/NVSwitch bandwidth in bytes/s.
    pub nvlink_bw: f64,
    /// Per-direction PCIe bandwidth towards the NIC complex in bytes/s.
    pub pcie_bw: f64,
}

/// Per-NIC characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicSpec {
    /// Per-direction bandwidth in bytes/s (RoCE NICs are full duplex).
    pub bw: f64,
}

/// A homogeneous multi-GPU node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Number of GPUs in the node.
    pub gpus_per_node: usize,
    /// GPU characteristics (identical within a node).
    pub gpu: GpuSpec,
    /// Number of NICs in the node.
    pub nic_count: usize,
    /// NIC characteristics (identical within a node).
    pub nic: NicSpec,
    /// `nic_affinity[local_gpu]` = local NIC index serving that GPU.
    pub nic_affinity: Vec<usize>,
}

/// A cluster of nodes sharing one blueprint, optionally spanning mixed GPU
/// generations via per-node speed tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable name (e.g. `"Cluster A"`).
    pub name: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Node blueprint, identical across the cluster.
    pub node: NodeSpec,
    /// Per-node relative compute speed tiers for mixed-generation clusters
    /// (e.g. an A800 node in an H800 fleet at `312/989`). Empty means
    /// homogeneous (every node at 1.0); otherwise exactly one positive
    /// finite multiplier per node, applied to that node's GPU FLOP rate.
    /// Fabric and NIC rates stay from the blueprint.
    pub node_tiers: Vec<f64>,
}

/// Converts Gb/s (network convention, bits) to bytes/s.
pub const fn gbit(gbps: f64) -> f64 {
    gbps * 1e9 / 8.0
}

/// Converts GB/s (fabric convention, bytes) to bytes/s.
pub const fn gbyte(gbs: f64) -> f64 {
    gbs * 1e9
}

/// Converts TFLOP/s to FLOP/s.
pub const fn tflops(tf: f64) -> f64 {
    tf * 1e12
}

impl NodeSpec {
    /// Validates internal consistency of the node blueprint.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.gpus_per_node == 0 {
            return Err(SimError::InvalidTopology("node has zero GPUs".into()));
        }
        if self.nic_count == 0 {
            return Err(SimError::InvalidTopology("node has zero NICs".into()));
        }
        if self.nic_affinity.len() != self.gpus_per_node {
            return Err(SimError::InvalidTopology(format!(
                "nic_affinity has {} entries for {} GPUs",
                self.nic_affinity.len(),
                self.gpus_per_node
            )));
        }
        if let Some(&bad) = self.nic_affinity.iter().find(|&&n| n >= self.nic_count) {
            return Err(SimError::InvalidTopology(format!(
                "nic_affinity references NIC {bad} but node has {} NICs",
                self.nic_count
            )));
        }
        if !(self.gpu.peak_flops > 0.0
            && self.gpu.nvlink_bw > 0.0
            && self.gpu.pcie_bw > 0.0
            && self.nic.bw > 0.0)
        {
            return Err(SimError::InvalidTopology(
                "all rates must be strictly positive".into(),
            ));
        }
        Ok(())
    }
}

impl ClusterSpec {
    /// Validates the cluster blueprint.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.nodes == 0 {
            return Err(SimError::InvalidTopology("cluster has zero nodes".into()));
        }
        if !self.node_tiers.is_empty() {
            if self.node_tiers.len() != self.nodes {
                return Err(SimError::InvalidTopology(format!(
                    "node_tiers has {} entries for {} nodes",
                    self.node_tiers.len(),
                    self.nodes
                )));
            }
            if let Some(&bad) = self
                .node_tiers
                .iter()
                .find(|&&t| !(t.is_finite() && t > 0.0))
            {
                return Err(SimError::InvalidTopology(format!(
                    "node tier {bad} is not positive and finite"
                )));
            }
        }
        self.node.validate()
    }

    /// Declares per-node speed tiers (builder form).
    pub fn with_node_tiers(mut self, tiers: Vec<f64>) -> ClusterSpec {
        self.node_tiers = tiers;
        self
    }

    /// Relative compute speed of `node` (1.0 on homogeneous clusters).
    pub fn tier_of(&self, node: usize) -> f64 {
        self.node_tiers.get(node).copied().unwrap_or(1.0)
    }

    /// Per-rank speed factors implied by the node tiers: `None` on a
    /// homogeneous cluster, otherwise one entry per rank (every rank of a
    /// node shares its tier). This is what seeds
    /// `SchedulerCtx::rank_speed` for heterogeneity-aware planning, and
    /// what the executor multiplies into each rank's kernel rate.
    pub fn rank_speeds(&self) -> Option<Vec<f64>> {
        if self.node_tiers.is_empty() {
            return None;
        }
        Some(
            (0..self.total_gpus())
                .map(|r| self.tier_of(self.node_of(r)))
                .collect(),
        )
    }

    /// Total number of GPUs (= DP ranks when TP is folded into the GPU spec).
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.node.gpus_per_node
    }

    /// Node index hosting `rank`.
    pub fn node_of(&self, rank: Rank) -> usize {
        rank / self.node.gpus_per_node
    }

    /// Local GPU index of `rank` within its node.
    pub fn local_of(&self, rank: Rank) -> usize {
        rank % self.node.gpus_per_node
    }

    /// Flat rank for `(node, local)`.
    pub fn rank_of(&self, node: usize, local: usize) -> Rank {
        node * self.node.gpus_per_node + local
    }

    /// True if the two ranks live on the same node.
    pub fn same_node(&self, a: Rank, b: Rank) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Global NIC index affined to `rank`.
    pub fn nic_of(&self, rank: Rank) -> usize {
        self.node_of(rank) * self.node.nic_count + self.node.nic_affinity[self.local_of(rank)]
    }

    /// All ranks hosted on `node`.
    pub fn ranks_on_node(&self, node: usize) -> impl Iterator<Item = Rank> + '_ {
        let p = self.node.gpus_per_node;
        (node * p)..(node * p + p)
    }

    /// Capacity in bytes/s of a port.
    pub fn port_capacity(&self, port: Port) -> f64 {
        match port {
            Port::NvlinkOut(_) | Port::NvlinkIn(_) => self.node.gpu.nvlink_bw,
            Port::PcieOut(_) | Port::PcieIn(_) => self.node.gpu.pcie_bw,
            Port::NicTx(_) | Port::NicRx(_) => self.node.nic.bw,
        }
    }

    /// Total NICs across the cluster (global NIC indices are `0..total_nics`).
    pub fn total_nics(&self) -> usize {
        self.nodes * self.node.nic_count
    }

    /// Number of ports in the fabric: four per GPU and two per NIC. Dense
    /// port ids ([`ClusterSpec::port_id`]) are `0..port_count`.
    pub fn port_count(&self) -> usize {
        4 * self.total_gpus() + 2 * self.total_nics()
    }

    /// Dense id of `port`, or `None` for a port outside this cluster (a
    /// rank or NIC index past the end).
    ///
    /// With `G` GPUs and `N` NICs the ids run NVLink egress `0..G`, NVLink
    /// ingress `G..2G`, PCIe egress and ingress up to `4G`, then NIC
    /// transmit and receive up to `4G + 2N`. The flow network and the
    /// engine's byte accounting index per-port tables with these ids.
    pub fn port_id(&self, port: Port) -> Option<u32> {
        let (g, n) = (self.total_gpus(), self.total_nics());
        let (block, index) = match port {
            Port::NvlinkOut(r) => (0, r),
            Port::NvlinkIn(r) => (1, r),
            Port::PcieOut(r) => (2, r),
            Port::PcieIn(r) => (3, r),
            Port::NicTx(i) => (4, i),
            Port::NicRx(i) => (5, i),
        };
        // Four blocks of `g` GPU ports, then two blocks of `n` NIC ports.
        let (base, bound) = if block < 4 {
            (block * g, g)
        } else {
            (4 * g + (block - 4) * n, n)
        };
        (index < bound).then(|| (base + index) as u32)
    }

    /// The port with dense id `id` (inverse of [`ClusterSpec::port_id`]).
    ///
    /// # Panics
    ///
    /// Panics if `id >= port_count()`.
    pub fn port_at(&self, id: u32) -> Port {
        let (g, n) = (self.total_gpus(), self.total_nics());
        let i = id as usize;
        assert!(i < self.port_count(), "port id {id} outside the cluster");
        match i {
            _ if i < g => Port::NvlinkOut(i),
            _ if i < 2 * g => Port::NvlinkIn(i - g),
            _ if i < 3 * g => Port::PcieOut(i - 2 * g),
            _ if i < 4 * g => Port::PcieIn(i - 3 * g),
            _ if i < 4 * g + n => Port::NicTx(i - 4 * g),
            _ => Port::NicRx(i - 4 * g - n),
        }
    }

    /// Port path for a direct GPU-to-GPU transfer, as a `Vec`. Forwards
    /// to [`ClusterSpec::direct_ports`].
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn direct_path(&self, src: Rank, dst: Rank) -> Vec<Port> {
        self.direct_ports(src, dst).to_vec()
    }

    /// Port path for a direct GPU-to-GPU transfer, held inline.
    ///
    /// Intra-node transfers traverse the sender's fabric egress and the
    /// receiver's ingress. Inter-node transfers go through each side's PCIe
    /// port and its *affined* NIC — the static affinity the routing layer
    /// exists to break.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`; a self-transfer has no path and indicates a
    /// planning bug.
    pub fn direct_ports(&self, src: Rank, dst: Rank) -> DirectPath {
        assert_ne!(src, dst, "self-transfer has no network path");
        if self.same_node(src, dst) {
            let (out, inp) = (Port::NvlinkOut(src), Port::NvlinkIn(dst));
            DirectPath {
                ports: [out, inp, out, inp],
                len: 2,
            }
        } else {
            DirectPath {
                ports: [
                    Port::PcieOut(src),
                    Port::NicTx(self.nic_of(src)),
                    Port::NicRx(self.nic_of(dst)),
                    Port::PcieIn(dst),
                ],
                len: 4,
            }
        }
    }

    /// Effective inter-node bandwidth of a single direct GPU pair, bytes/s.
    pub fn direct_internode_bw(&self) -> f64 {
        self.node.nic.bw.min(self.node.gpu.pcie_bw)
    }

    /// Aggregate per-node inter-node bandwidth across all NICs, bytes/s.
    pub fn aggregate_internode_bw(&self) -> f64 {
        self.node.nic.bw * self.node.nic_count as f64
    }

    /// Intra-node per-GPU-pair bandwidth, bytes/s.
    pub fn intranode_bw(&self) -> f64 {
        self.node.gpu.nvlink_bw
    }
}

/// Builds the paper's Cluster A: 8× A800-80G per node, NVSwitch 400 GB/s,
/// 4× 200 Gb/s RoCE NICs with one NIC shared by each pair of GPUs.
pub fn cluster_a(nodes: usize) -> ClusterSpec {
    ClusterSpec {
        name: "Cluster A (A800)".into(),
        nodes,
        node_tiers: Vec::new(),
        node: NodeSpec {
            gpus_per_node: 8,
            gpu: GpuSpec {
                peak_flops: tflops(312.0),
                mem_bytes: 80 * (1 << 30),
                nvlink_bw: gbyte(400.0),
                pcie_bw: gbyte(32.0),
            },
            nic_count: 4,
            nic: NicSpec { bw: gbit(200.0) },
            // GPUs 2i and 2i+1 share NIC i via one PCIe switch.
            nic_affinity: vec![0, 0, 1, 1, 2, 2, 3, 3],
        },
    }
}

/// Builds the paper's Cluster B: 8× H800 per node, 8× 200 Gb/s RoCE NICs
/// with one-to-one GPU–NIC mapping.
pub fn cluster_b(nodes: usize) -> ClusterSpec {
    ClusterSpec {
        name: "Cluster B (H800)".into(),
        nodes,
        node_tiers: Vec::new(),
        node: NodeSpec {
            gpus_per_node: 8,
            gpu: GpuSpec {
                peak_flops: tflops(989.0),
                mem_bytes: 80 * (1 << 30),
                nvlink_bw: gbyte(400.0),
                pcie_bw: gbyte(64.0),
            },
            nic_count: 8,
            nic: NicSpec { bw: gbit(200.0) },
            nic_affinity: (0..8).collect(),
        },
    }
}

/// Builds the paper's Cluster C: 8× H200 per node, 8× 400 Gb/s CX7 NICs
/// with one-to-one GPU–NIC mapping.
pub fn cluster_c(nodes: usize) -> ClusterSpec {
    ClusterSpec {
        name: "Cluster C (H200)".into(),
        nodes,
        node_tiers: Vec::new(),
        node: NodeSpec {
            gpus_per_node: 8,
            gpu: GpuSpec {
                peak_flops: tflops(989.0),
                mem_bytes: 141 * (1 << 30),
                nvlink_bw: gbyte(900.0),
                pcie_bw: gbyte(64.0),
            },
            nic_count: 8,
            nic: NicSpec { bw: gbit(400.0) },
            nic_affinity: (0..8).collect(),
        },
    }
}

/// Relative compute speed of an A800 next to the Hopper generation
/// (312 vs 989 dense bf16 TFLOP/s).
pub const A800_RELATIVE_SPEED: f64 = 312.0 / 989.0;

/// Builds a mixed-generation cluster: Cluster B's fabric blueprint with
/// node tiers cycling A800 → H800 → H200 (relative compute speeds
/// [`A800_RELATIVE_SPEED`], 1.0, 1.0) — the "heterogeneous fleet" setting
/// where a retired-generation pod is pooled with current ones.
pub fn cluster_mixed(nodes: usize) -> ClusterSpec {
    let tiers = (0..nodes)
        .map(|n| match n % 3 {
            0 => A800_RELATIVE_SPEED,
            _ => 1.0,
        })
        .collect();
    let mut c = cluster_b(nodes).with_node_tiers(tiers);
    c.name = "Cluster M (A800+H800+H200)".into();
    c
}

/// Builds a small synthetic cluster, handy for tests and examples.
pub fn tiny_cluster(nodes: usize, gpus_per_node: usize) -> ClusterSpec {
    ClusterSpec {
        name: format!("tiny-{nodes}x{gpus_per_node}"),
        nodes,
        node_tiers: Vec::new(),
        node: NodeSpec {
            gpus_per_node,
            gpu: GpuSpec {
                peak_flops: tflops(100.0),
                mem_bytes: 16 * (1 << 30),
                nvlink_bw: gbyte(200.0),
                pcie_bw: gbyte(32.0),
            },
            nic_count: gpus_per_node,
            nic: NicSpec { bw: gbit(100.0) },
            nic_affinity: (0..gpus_per_node).collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for c in [
            cluster_a(2),
            cluster_b(4),
            cluster_c(8),
            cluster_mixed(3),
            tiny_cluster(2, 4),
        ] {
            c.validate().unwrap();
        }
    }

    #[test]
    fn node_tiers_feed_rank_speeds_and_are_validated() {
        let c = cluster_mixed(3);
        assert_eq!(c.node_tiers.len(), 3);
        assert!((c.tier_of(0) - A800_RELATIVE_SPEED).abs() < 1e-12);
        assert_eq!(c.tier_of(1), 1.0);
        let speeds = c.rank_speeds().unwrap();
        assert_eq!(speeds.len(), 24);
        // Every rank of a node shares its tier.
        assert!(speeds[..8].iter().all(|&s| s == c.tier_of(0)));
        assert!(speeds[8..16].iter().all(|&s| s == 1.0));
        // Homogeneous clusters report no speeds at all.
        assert!(cluster_b(3).rank_speeds().is_none());
        assert_eq!(cluster_b(3).tier_of(1), 1.0);

        let mut bad = cluster_mixed(3);
        bad.node_tiers.pop();
        assert!(matches!(bad.validate(), Err(SimError::InvalidTopology(_))));
        let mut bad = cluster_mixed(3);
        bad.node_tiers[1] = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = cluster_mixed(3);
        bad.node_tiers[2] = 0.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn rank_addressing_round_trips() {
        let c = cluster_a(3);
        for rank in 0..c.total_gpus() {
            let (n, l) = (c.node_of(rank), c.local_of(rank));
            assert_eq!(c.rank_of(n, l), rank);
            assert!(l < 8);
        }
        assert_eq!(c.total_gpus(), 24);
    }

    #[test]
    fn cluster_a_shares_nics_pairwise() {
        let c = cluster_a(2);
        assert_eq!(c.nic_of(0), c.nic_of(1));
        assert_ne!(c.nic_of(1), c.nic_of(2));
        // Second node's NICs are distinct globals.
        assert_eq!(c.nic_of(8), 4);
        assert_eq!(c.nic_of(15), 7);
    }

    #[test]
    fn direct_path_shapes() {
        let c = cluster_a(2);
        assert_eq!(
            c.direct_path(0, 3),
            vec![Port::NvlinkOut(0), Port::NvlinkIn(3)]
        );
        let cross = c.direct_path(0, 9);
        assert_eq!(
            cross,
            vec![
                Port::PcieOut(0),
                Port::NicTx(0),
                Port::NicRx(4),
                Port::PcieIn(9),
            ]
        );
    }

    #[test]
    fn port_ids_are_dense_and_round_trip() {
        let c = cluster_a(2);
        assert_eq!(c.port_count(), 4 * 16 + 2 * 8);
        for id in 0..c.port_count() as u32 {
            assert_eq!(c.port_id(c.port_at(id)), Some(id));
        }
        assert_eq!(c.port_id(Port::NvlinkOut(0)), Some(0));
        assert_eq!(c.port_id(Port::NicRx(7)), Some(79));
        // Ports past the cluster's ranks or NICs have no id.
        assert_eq!(c.port_id(Port::PcieIn(16)), None);
        assert_eq!(c.port_id(Port::NicTx(8)), None);
        assert_eq!(c.port_id(Port::NicTx(999)), None);
    }

    #[test]
    #[should_panic(expected = "self-transfer")]
    fn self_path_panics() {
        cluster_a(1).direct_path(2, 2);
    }

    #[test]
    fn bandwidth_helpers() {
        let c = cluster_a(2);
        // 200 Gb/s = 25 GB/s, below PCIe.
        assert!((c.direct_internode_bw() - 25e9).abs() < 1.0);
        assert!((c.aggregate_internode_bw() - 100e9).abs() < 1.0);
        assert!((c.intranode_bw() - 400e9).abs() < 1.0);
    }

    #[test]
    fn validation_rejects_bad_affinity() {
        let mut c = tiny_cluster(1, 2);
        c.node.nic_affinity = vec![0, 5];
        assert!(matches!(c.validate(), Err(SimError::InvalidTopology(_))));
        c.node.nic_affinity = vec![0];
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_degenerate_sizes() {
        let mut c = tiny_cluster(1, 2);
        c.nodes = 0;
        assert!(c.validate().is_err());
        let mut c = tiny_cluster(1, 2);
        c.node.gpus_per_node = 0;
        assert!(c.validate().is_err());
        let mut c = tiny_cluster(1, 2);
        c.node.gpu.peak_flops = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn ranks_on_node_enumerates_contiguously() {
        let c = cluster_a(2);
        let ranks: Vec<_> = c.ranks_on_node(1).collect();
        assert_eq!(ranks, (8..16).collect::<Vec<_>>());
    }

    #[test]
    fn unit_conversions() {
        assert!((gbit(200.0) - 25e9).abs() < 1e-3);
        assert!((gbyte(400.0) - 4e11).abs() < 1e-3);
        assert!((tflops(312.0) - 3.12e14).abs() < 1e-1);
    }
}
