//! Communication routing layer (§3.3): three-step inter-node transfers.
//!
//! A direct inter-node send is pinned to the sender's affined NIC, leaving
//! the node's other NICs idle (and, on shared-NIC topologies like Cluster A,
//! contending with the paired GPU). The routing layer disaggregates logical
//! paths from GPU–NIC affinity by decomposing a transfer of `n` bytes into:
//!
//! 1. **Dispatch** — the source scatters `n/x₁` bytes to each of `x₁` send
//!    proxies over the intra-node fabric;
//! 2. **Inter-node transfer** — the proxies forward their shares through
//!    `x₁` *distinct NICs* to `x₂` receive proxies on the destination node;
//! 3. **Combine** — receive proxies forward their shares to the destination
//!    rank over the destination fabric.
//!
//! Eq. 1 of the paper gives the resulting cost; with the typical 10×
//! intra/inter bandwidth gap even a few proxies nearly eliminate the
//! inter-node bottleneck. The executor pipelines the three stages in chunks
//! so they overlap.

use zeppelin_sim::topology::{ClusterSpec, Rank};

/// One point-to-point flow in a routed transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Bytes carried.
    pub bytes: f64,
}

/// One proxy pair's share of a routed transfer: `(dispatch, inter,
/// combine)`. Dispatch/combine are `None` when the proxy *is* the endpoint
/// (no intra-node hop needed).
pub type RouteShare = (Option<FlowSpec>, FlowSpec, Option<FlowSpec>);

/// A three-stage routed transfer. Stage `i+1` of a given share depends on
/// stage `i`; shares are independent of each other.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedTransfer {
    /// `shares[i]` for proxy pair `i`.
    pub shares: Vec<RouteShare>,
}

impl RoutedTransfer {
    /// Total bytes crossing the inter-node fabric.
    pub fn inter_bytes(&self) -> f64 {
        self.shares.iter().map(|(_, f, _)| f.bytes).sum()
    }

    /// Number of proxy pairs (distinct NIC lanes used).
    pub fn lanes(&self) -> usize {
        self.shares.len()
    }
}

/// One representative rank per NIC of `node` (the proxy set).
///
/// On one-NIC-per-GPU nodes this is all ranks; on shared-NIC nodes (Cluster
/// A) it is the first rank of each NIC group, so stage-2 flows occupy
/// distinct NICs.
pub fn proxies_of_node(cluster: &ClusterSpec, node: usize) -> Vec<Rank> {
    let mut by_nic: Vec<Option<Rank>> = vec![None; cluster.node.nic_count];
    for rank in cluster.ranks_on_node(node) {
        let nic = cluster.node.nic_affinity[cluster.local_of(rank)];
        if by_nic[nic].is_none() {
            by_nic[nic] = Some(rank);
        }
    }
    by_nic.into_iter().flatten().collect()
}

/// Every node's proxy set for one cluster, built once so that routing a
/// hop allocates nothing. Nodes share one blueprint, so node `n`'s set is
/// node 0's ([`proxies_of_node`]) shifted by `n` nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyTable {
    gpus_per_node: usize,
    /// Local GPU index of each proxy, in NIC order.
    proxies: Vec<usize>,
    /// `slot[local]`: position in `proxies` of that GPU's NIC group.
    slot: Vec<usize>,
}

impl ProxyTable {
    /// The proxy sets of `cluster`.
    pub fn new(cluster: &ClusterSpec) -> ProxyTable {
        let affinity = &cluster.node.nic_affinity;
        let proxies = proxies_of_node(cluster, 0);
        let slot = (0..cluster.node.gpus_per_node)
            .map(|local| {
                proxies
                    .iter()
                    .position(|&p| affinity[p] == affinity[local])
                    .expect("every GPU's NIC group has a proxy")
            })
            .collect();
        ProxyTable {
            gpus_per_node: cluster.node.gpus_per_node,
            proxies,
            slot,
        }
    }

    /// Proxy pairs of every routed transfer (§3.3's one-to-one matching
    /// of equal send and receive sets: one lane per NIC).
    fn lanes(&self) -> usize {
        self.proxies.len()
    }

    /// Proxy `lane` on `endpoint`'s node. The endpoint stands in for its
    /// own NIC group's proxy and takes lane 0: the share that stays on the
    /// endpoint skips an intra-node hop entirely.
    fn proxy(&self, endpoint: Rank, lane: usize) -> Rank {
        let local = endpoint % self.gpus_per_node;
        let base = endpoint - local;
        let own = self.slot[local];
        if lane == 0 {
            endpoint
        } else if lane == own {
            base + self.proxies[0]
        } else {
            base + self.proxies[lane]
        }
    }

    /// The shares of routing `bytes` from `src` to `dst` on another node,
    /// one per lane, `bytes / lanes` each.
    pub fn route(&self, src: Rank, dst: Rank, bytes: f64) -> impl Iterator<Item = RouteShare> + '_ {
        let share = bytes / self.lanes() as f64;
        (0..self.lanes()).map(move |i| {
            let p = self.proxy(src, i);
            let q = self.proxy(dst, i);
            let dispatch = (p != src).then_some(FlowSpec {
                src,
                dst: p,
                bytes: share,
            });
            let inter = FlowSpec {
                src: p,
                dst: q,
                bytes: share,
            };
            let combine = (q != dst).then_some(FlowSpec {
                src: q,
                dst,
                bytes: share,
            });
            (dispatch, inter, combine)
        })
    }
}

/// Decomposes an inter-node transfer into the three-step routed form.
///
/// # Panics
///
/// Panics if `src` and `dst` share a node (routing is for inter-node sends)
/// or if `bytes` is negative.
///
/// # Examples
///
/// ```
/// use zeppelin_core::routing::route_internode;
/// use zeppelin_sim::topology::cluster_a;
///
/// // Cluster A has 4 NICs per node: the 52 MB round splits 4 ways.
/// let routed = route_internode(&cluster_a(2), 0, 9, 52e6);
/// assert_eq!(routed.lanes(), 4);
/// assert!((routed.inter_bytes() - 52e6).abs() < 1.0);
/// ```
pub fn route_internode(cluster: &ClusterSpec, src: Rank, dst: Rank, bytes: f64) -> RoutedTransfer {
    assert!(
        !cluster.same_node(src, dst),
        "routing decomposes inter-node transfers only"
    );
    assert!(bytes >= 0.0, "bytes must be non-negative");
    RoutedTransfer {
        shares: ProxyTable::new(cluster).route(src, dst, bytes).collect(),
    }
}

/// Eq. 1: analytic cost of a routed transfer of `n` bytes with `x1`/`x2`
/// send/receive proxies, in seconds. `b_intra`/`b_inter` are inverse
/// bandwidths (s/byte). Ignores overlap between stages (upper bound).
pub fn eq1_cost(n: f64, x1: usize, x2: usize, b_intra: f64, b_inter: f64) -> f64 {
    assert!(x1 >= 1 && x2 >= 1, "proxy counts must be positive");
    let (x1f, x2f) = (x1 as f64, x2 as f64);
    b_intra * n * (x1f - 1.0) / x1f
        + b_inter * (n / x1f).max(n / x2f)
        + b_intra * n * (x2f - 1.0) / x2f
}

/// Direct-transfer cost for comparison with [`eq1_cost`], in seconds.
pub fn direct_cost(n: f64, b_inter: f64) -> f64 {
    b_inter * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeppelin_sim::topology::{cluster_a, cluster_c, tiny_cluster};

    #[test]
    fn proxies_cover_distinct_nics() {
        let c = cluster_a(2);
        let p = proxies_of_node(&c, 0);
        assert_eq!(p.len(), 4); // 4 NICs on Cluster A.
        let mut nics: Vec<usize> = p.iter().map(|&r| c.nic_of(r)).collect();
        nics.sort_unstable();
        nics.dedup();
        assert_eq!(nics.len(), 4);
        // Second node's proxies live on the second node.
        let p1 = proxies_of_node(&c, 1);
        assert!(p1.iter().all(|&r| c.node_of(r) == 1));
    }

    /// The per-hop routing the table replaces: each node's proxy set built
    /// afresh, each endpoint swapped in for its own NIC group's proxy.
    fn reference_route(c: &ClusterSpec, src: Rank, dst: Rank, bytes: f64) -> Vec<RouteShare> {
        let prefer = |proxies: &mut Vec<Rank>, endpoint: Rank| {
            if let Some(pos) = proxies
                .iter()
                .position(|&p| c.nic_of(p) == c.nic_of(endpoint))
            {
                proxies[pos] = endpoint;
                proxies.swap(0, pos);
            }
        };
        let mut send = proxies_of_node(c, c.node_of(src));
        let mut recv = proxies_of_node(c, c.node_of(dst));
        prefer(&mut send, src);
        prefer(&mut recv, dst);
        let lanes = send.len().min(recv.len()).max(1);
        let share = bytes / lanes as f64;
        let flow = |src, dst| FlowSpec {
            src,
            dst,
            bytes: share,
        };
        (0..lanes)
            .map(|i| {
                let (p, q) = (send[i], recv[i]);
                let dispatch = (p != src).then(|| flow(src, p));
                let combine = (q != dst).then(|| flow(q, dst));
                (dispatch, flow(p, q), combine)
            })
            .collect()
    }

    #[test]
    fn proxy_table_matches_the_per_hop_reference_on_every_pair() {
        // A node whose NIC order differs from its GPU order, with unequal
        // NIC groups.
        let mut skewed = tiny_cluster(3, 6);
        skewed.node.nic_count = 3;
        skewed.node.nic_affinity = vec![2, 0, 2, 1, 0, 2];
        for c in [cluster_a(3), cluster_c(2), tiny_cluster(2, 4), skewed] {
            c.validate().unwrap();
            let table = ProxyTable::new(&c);
            for src in 0..c.total_gpus() {
                for dst in (0..c.total_gpus()).filter(|&d| !c.same_node(src, d)) {
                    let bytes = 1e6 + (src * 31 + dst) as f64;
                    let got: Vec<RouteShare> = table.route(src, dst, bytes).collect();
                    assert_eq!(
                        got,
                        reference_route(&c, src, dst, bytes),
                        "{} {src}->{dst}",
                        c.name
                    );
                }
            }
        }
    }

    #[test]
    fn one_to_one_nic_nodes_use_all_gpus() {
        let c = cluster_c(2);
        assert_eq!(proxies_of_node(&c, 0).len(), 8);
    }

    #[test]
    fn routed_transfer_conserves_bytes() {
        let c = cluster_a(2);
        let rt = route_internode(&c, 0, 9, 1e9);
        assert!((rt.inter_bytes() - 1e9).abs() < 1.0);
        assert_eq!(rt.lanes(), 4);
        for (d, i, g) in &rt.shares {
            // Stage chaining: dispatch dst == inter src; inter dst == gather src.
            if let Some(d) = d {
                assert_eq!(d.src, 0);
                assert_eq!(d.dst, i.src);
                assert!(c.same_node(d.src, d.dst));
            } else {
                assert_eq!(i.src, 0);
            }
            if let Some(g) = g {
                assert_eq!(g.dst, 9);
                assert_eq!(i.dst, g.src);
                assert!(c.same_node(g.src, g.dst));
            } else {
                assert_eq!(i.dst, 9);
            }
            assert!(!c.same_node(i.src, i.dst));
        }
    }

    #[test]
    fn inter_stage_uses_distinct_nics() {
        let c = cluster_a(2);
        let rt = route_internode(&c, 0, 9, 1e9);
        let mut tx_nics: Vec<usize> = rt.shares.iter().map(|(_, i, _)| c.nic_of(i.src)).collect();
        tx_nics.sort_unstable();
        tx_nics.dedup();
        assert_eq!(tx_nics.len(), 4, "stage-2 flows must spread across NICs");
    }

    #[test]
    fn endpoint_serves_as_its_own_proxy() {
        let c = cluster_a(2);
        let rt = route_internode(&c, 0, 9, 1e9);
        // The source's own NIC lane has no dispatch hop.
        let no_dispatch = rt.shares.iter().filter(|(d, _, _)| d.is_none()).count();
        assert_eq!(no_dispatch, 1);
        let no_combine = rt.shares.iter().filter(|(_, _, g)| g.is_none()).count();
        assert_eq!(no_combine, 1);
    }

    #[test]
    fn eq1_beats_direct_with_proxies() {
        // Cluster A numbers: intra 400 GB/s, inter 25 GB/s, n = 52 MB.
        let b_intra = 1.0 / 400e9;
        let b_inter = 1.0 / 25e9;
        let n = 52e6;
        let direct = direct_cost(n, b_inter);
        let routed = eq1_cost(n, 4, 4, b_intra, b_inter);
        // 4 NIC lanes cut the inter term 4×; intra hops add back a little,
        // netting ~2.9× on Cluster A's numbers.
        assert!(routed < direct / 2.5, "routed {routed} vs direct {direct}");
        // x = 1 degenerates to the direct cost.
        assert!((eq1_cost(n, 1, 1, b_intra, b_inter) - direct).abs() < 1e-12);
    }

    #[test]
    fn eq1_monotone_in_proxy_count() {
        let b_intra = 1.0 / 400e9;
        let b_inter = 1.0 / 25e9;
        let mut last = f64::INFINITY;
        for x in 1..=8 {
            let c = eq1_cost(1e8, x, x, b_intra, b_inter);
            assert!(c < last, "x={x}");
            last = c;
        }
    }

    #[test]
    fn mismatched_proxy_counts_bottleneck_on_fewer() {
        let c = tiny_cluster(2, 4);
        let rt = route_internode(&c, 0, 4, 4e8);
        assert_eq!(rt.lanes(), 4);
        let b_inter = 1.0 / 12.5e9;
        // Analytic check: x1=4, x2=2 pays the inter term on n/2 (the fewer
        // side bottlenecks); intra hops are negligible at 1e-15 s/B.
        let cost = eq1_cost(1e9, 4, 2, 1e-15, b_inter);
        assert!((cost - b_inter * 5e8).abs() < 1e-5, "cost {cost}");
    }

    #[test]
    #[should_panic(expected = "inter-node")]
    fn same_node_routing_panics() {
        route_internode(&cluster_a(2), 0, 1, 100.0);
    }
}
