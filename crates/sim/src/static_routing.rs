//! A fixed-table routing protocol.
//!
//! Not part of the paper: this is the substrate-testing protocol. With
//! routes precomputed from a known static topology, any loss or latency
//! the simulator reports is attributable to the PHY/MAC model alone,
//! which lets the kernel be validated independently of the routing
//! protocols under study. Also handy in examples.

use crate::packet::{ControlPacket, DataPacket, NodeId, Packet, PacketBody};
use crate::protocol::{Ctx, DropReason, RouteDump, RoutingProtocol};
use std::sync::Arc;

/// All-pairs next-hop tables: `tables[src][dst]` is the next hop from
/// `src` towards `dst`, or `None` if unreachable.
pub type NextHopTables = Arc<Vec<Vec<Option<NodeId>>>>;

/// Routing with immutable precomputed next hops.
#[derive(Clone, Debug)]
pub struct StaticRouting {
    id: NodeId,
    next_hop: Vec<Option<NodeId>>,
}

impl StaticRouting {
    /// One node's view of shared all-pairs tables.
    pub fn new(id: NodeId, tables: NextHopTables) -> Self {
        StaticRouting { id, next_hop: tables[id.index()].clone() }
    }

    /// Tables for an `n`-node chain `0 — 1 — ... — n-1`.
    pub fn tables_for_line(n: usize) -> NextHopTables {
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i - 1);
                }
                if i + 1 < n {
                    v.push(i + 1);
                }
                v
            })
            .collect();
        Self::from_adjacency(&adj)
    }

    /// BFS all-pairs next hops over an adjacency list.
    pub fn from_adjacency(adj: &[Vec<usize>]) -> NextHopTables {
        let n = adj.len();
        let mut tables = vec![vec![None; n]; n];
        for src in 0..n {
            // BFS from src, remembering each node's parent.
            let mut parent = vec![usize::MAX; n];
            let mut queue = std::collections::VecDeque::new();
            parent[src] = src;
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                for &v in &adj[u] {
                    if parent[v] == usize::MAX {
                        parent[v] = u;
                        queue.push_back(v);
                    }
                }
            }
            for dst in 0..n {
                if dst == src || parent[dst] == usize::MAX {
                    continue;
                }
                // Walk back from dst to find the first hop out of src.
                let mut cur = dst;
                while parent[cur] != src {
                    cur = parent[cur];
                }
                tables[src][dst] = Some(NodeId(cur as u16));
            }
        }
        Arc::new(tables)
    }

    fn forward(&self, ctx: &mut Ctx, mut data: DataPacket) {
        if data.dst == self.id {
            ctx.deliver(data);
            return;
        }
        if data.ttl == 0 {
            ctx.drop_data(data, DropReason::TtlExpired);
            return;
        }
        data.ttl -= 1;
        match self.next_hop.get(data.dst.index()).copied().flatten() {
            Some(next) => ctx.send_data(next, data),
            None => ctx.drop_data(data, DropReason::NoRoute),
        }
    }
}

impl RoutingProtocol for StaticRouting {
    fn name(&self) -> &'static str {
        "Static"
    }

    fn handle_data_origination(&mut self, ctx: &mut Ctx, data: DataPacket) {
        self.forward(ctx, data);
    }

    fn handle_data_packet(&mut self, ctx: &mut Ctx, _prev_hop: NodeId, data: DataPacket) {
        self.forward(ctx, data);
    }

    fn handle_control(
        &mut self,
        _ctx: &mut Ctx,
        _prev_hop: NodeId,
        _ctrl: &ControlPacket,
        _was_broadcast: bool,
    ) {
    }

    fn handle_timer(&mut self, _ctx: &mut Ctx, _token: u64) {}

    fn handle_unicast_failure(&mut self, ctx: &mut Ctx, _next_hop: NodeId, packet: Packet) {
        if let PacketBody::Data(data) = packet.body {
            ctx.drop_data(data, DropReason::Other);
        }
    }

    fn route_table_dump(&self) -> Vec<RouteDump> {
        self.next_hop
            .iter()
            .enumerate()
            .filter_map(|(dst, nh)| {
                nh.map(|n| RouteDump {
                    dest: NodeId(dst as u16),
                    next: n,
                    dist: 0,
                    feasible_dist: None,
                    seqno: None,
                    valid: true,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::successors;

    #[test]
    fn line_tables_point_along_the_chain() {
        let t = StaticRouting::tables_for_line(4);
        // From node 0 towards node 3: next hop 1.
        assert_eq!(t[0][3], Some(NodeId(1)));
        assert_eq!(t[1][3], Some(NodeId(2)));
        assert_eq!(t[2][3], Some(NodeId(3)));
        assert_eq!(t[3][0], Some(NodeId(2)));
        assert_eq!(t[2][2], None);
    }

    #[test]
    fn disconnected_nodes_have_no_route() {
        // Two components: {0,1} and {2}.
        let adj = vec![vec![1], vec![0], vec![]];
        let t = StaticRouting::from_adjacency(&adj);
        assert_eq!(t[0][1], Some(NodeId(1)));
        assert_eq!(t[0][2], None);
        assert_eq!(t[2][0], None);
    }

    #[test]
    fn shortest_path_prefers_fewer_hops() {
        // Square with diagonal 0-2: route 0->2 is direct.
        let adj = vec![vec![1, 2, 3], vec![0, 2], vec![0, 1, 3], vec![0, 2]];
        let t = StaticRouting::from_adjacency(&adj);
        assert_eq!(t[0][2], Some(NodeId(2)));
        assert_eq!(t[1][3], Some(NodeId(0)).or(t[1][3]), "either 2-hop path is fine");
    }

    #[test]
    fn successors_listed_for_auditor() {
        let t = StaticRouting::tables_for_line(3);
        let p = StaticRouting::new(NodeId(0), t);
        let succ = successors(&p.route_table_dump());
        assert!(succ.contains(&(NodeId(1), NodeId(1))));
        assert!(succ.contains(&(NodeId(2), NodeId(1))));
        assert_eq!(p.route_table_dump().len(), 2);
    }
}
