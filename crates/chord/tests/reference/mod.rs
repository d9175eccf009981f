//! Test-only reference router: the textbook Chord walk (Stoica et al.,
//! SIGCOMM 2001, Fig. 5, iterative form) over each node's plain finger
//! table and successor list, read one node at a time through
//! `SimNet::node`, with every candidate's liveness checked through
//! `SimNet::is_alive`. It shares nothing with the ring's router but the
//! node state itself, so the differential tests can pin that router hop
//! for hop against it.
//!
//! Included by the crate's unit tests and its integration tests; the
//! including module imports `ChordId`, `LookupResult` and `SimNet`.

use super::{ChordId, LookupResult, SimNet};

/// Routes a lookup for `h` from the alive node `start`: the owner, the
/// hop count and the `(from, to)` pair of every hop.
pub fn route(net: &SimNet, start: ChordId, h: u64) -> (LookupResult, Vec<(ChordId, ChordId)>) {
    assert!(net.is_alive(start), "lookup must start at an alive node");
    let target = ChordId::new(h, net.space());
    let mut path = Vec::new();
    let mut current = start;
    loop {
        let node = net.node(current).expect("routing only visits known nodes");
        let succs = node.successor_list();
        let succ = succs
            .iter()
            .copied()
            .find(|&s| net.is_alive(s))
            .unwrap_or(current);
        let owner = if target == current || succ == current {
            Some(current)
        } else if target.in_half_open_interval(current, succ) {
            path.push((current, succ));
            Some(succ)
        } else {
            None
        };
        if let Some(owner) = owner {
            let hops = path.len() as u32;
            return (LookupResult { owner, hops }, path);
        }
        // The closest preceding usable finger, else successor-list entry,
        // else the first alive successor.
        let next = node
            .fingers()
            .iter()
            .rev()
            .chain(succs.iter().rev())
            .copied()
            .find(|&c| c.in_open_interval(current, target) && net.is_alive(c))
            .unwrap_or(succ);
        path.push((current, next));
        current = next;
        assert!(path.len() <= 1 << 20, "reference walk cycled");
    }
}

/// Ground truth by linear scan: the first alive node at or after `h`,
/// wrapping to the first node of the ring.
pub fn owner(net: &SimNet, h: u64) -> Option<ChordId> {
    let ids = net.node_ids();
    let h = h & net.space().mask();
    ids.iter()
        .copied()
        .find(|id| id.value() >= h)
        .or_else(|| ids.first().copied())
}
