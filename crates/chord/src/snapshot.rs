//! Differential pins for the ring's one router, against a plain snapshot
//! of the node state.
//!
//! [`crate::node::RouteTable`] keeps every alive node's routing state in
//! flat rows with each entry pre-resolved to usable or not, and every
//! membership or maintenance event patches it in place. The reference
//! (`tests/reference/mod.rs`) instead snapshots each node's plain finger
//! table and successor list through [`SimNet::node`] and runs the
//! textbook walk, checking liveness per entry. The tests below require
//! the same owner, hop count and per-hop path on a stable ring, with
//! failures before maintenance, across the join/departure transient and
//! on a single node; the property test requires that after any sequence
//! of membership and maintenance steps the maintained table equals one
//! rebuilt from scratch and still routes like the reference.

#[path = "../tests/reference/mod.rs"]
pub(crate) mod reference;

use crate::id::ChordId;
use crate::net::{LookupResult, SimNet};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::RouteTable;
    use clash_keyspace::hash::HashSpace;
    use clash_simkernel::rng::DetRng;
    use proptest::prelude::*;

    fn space() -> HashSpace {
        HashSpace::new(16).unwrap()
    }

    /// Routes `probes` random lookups both ways and requires identical
    /// results, paths and ground truth, and a table that matches a
    /// rebuild.
    fn assert_routes_match(net: &SimNet, probes: usize, seed: u64, label: &str) {
        net.table().assert_matches_rebuild();
        let starts = net.node_ids();
        let mut rng = DetRng::new(seed);
        for _ in 0..probes {
            let h = rng.next_u64() & space().mask();
            let start = starts[rng.uniform_index(starts.len())];
            let (routed, path) = net.route_with_path(start, h);
            let (want, want_path) = reference::route(net, start, h);
            assert_eq!(routed, want, "{label}: owner/hops diverged for {h:#x}");
            assert_eq!(path, want_path, "{label}: path diverged for {h:#x}");
            assert_eq!(net.route(start, h), routed, "{label}: route vs path");
            assert_eq!(
                net.owner_of(h),
                reference::owner(net, h),
                "{label}: ground truth"
            );
        }
    }

    fn assert_snapshot_matches(net: &SimNet, label: &str) {
        assert_routes_match(net, 400, 0xD1FF, label);
    }

    #[test]
    fn snapshot_routes_match_live_net_on_stable_ring() {
        for (n, seed) in [(3usize, 1u64), (32, 2), (200, 3)] {
            let mut rng = DetRng::new(seed);
            let mut net = SimNet::with_random_nodes(space(), n, &mut rng);
            net.build_stable();
            assert_snapshot_matches(&net, &format!("stable n={n}"));
        }
    }

    #[test]
    fn snapshot_routes_match_live_net_with_unstabilized_failures() {
        // Kill nodes and do NOT run maintenance: successor lists carry
        // corpses, fingers name dead nodes — the table's usable flags
        // must reproduce the per-entry liveness checks exactly.
        let mut rng = DetRng::new(7);
        let mut net = SimNet::with_random_nodes(space(), 96, &mut rng);
        net.build_stable();
        let ids = net.node_ids();
        for &id in ids.iter().step_by(5).take(12) {
            net.fail(id);
        }
        assert_snapshot_matches(&net, "failed, pre-maintenance");
        // Then partially stabilize and re-check.
        net.stabilize_round();
        assert_snapshot_matches(&net, "failed, one round");
        net.stabilize_until_converged(64);
        assert_snapshot_matches(&net, "failed, converged");
    }

    #[test]
    fn snapshot_routes_match_after_joins_and_departures() {
        let mut rng = DetRng::new(11);
        let mut net = SimNet::with_random_nodes(space(), 40, &mut rng);
        net.build_stable();
        let bootstrap = net.node_ids()[0];
        for _ in 0..6 {
            let id = ChordId::new(rng.next_u64(), space());
            net.join(id, bootstrap);
        }
        let leaver = net.node_ids()[9];
        net.remove_node(leaver);
        // Transient state: fresh joins unstabilized, one node vanished
        // (fingers still name it — "usable" must be false for a removed
        // node, not just a dead one).
        assert_snapshot_matches(&net, "post-join/departure transient");
        // A departed identifier may come back: every entry still naming
        // it must become usable again.
        net.join(leaver, bootstrap);
        assert_snapshot_matches(&net, "rejoin of a departed id");
    }

    #[test]
    fn snapshot_single_node_ring() {
        let mut net = SimNet::new(space());
        let id = ChordId::new(42, space());
        net.add_node(id);
        net.build_stable();
        let (r, path) = net.route_with_path(id, 9999);
        assert_eq!((r, path.clone()), reference::route(&net, id, 9999));
        assert_eq!(r.owner, id);
        assert_eq!(r.hops, 0);
        assert!(path.is_empty());
    }

    #[test]
    fn snapshot_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<RouteTable>();
    }

    proptest! {
        /// After every step of a random join / fail / remove / maintenance
        /// sequence, the maintained table equals one rebuilt from scratch
        /// and routes exactly like the reference.
        #[test]
        fn maintained_table_matches_rebuild_and_reference(
            seed in 0u64..1000,
            n in 1usize..24,
            steps in prop::collection::vec((0u8..7, any::<u64>()), 1..24),
        ) {
            let mut rng = DetRng::new(seed);
            let mut net = SimNet::with_random_nodes(space(), n, &mut rng);
            net.set_successor_list_len(3);
            net.build_stable();
            let mut gone: Vec<ChordId> = Vec::new();
            for (i, &(op, arg)) in steps.iter().enumerate() {
                let ids = net.node_ids();
                let pick = ids[arg as usize % ids.len()];
                match op {
                    0 => {
                        net.join(ChordId::new(arg, space()), pick);
                    }
                    1 if ids.len() > 1 => {
                        net.fail(pick);
                        gone.push(pick);
                    }
                    2 if ids.len() > 1 => {
                        net.remove_node(pick);
                        gone.push(pick);
                    }
                    2 | 1 => {}
                    3 => {
                        net.stabilize_round();
                    }
                    4 => {
                        net.fix_fingers_round();
                    }
                    5 => {
                        net.stabilize_direct();
                    }
                    _ => {
                        // A departed or crashed id tries to come back.
                        if let Some(&old) = gone.get(arg as usize % gone.len().max(1)) {
                            net.join(old, pick);
                        }
                    }
                }
                assert_routes_match(&net, 24, arg ^ i as u64, &format!("step {i} op {op}"));
            }
        }
    }
}
