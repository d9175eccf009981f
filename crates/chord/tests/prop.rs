//! Property-based tests for ring arithmetic and routing correctness.
//! Routed lookups are checked against the test-only reference walk
//! (`reference/mod.rs`) hop for hop, and against linear-scan ground
//! truth.

mod reference;

use clash_chord::id::ChordId;
use clash_chord::net::{LookupResult, SimNet};
use clash_keyspace::hash::HashSpace;
use clash_simkernel::rng::DetRng;
use proptest::prelude::*;

fn sp() -> HashSpace {
    HashSpace::new(16).unwrap()
}

proptest! {
    /// Exactly one of: x ∈ (a,b), x == a, x == b, x ∈ (b,a) — the ring is
    /// partitioned by any two distinct points.
    #[test]
    fn ring_partition_by_two_points(x in 0u64..65536, a in 0u64..65536, b in 0u64..65536) {
        prop_assume!(a != b);
        let (x, a, b) = (ChordId::new(x, sp()), ChordId::new(a, sp()), ChordId::new(b, sp()));
        let cases = [
            x.in_open_interval(a, b),
            x == a,
            x == b,
            x.in_open_interval(b, a),
        ];
        prop_assert_eq!(cases.iter().filter(|&&c| c).count(), 1);
    }

    /// (a, b] = (a, b) ∪ {b}.
    #[test]
    fn half_open_is_open_plus_endpoint(x in 0u64..65536, a in 0u64..65536, b in 0u64..65536) {
        prop_assume!(a != b);
        let (x, a, b) = (ChordId::new(x, sp()), ChordId::new(a, sp()), ChordId::new(b, sp()));
        prop_assert_eq!(
            x.in_half_open_interval(a, b),
            x.in_open_interval(a, b) || x == b
        );
    }

    /// Distance is a ring metric: d(a,b) + d(b,a) == ring size (for a ≠ b),
    /// and d(a,a) == 0.
    #[test]
    fn distance_antisymmetry(a in 0u64..65536, b in 0u64..65536) {
        let (ia, ib) = (ChordId::new(a, sp()), ChordId::new(b, sp()));
        prop_assert_eq!(ia.distance_to(ia), 0);
        if a != b {
            prop_assert_eq!(
                u128::from(ia.distance_to(ib)) + u128::from(ib.distance_to(ia)),
                sp().size()
            );
        }
    }

    /// On a stabilized ring, routed lookups from any start agree with the
    /// ground-truth successor, within the Chord hop bound.
    #[test]
    fn routed_lookup_matches_ground_truth(
        seed in 0u64..1000,
        n in 2usize..80,
        hashes in prop::collection::vec(0u64..65536, 1..20),
    ) {
        let mut rng = DetRng::new(seed);
        let mut net = SimNet::with_random_nodes(sp(), n, &mut rng);
        net.build_stable();
        let starts = net.node_ids();
        for (i, h) in hashes.into_iter().enumerate() {
            let start = starts[i % starts.len()];
            let (r, path) = net.find_successor_path(start, h);
            prop_assert_eq!((r, path), reference::route(&net, start, h));
            prop_assert_eq!(Some(r.owner), reference::owner(&net, h));
            // Perfect fingers: hops ≤ log2(n) + small constant.
            let bound = (n as f64).log2().ceil() as u32 + 3;
            prop_assert!(r.hops <= bound, "hops {} > bound {}", r.hops, bound);
        }
    }

    /// After arbitrary failures plus maintenance, routing still matches
    /// ground truth among survivors.
    #[test]
    fn routing_correct_after_failures(
        seed in 0u64..500,
        n in 4usize..40,
        kill_pattern in prop::collection::vec(any::<bool>(), 40),
    ) {
        let mut rng = DetRng::new(seed);
        let mut net = SimNet::with_random_nodes(sp(), n, &mut rng);
        net.build_stable();
        let ids = net.node_ids();
        let mut alive = n;
        for (i, &kill) in kill_pattern.iter().take(n).enumerate() {
            if kill && alive > 1 {
                net.fail(ids[i]);
                alive -= 1;
            }
        }
        net.stabilize_until_converged(128);
        prop_assert!(net.is_fully_stabilized());
        let starts = net.node_ids();
        for h in [0u64, 1000, 30000, 65535] {
            let start = starts[h as usize % starts.len()];
            let (r, path) = net.find_successor_path(start, h);
            prop_assert_eq!((r, path), reference::route(&net, start, h));
            prop_assert_eq!(Some(r.owner), reference::owner(&net, h));
        }
    }
}
