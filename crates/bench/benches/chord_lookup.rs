//! The DHT substrate cost: `Map()` routing hops and latency vs ring size
//! (Chord's O(log S), which every CLASH probe pays).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use clash_chord::id::ChordId;
use clash_chord::net::SimNet;
use clash_keyspace::hash::HashSpace;
use clash_simkernel::rng::DetRng;

fn bench_lookup_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("chord find_successor");
    for &n in &[64usize, 256, 1000] {
        let mut rng = DetRng::new(1);
        let mut net = SimNet::with_random_nodes(HashSpace::PAPER, n, &mut rng);
        net.build_stable();
        let starts = net.node_ids();
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                i = (i + 1) % starts.len();
                let h = (i as u64).wrapping_mul(0x9E37_79B9) & 0xFF_FFFF;
                black_box(net.route(starts[i], h))
            })
        });
    }
    group.finish();
}

/// The ring `churn_wan` routes over: 1000 servers on the paper's 24-bit
/// space, built the way `ClashCluster` builds it, then churned — crashes
/// leave identifiers behind and joins land between maintenance — with
/// each membership change followed by the direct stabilization the
/// cluster runs. Lookups go through `route_with_path`, the call every
/// locate probe makes.
fn bench_churn_wan_ring(c: &mut Criterion) {
    let mut rng = DetRng::new(3);
    let mut net = SimNet::with_random_nodes(HashSpace::PAPER, 1000, &mut rng);
    net.build_stable();
    for round in 0..50 {
        let ids = net.node_ids();
        let member = ids[rng.uniform_index(ids.len())];
        if round % 2 == 0 {
            net.fail(member);
        } else {
            let joiner = ChordId::new(rng.next_u64(), HashSpace::PAPER);
            net.join(joiner, member);
        }
        net.stabilize_direct();
    }
    let starts = net.node_ids();
    let mut i = 0usize;
    c.bench_function(
        "chord route_with_path (churn_wan ring, 1000 nodes, 24-bit)",
        |b| {
            b.iter(|| {
                i = (i + 1) % starts.len();
                let h = (i as u64).wrapping_mul(0x9E37_79B9) & 0xFF_FFFF;
                black_box(net.route_with_path(starts[i], h))
            })
        },
    );
}

fn bench_stabilization_round(c: &mut Criterion) {
    let mut rng = DetRng::new(2);
    let mut net = SimNet::with_random_nodes(HashSpace::PAPER, 256, &mut rng);
    net.build_stable();
    c.bench_function("chord stabilize_round (256 nodes, converged)", |b| {
        b.iter(|| black_box(net.stabilize_round()))
    });
}

criterion_group!(
    benches,
    bench_lookup_scaling,
    bench_churn_wan_ring,
    bench_stabilization_round
);
criterion_main!(benches);
