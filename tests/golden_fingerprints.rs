//! Golden pins: absolute digests of three small seeded runs.
//!
//! Every other equivalence suite in this repository is *relative* — it
//! runs one scenario two ways (sequential vs batched, dirty-tracked vs
//! full-scan, traced vs untraced) and demands equal results. A change to
//! code both ways share, such as the Chord router every probe goes
//! through, passes all of them while silently changing what the
//! simulation computes. These pins close that gap: each run's
//! deterministic outputs are folded into a 64-bit FNV-1a digest and
//! compared against a literal constant.
//!
//! The digest covers `RunResult::deterministic_fingerprint()` (where the
//! run goes through the driver), the final `MessageStats`,
//! `TransportStats` and the ring's `NetStats` (lookup and hop counts).
//!
//! A change that is meant to alter simulated behaviour must update the
//! constants and say why; a pure speed-up or refactor must leave them
//! untouched. On a mismatch the test prints the new digest.

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_keyspace::key::Key;
use clash_sim::driver::SimDriver;
use clash_simkernel::rng::DetRng;
use clash_simkernel::time::SimDuration;
use clash_transport::{LinkPolicy, LinkTransport, Transport};
use clash_workload::churn::ChurnSpec;
use clash_workload::scenario::ScenarioSpec;
use clash_workload::skew::{Workload, WorkloadKind};

/// 64-bit FNV-1a: a fixed, dependency-free hash, so the constants below
/// do not move with the standard library's hasher.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds a run's own fingerprint and the cluster's final counters into
/// one digest.
fn digest(fingerprint: &str, cluster: &ClashCluster) -> u64 {
    fnv1a(&format!(
        "{fingerprint}|{:?}|{:?}|{:?}",
        cluster.message_stats(),
        cluster.transport_stats(),
        cluster.net().stats(),
    ))
}

fn assert_pinned(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: golden digest moved to {got:#018x} — simulated behaviour changed"
    );
}

/// The small Figure-4-style scenario the equivalence suites share.
fn small_spec() -> ScenarioSpec {
    ScenarioSpec {
        servers: 16,
        sources: 300,
        query_clients: 20,
        load_check_period: SimDuration::from_secs(60),
        sample_period: SimDuration::from_secs(60),
        ..ScenarioSpec::paper().with_phase_duration(SimDuration::from_mins(5))
    }
}

fn driver_digest(spec: ScenarioSpec, config: ClashConfig, links: LinkPolicy) -> u64 {
    let transport: Box<dyn Transport> = Box::new(LinkTransport::new(links, spec.seed));
    let (result, cluster) =
        SimDriver::with_transport(config, spec, "CLASH/golden".to_owned(), transport)
            .expect("valid scenario")
            .run_with_cluster()
            .expect("run completes");
    cluster.verify_consistency();
    digest(&result.deterministic_fingerprint(), &cluster)
}

/// WAN links, r = 2, sustained joins and drains, single crashes and
/// correlated crash bursts: every membership path of the ring.
#[test]
fn golden_wan_churn_with_crash_bursts() {
    let spec = small_spec().with_churn(
        ChurnSpec::sustained(SimDuration::from_mins(2), SimDuration::from_mins(3), 8, 64)
            .with_crashes(SimDuration::from_mins(4))
            .with_crash_bursts(SimDuration::from_mins(6), 3),
    );
    let config = ClashConfig {
        capacity: 60.0,
        ..ClashConfig::paper()
    }
    .with_replication(2);
    let got = driver_digest(spec, config, LinkPolicy::wan());
    assert_pinned("wan churn r=2", got, 0x8b78_278a_7931_680a);
}

/// The paper's A→B→C scenario with continuous query clients, fixed
/// membership, r = 0, LAN links.
#[test]
fn golden_paper_scenario_with_queries_on_lan() {
    let config = ClashConfig {
        capacity: 60.0,
        ..ClashConfig::paper()
    };
    let got = driver_digest(small_spec(), config, LinkPolicy::lan());
    assert_pinned("paper queries lan", got, 0x27ad_f971_8ecb_c05a);
}

/// Lossy WAN links and a two-island partition, driven through the
/// cluster API: refused locates under the cut, load checks with lost
/// reports, a crash burst and replacement joins after the heal.
#[test]
fn golden_lossy_wan_with_partition() {
    let seed = 5;
    let config = ClashConfig {
        capacity: 500.0,
        ..ClashConfig::paper()
    }
    .with_replication(2);
    let transport = Box::new(LinkTransport::new(LinkPolicy::lossy_wan(0.05), seed));
    let mut cluster = ClashCluster::with_transport(config, 24, seed, transport).unwrap();
    let workload = Workload::paper(WorkloadKind::C);
    let mut rng = DetRng::new(seed).substream("golden-partition");
    for source in 0..1200u64 {
        let key = workload.sample_key(config.key_width, &mut rng);
        cluster.attach_source(source, key, 2.0).unwrap();
    }
    for _ in 0..2 {
        cluster.run_load_check().unwrap();
    }

    let ids = cluster.server_ids();
    let (left, right) = ids.split_at(ids.len() / 2);
    cluster.partition_network(&[left.to_vec(), right.to_vec()]);
    let (mut ok, mut refused) = (0u64, 0u64);
    for _ in 0..200 {
        let key = Key::from_bits_truncated(rng.next_u64(), config.key_width);
        match cluster.locate(key) {
            Ok(_) => ok += 1,
            Err(ClashError::NetworkUnreachable { .. }) => refused += 1,
            Err(e) => panic!("unexpected error under the partition: {e}"),
        }
    }
    cluster.run_load_check().unwrap();
    cluster.heal_partition();

    let ids = cluster.server_ids();
    let first = ids[rng.uniform_index(ids.len())];
    let mut burst = vec![first];
    burst.extend(cluster.net().alive_successors(first, 2));
    let failure = cluster.fail_servers(&burst).unwrap();
    for _ in 0..3 {
        cluster.join_random_server().unwrap();
    }
    for source in 0..300u64 {
        let key = workload.sample_key(config.key_width, &mut rng);
        if cluster.has_source(source) {
            cluster.move_source(source, key).unwrap();
        }
    }
    for _ in 0..3 {
        cluster.run_load_check().unwrap();
    }
    cluster.verify_consistency();
    let fingerprint = format!(
        "{ok}|{refused}|{failure:?}|{:?}|{:?}",
        cluster.server_ids(),
        cluster.global_cover(),
    );
    assert!(refused > 0, "the partition must refuse some locates");
    assert_pinned(
        "lossy wan partition",
        digest(&fingerprint, &cluster),
        0x56d1_6151_7e80_2084,
    );
}
