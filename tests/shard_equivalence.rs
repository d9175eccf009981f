//! Differential pins for the ring-arc sharded locate path
//! (PR: sharded parallel simulation).
//!
//! `ClashConfig::shards = n` batches client locates per key-space arc:
//! ops are *planned* synchronously (every RNG draw and ledger mutation
//! in op order), their DHT routing resolves over the ring's routing
//! table — on worker threads when `n > 1` — and the results are charged through
//! a deterministic merge queue at the next barrier. The invariant is
//! absolute: **zero protocol-behavior change** — same seed ⇒ identical
//! `RunResult`, bit for bit, for every shard count including the
//! sequential `shards = 0`, at any replication factor, with or without
//! churn and crash bursts, on any thread schedule.
//!
//! `RunResult::deterministic_fingerprint()` digests every deterministic
//! field (samples, phases, message stats, action and recovery totals);
//! comparing fingerprints makes a divergence print both full states.

use clash_core::config::ClashConfig;
use clash_sim::driver::{RunResult, SimDriver};
use clash_simkernel::time::SimDuration;
use clash_transport::{LinkPolicy, LinkTransport, Transport};
use clash_workload::churn::ChurnSpec;
use clash_workload::scenario::ScenarioSpec;

/// The Figure-4-style pin scenario: three workload phases, no churn.
fn pin_spec() -> ScenarioSpec {
    ScenarioSpec {
        servers: 16,
        sources: 300,
        query_clients: 20,
        load_check_period: SimDuration::from_secs(60),
        sample_period: SimDuration::from_secs(60),
        ..ScenarioSpec::paper().with_phase_duration(SimDuration::from_mins(5))
    }
}

/// Sustained joins/drains plus single crashes: every membership event
/// is a flush barrier interleaving with open batch windows.
fn churn_spec() -> ScenarioSpec {
    pin_spec().with_churn(
        ChurnSpec::sustained(SimDuration::from_mins(2), SimDuration::from_mins(3), 8, 64)
            .with_crashes(SimDuration::from_mins(4)),
    )
}

/// Correlated crash bursts layered on the churn: simultaneous
/// multi-server failures patch the routing table between batches and
/// hit the replication recovery machinery at once.
fn burst_spec() -> ScenarioSpec {
    pin_spec().with_churn(
        ChurnSpec::sustained(SimDuration::from_mins(2), SimDuration::from_mins(3), 8, 64)
            .with_crash_bursts(SimDuration::from_mins(6), 3),
    )
}

/// A flash crowd: a rapid join ramp mid-run. Every joining server lands
/// on some arc and immediately participates in split placement and
/// replica sweeps — the membership pattern most likely to expose a
/// shard-count dependence in the arc-sharded candidate sets.
fn flash_spec() -> ScenarioSpec {
    pin_spec().with_churn(ChurnSpec::flash_crowd(
        SimDuration::from_mins(3),
        24,
        SimDuration::from_secs(10),
    ))
}

fn run(spec: ScenarioSpec, replication: usize, shards: u32) -> RunResult {
    let config = ClashConfig {
        capacity: 60.0,
        ..ClashConfig::paper()
    }
    .with_replication(replication)
    .with_shards(shards);
    let transport: Box<dyn Transport> = Box::new(LinkTransport::new(LinkPolicy::wan(), spec.seed));
    let (result, cluster) =
        SimDriver::with_transport(config, spec, "CLASH/shard-equiv".to_owned(), transport)
            .unwrap()
            .run_with_cluster()
            .unwrap();
    cluster.verify_consistency();
    result
}

fn assert_equal_runs(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(
        a.final_messages, b.final_messages,
        "{label}: MessageStats diverged between shard counts"
    );
    assert_eq!(a.samples, b.samples, "{label}: sampled series diverged");
    assert_eq!(a.events, b.events, "{label}: event counts diverged");
    assert_eq!(
        (a.splits, a.merges, a.joins, a.leaves, a.crashes),
        (b.splits, b.merges, b.joins, b.leaves, b.crashes),
        "{label}: action totals diverged"
    );
    assert_eq!(a.recovery, b.recovery, "{label}: recovery totals diverged");
    assert_eq!(
        a.load_checks, b.load_checks,
        "{label}: check counts diverged"
    );
    assert_eq!(
        a.deterministic_fingerprint(),
        b.deterministic_fingerprint(),
        "{label}: deterministic fingerprints diverged"
    );
}

/// The headline pin: with N = 1 the batched plan/route/merge-charge
/// path must reproduce the sequential run *bit for bit* — Figure-4,
/// churn and crash-burst scenarios, r = 0 and r = 2, three seeds each.
#[test]
fn single_shard_batching_matches_sequential_bit_for_bit() {
    type SpecFn = fn() -> ScenarioSpec;
    let scenarios: [(&str, SpecFn); 3] = [
        ("fig4", pin_spec),
        ("churn", churn_spec),
        ("burst", burst_spec),
    ];
    for (name, make_spec) in scenarios {
        for replication in [0usize, 2] {
            for seed in [1u64, 42, 0xBEEF] {
                let mut spec = make_spec();
                spec.seed = seed;
                let sequential = run(spec.clone(), replication, 0);
                let sharded = run(spec, replication, 1);
                assert_equal_runs(
                    &sequential,
                    &sharded,
                    &format!("{name} r={replication} seed={seed}"),
                );
            }
        }
    }
}

/// Real multi-shard runs (worker threads live): N ∈ {2, 4, 8} must all
/// produce the same `RunResult` as each other *and* as the sequential
/// run — determinism across thread counts, not merely across repeats.
/// Pinned on the two nastiest membership patterns (crash bursts and a
/// flash-crowd join ramp) at r ∈ {0, 2}.
#[test]
fn shard_counts_two_four_eight_agree() {
    type SpecFn = fn() -> ScenarioSpec;
    let scenarios: [(&str, SpecFn); 2] = [("burst", burst_spec), ("flash", flash_spec)];
    for (name, make_spec) in scenarios {
        for replication in [0usize, 2] {
            let baseline = run(make_spec(), replication, 0);
            for shards in [2u32, 4, 8] {
                let sharded = run(make_spec(), replication, shards);
                assert_equal_runs(
                    &baseline,
                    &sharded,
                    &format!("{name} r={replication} shards={shards}"),
                );
            }
            if name == "burst" {
                assert!(baseline.crashes > 0, "burst scenario must crash servers");
            } else {
                assert!(baseline.joins >= 24, "flash crowd must join its servers");
            }
        }
    }
}

/// Repeated multi-shard runs are self-identical: the thread schedule of
/// one run never leaks into the result (the per-flush substream shuffle
/// deliberately adversarializes the shard-local order, so any
/// order-dependence would show up here as flakiness).
#[test]
fn multi_shard_runs_are_self_deterministic() {
    let a = run(churn_spec(), 2, 4);
    let b = run(churn_spec(), 2, 4);
    assert_equal_runs(&a, &b, "repeat shards=4");
}

/// The CI matrix leg: `CLASH_SHARDS` (1 and 4 in CI) selects the shard
/// count, and the run must match the sequential baseline exactly.
#[test]
fn env_selected_shards_match_sequential() {
    let shards = ClashConfig::shards_from_env();
    let sequential = run(churn_spec(), 2, 0);
    let sharded = run(churn_spec(), 2, shards);
    assert_equal_runs(&sequential, &sharded, &format!("CLASH_SHARDS={shards}"));
}
