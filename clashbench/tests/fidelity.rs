//! The benchmark's scenario loop drives exactly the work the experiment
//! driver does: on small instances of `churn_wan` and `paper_queries`,
//! `clashbench::scenario::run` and `SimDriver::run_with_cluster` agree
//! on every counter, and tracing changes nothing but wall time.

use clash_sim::driver::{RunResult, SimDriver};
use clash_transport::LinkTransport;
use clashbench::scenario::{self, Scenario, ScenarioRun};
use clashbench::trace::{Layer, Off, Recorder};

fn driver_run(s: &Scenario) -> RunResult {
    let transport = Box::new(LinkTransport::new(s.links, s.spec.seed));
    let driver =
        SimDriver::with_transport(s.config, s.spec.clone(), "fidelity".to_owned(), transport)
            .expect("driver builds");
    let (result, cluster) = driver.run_with_cluster().expect("driver runs");
    cluster.verify_consistency();
    result
}

fn assert_same_work(ours: &ScenarioRun, theirs: &RunResult) {
    let stats = ours.cluster.message_stats();
    assert_eq!(ours.scheduled, theirs.events, "events");
    assert_eq!(stats, theirs.final_messages, "message stats");
    assert_eq!(
        (stats.splits, stats.merges),
        (theirs.splits, theirs.merges),
        "splits/merges"
    );
    assert_eq!(
        (stats.joins, stats.leaves, ours.crashes),
        (theirs.joins, theirs.leaves, theirs.crashes),
        "joins/leaves/crashes"
    );
    assert_eq!(ours.recovery, theirs.recovery, "recovery totals");
    assert_eq!(ours.load_checks, theirs.load_checks, "load checks");
    assert_eq!(ours.samples.len(), theirs.samples.len(), "samples");
    for (i, (o, t)) in ours.samples.iter().zip(&theirs.samples).enumerate() {
        assert_eq!(o.max_load_pct, t.max_load_pct, "sample {i} max load");
        assert_eq!(o.active_servers, t.active_servers, "sample {i} active");
        assert_eq!(
            o.ctrl_msgs_per_sec_per_server, t.ctrl_msgs_per_sec_per_server,
            "sample {i} control rate"
        );
        assert_eq!(o.server_count, t.server_count, "sample {i} servers");
    }
}

fn check(s: &Scenario) -> (ScenarioRun, RunResult) {
    let ours = scenario::run(s, &mut Off).expect("benchmark loop runs");
    let theirs = driver_run(s);
    assert_same_work(&ours, &theirs);
    (ours, theirs)
}

#[test]
fn churn_wan_loop_matches_the_driver() {
    for seed in [1, 2] {
        let (_, theirs) = check(&Scenario::churn_wan(64, 30, seed));
        assert!(
            theirs.joins + theirs.leaves + theirs.crashes > 0,
            "churn ran"
        );
        assert!(theirs.splits > 0, "the tree split");
    }
}

#[test]
fn paper_queries_loop_matches_the_driver() {
    let (ours, theirs) = check(&Scenario::paper_queries(0.05, 20, 3));
    assert!(ours.cluster.query_count() > 0, "query clients attached");
    assert!(theirs.splits > 0, "the tree split");
}

#[test]
fn tracing_changes_no_counter() {
    let s = Scenario::churn_wan(64, 30, 5);
    let untraced = scenario::run(&s, &mut Off).expect("untraced run");
    let mut recorder = Recorder::new();
    let traced = scenario::run(&s, &mut recorder).expect("traced run");
    assert_eq!(
        untraced.cluster.message_stats(),
        traced.cluster.message_stats()
    );
    assert_eq!(untraced.samples, traced.samples);
    assert_eq!(untraced.dispatched, traced.dispatched);
    let moves = recorder
        .spans
        .iter()
        .filter(|sp| sp.layer == Layer::CoreLocate && sp.event > 0)
        .count();
    assert!(moves > 0, "the loop's source moves were traced");
}
