//! The `partition_faults` operation loop: rounds of source moves,
//! lookups and load checks on a heated ring, interleaved with two-island
//! partitions, heals, crash bursts, a graceful leave and replacement
//! joins (in the style of the `netfault` and `chaos` experiments).
//!
//! A round stands for one load-check period ([`ROUND`]) of virtual time,
//! which is the window the per-server message rates are taken over.

use std::time::Instant;

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_core::ServerId;
use clash_keyspace::key::Key;
use clash_obs::WallProfiler;
use clash_simkernel::rng::DetRng;
use clash_simkernel::time::{SimDuration, SimTime};
use clash_transport::{LinkPolicy, LinkTransport};
use clash_workload::skew::{Workload, WorkloadKind};

use crate::scenario::Timing;
use crate::trace::{Layer, Probe};
use crate::{absorb_check, absorb_crash, memory_bytes, RecoveryTotals, Sample, SampleBase};

/// Virtual time one round stands for.
const ROUND: SimDuration = SimDuration::from_secs(60);

/// Rounds per fault cycle; the fault steps below are offsets into it.
/// Round 0 refills the ring with replacement joins, then severs the
/// network until round 3.
const CYCLE: u32 = 8;
const PARTITION_AT: u32 = 0;
const HEAL_AT: u32 = 3;
const LEAVE_AT: u32 = 7;

/// Whether round `step` of a cycle starts with a crash burst: one in
/// each round from the heal to the graceful leave. Never under the
/// partition: a burst there makes the first moves after the heal fail
/// with `SearchDiverged` (`tests/known_defects.rs`).
fn burst_at(step: u32) -> bool {
    matches!(step, 3..=6)
}

/// Per-source rate, packets/s: the paper's workload-C rate.
const SOURCE_RATE: f64 = 2.0;

/// Load checks allowed after the last round for deferred recoveries to
/// resolve on the healed network.
const SETTLE_CHECKS: u32 = 8;

/// The shape of one `partition_faults` run.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Servers in the initial ring.
    pub servers: usize,
    /// Workload-C sources per server.
    pub sources_per_server: u64,
    /// Per-transmission loss probability of the lossy WAN links.
    pub drop_probability: f64,
    /// Rounds in the measured loop.
    pub rounds: u32,
    /// Source moves (or re-attaches) per round.
    pub moves_per_round: u32,
    /// Uniform-key lookups per round.
    pub locates_per_round: u32,
    /// Servers per crash burst: a server plus its ring successors.
    pub burst_size: usize,
    /// Root seed.
    pub seed: u64,
}

impl FaultPlan {
    /// The protocol configuration: r = 2, capacity lowered with the
    /// source density (the `netfault` heated ring's 1000 at 100 sources
    /// per server) so workload C keeps the tree splitting.
    pub fn config(&self) -> ClashConfig {
        ClashConfig {
            capacity: 10.0 * self.sources_per_server as f64,
            ..ClashConfig::paper()
        }
        .with_replication(2)
    }
}

/// What one `partition_faults` run produced.
pub struct FaultRun {
    /// The cluster after the run, healed.
    pub cluster: ClashCluster,
    /// Wall-clock split.
    pub timing: Timing,
    /// Cluster operations issued by the measured loop.
    pub ops: u64,
    /// Operations refused with `NetworkUnreachable` while partitioned.
    pub refused: u64,
    /// Servers crashed.
    pub crashes: u64,
    /// Servers joined.
    pub joins: u64,
    /// Servers drained.
    pub leaves: u64,
    /// Crash-recovery totals.
    pub recovery: RecoveryTotals,
    /// Load checks run.
    pub load_checks: u64,
    /// One sample per round.
    pub samples: Vec<Sample>,
}

struct Loop<'p, P: Probe> {
    plan: FaultPlan,
    cluster: ClashCluster,
    rng: DetRng,
    workload: Workload,
    ops: u64,
    refused: u64,
    crashes: u64,
    joins: u64,
    leaves: u64,
    /// Servers lost since the last replacement joins.
    to_replace: usize,
    recovery: RecoveryTotals,
    load_checks: u64,
    probe: &'p mut P,
}

/// Runs `plan`, reporting every call to `probe`.
///
/// # Errors
///
/// Propagates every protocol error except `NetworkUnreachable` while the
/// network is partitioned, which is the protocol's specified answer
/// there and is counted as a refusal.
pub fn run<P: Probe>(plan: &FaultPlan, probe: &mut P) -> Result<FaultRun, ClashError> {
    let rss_before = memory_bytes().1;
    let started = Instant::now();
    let config = plan.config();
    let transport = Box::new(LinkTransport::new(
        LinkPolicy::lossy_wan(plan.drop_probability),
        plan.seed,
    ));
    let mut cluster = ClashCluster::with_transport(config, plan.servers, plan.seed, transport)?;
    cluster.set_profiler(Box::new(WallProfiler::default()));
    let build = started.elapsed();

    let started = Instant::now();
    let workload = Workload::paper(WorkloadKind::C);
    let mut rng = DetRng::new(plan.seed).substream("partition-faults");
    for source in 0..plan.servers as u64 * plan.sources_per_server {
        let key = workload.sample_key(config.key_width, &mut rng);
        cluster.attach_source(source, key, SOURCE_RATE)?;
    }
    // Heat the ring: reports flow, the hot groups split.
    for _ in 0..2 {
        cluster.run_load_check()?;
    }
    let mut base = SampleBase::new(&cluster);
    let attach = started.elapsed();
    let rss_after_setup = memory_bytes().1;

    let started = Instant::now();
    let mut l = Loop {
        plan: *plan,
        cluster,
        rng,
        workload,
        ops: 0,
        refused: 0,
        crashes: 0,
        joins: 0,
        leaves: 0,
        to_replace: 0,
        recovery: RecoveryTotals::default(),
        load_checks: 0,
        probe,
    };
    let mut samples = Vec::with_capacity(plan.rounds as usize);
    for round in 0..plan.rounds {
        l.probe.event(round + 1);
        l.cluster.set_now(SimTime::ZERO + ROUND * u64::from(round));
        let step = round % CYCLE;
        let partitioned = l.cluster.network_is_partitioned();
        match step {
            PARTITION_AT if !partitioned => {
                l.replace()?;
                l.partition();
            }
            HEAL_AT => l.heal(),
            _ => {}
        }
        if burst_at(step) {
            l.crash_burst()?;
        }
        if step == LEAVE_AT && !partitioned {
            l.leave()?;
        }
        for _ in 0..plan.moves_per_round {
            l.move_source()?;
        }
        for _ in 0..plan.locates_per_round {
            l.locate()?;
        }
        l.load_check()?;
        let cluster = &l.cluster;
        samples.push(
            l.probe
                .span(Layer::CoreSample, || base.sample(cluster, ROUND)),
        );
    }
    l.probe.event(plan.rounds + 1);
    if l.cluster.network_is_partitioned() {
        l.heal();
    }
    for _ in 0..SETTLE_CHECKS {
        if l.cluster.pending_recoveries() == 0 {
            break;
        }
        l.load_check()?;
    }
    let run = started.elapsed();
    Ok(FaultRun {
        cluster: l.cluster,
        timing: Timing {
            rss_before,
            rss_after_setup,
            build,
            attach,
            run,
        },
        ops: l.ops,
        refused: l.refused,
        crashes: l.crashes,
        joins: l.joins,
        leaves: l.leaves,
        recovery: l.recovery,
        load_checks: l.load_checks,
        samples,
    })
}

impl<P: Probe> Loop<'_, P> {
    /// Counts one operation's outcome: refusals are expected only while
    /// the network is severed.
    fn outcome<T>(&mut self, result: Result<T, ClashError>) -> Result<Option<T>, ClashError> {
        self.ops += 1;
        match result {
            Ok(v) => Ok(Some(v)),
            Err(ClashError::NetworkUnreachable { .. }) if self.cluster.network_is_partitioned() => {
                self.refused += 1;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn server_ids(&mut self) -> Vec<ServerId> {
        let cluster = &self.cluster;
        self.probe.span(Layer::CoreMembers, || cluster.server_ids())
    }

    fn draw_index(&mut self, len: usize) -> usize {
        let rng = &mut self.rng;
        self.probe
            .span(Layer::WorkloadDraw, || rng.uniform_index(len))
    }

    /// Two islands: every server lands on either side with even odds,
    /// so most multi-hop routes cross the cut.
    fn partition(&mut self) {
        let ids = self.server_ids();
        let rng = &mut self.rng;
        let (left, right): (Vec<ServerId>, Vec<ServerId>) =
            self.probe.span(Layer::WorkloadDraw, || {
                ids.into_iter().partition(|_| rng.chance(0.5))
            });
        let cluster = &mut self.cluster;
        self.probe.span(Layer::CoreFault, || {
            cluster.partition_network(&[left, right]);
        });
        self.ops += 1;
    }

    fn heal(&mut self) {
        let cluster = &mut self.cluster;
        self.probe
            .span(Layer::CoreFault, || cluster.heal_partition());
        self.ops += 1;
    }

    /// A server and its ring successors crash together.
    fn crash_burst(&mut self) -> Result<(), ClashError> {
        let ids = self.server_ids();
        if ids.len() < self.plan.servers / 2 + self.plan.burst_size {
            return Ok(());
        }
        let start = ids[self.draw_index(ids.len())];
        let cluster = &self.cluster;
        let mut victims = vec![start];
        let successors = self.plan.burst_size - 1;
        victims.extend(self.probe.span(Layer::ChordNet, || {
            cluster.net().alive_successors(start, successors)
        }));
        let cluster = &mut self.cluster;
        let report = self
            .probe
            .span(Layer::CoreCrash, || cluster.fail_servers(&victims));
        if let Some(report) = self.outcome(report)? {
            self.crashes += victims.len() as u64;
            self.to_replace += victims.len();
            absorb_crash(&mut self.recovery, &report, true);
        }
        Ok(())
    }

    fn leave(&mut self) -> Result<(), ClashError> {
        let ids = self.server_ids();
        let victim = ids[self.draw_index(ids.len())];
        let cluster = &mut self.cluster;
        let left = self
            .probe
            .span(Layer::CoreLeave, || cluster.leave_server(victim));
        if self.outcome(left)?.is_some() {
            self.leaves += 1;
            self.to_replace += 1;
        }
        Ok(())
    }

    /// Replacement joins for every server lost since the last ones.
    fn replace(&mut self) -> Result<(), ClashError> {
        for _ in 0..std::mem::take(&mut self.to_replace) {
            let cluster = &mut self.cluster;
            let joined = self
                .probe
                .span(Layer::CoreJoin, || cluster.join_random_server());
            if self.outcome(joined)?.is_some() {
                self.joins += 1;
            }
        }
        Ok(())
    }

    /// A random source takes a new workload-C key; a source lost to a
    /// refused move or an unrecoverable group is attached afresh.
    fn move_source(&mut self) -> Result<(), ClashError> {
        let sources = self.plan.servers as u64 * self.plan.sources_per_server;
        let (workload, width, rng) = (
            &self.workload,
            self.cluster.config().key_width,
            &mut self.rng,
        );
        let (source, key) = self.probe.span(Layer::WorkloadDraw, || {
            (rng.uniform_u64(sources), workload.sample_key(width, rng))
        });
        let cluster = &self.cluster;
        let attached = self
            .probe
            .span(Layer::CoreIndex, || cluster.has_source(source));
        let cluster = &mut self.cluster;
        let placed = self.probe.span(Layer::CoreLocate, || {
            if attached {
                cluster.move_source(source, key)
            } else {
                cluster.attach_source(source, key, SOURCE_RATE)
            }
        });
        self.outcome(placed)?;
        Ok(())
    }

    /// A client lookup of a uniform key.
    fn locate(&mut self) -> Result<(), ClashError> {
        let (width, rng) = (self.cluster.config().key_width, &mut self.rng);
        let key = self.probe.span(Layer::WorkloadDraw, || {
            Key::from_bits_truncated(rng.next_u64(), width)
        });
        let cluster = &mut self.cluster;
        let found = self.probe.span(Layer::CoreLocate, || cluster.locate(key));
        self.outcome(found)?;
        Ok(())
    }

    fn load_check(&mut self) -> Result<(), ClashError> {
        let cluster = &mut self.cluster;
        self.probe
            .span(Layer::CoreFlush, || cluster.flush_batch())?;
        let cluster = &mut self.cluster;
        let check = self
            .probe
            .span(Layer::CoreCheck, || cluster.run_load_check());
        if let Some(check) = self.outcome(check)? {
            self.load_checks += 1;
            absorb_check(&mut self.recovery, &check);
        }
        Ok(())
    }
}
