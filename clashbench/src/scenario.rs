//! The scenario event loop: `SimDriver::run_with_cluster` reproduced
//! call for call, so the benchmark drives the same work the experiments
//! do (pinned by `tests/fidelity.rs`) while timing each call from
//! outside.

use std::time::{Duration, Instant};

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_core::ServerId;
use clash_obs::WallProfiler;
use clash_simkernel::dist::Exponential;
use clash_simkernel::event::EventQueue;
use clash_simkernel::rng::DetRng;
use clash_simkernel::time::{SimDuration, SimTime};
use clash_transport::{LinkPolicy, LinkTransport};
use clash_workload::churn::ChurnSpec;
use clash_workload::scenario::{Phase, ScenarioSpec};
use clash_workload::skew::{Workload, WorkloadKind};
use clash_workload::source::{QueryClientModel, SourceModel};

use crate::trace::{Layer, Probe};
use crate::{absorb_check, absorb_crash, memory_bytes, RecoveryTotals, Sample, SampleBase};

/// A scenario workload: protocol configuration, scenario and links.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Protocol configuration.
    pub config: ClashConfig,
    /// Populations, phases, periods, churn and seed.
    pub spec: ScenarioSpec,
    /// Link model of the cluster's `LinkTransport` (seeded with
    /// `spec.seed`, as the experiments seed it).
    pub links: LinkPolicy,
}

impl Scenario {
    /// `churn_wan`: a `scale` churn cell at `servers` servers — workload
    /// C, 10 sources per server with capacity scaled to the paper's
    /// density, sustained joins/leaves/crashes, r = 2, WAN links.
    pub fn churn_wan(servers: usize, mins: u64, seed: u64) -> Self {
        let sources_per_server = 10;
        let config = ClashConfig {
            capacity: ClashConfig::paper().capacity * sources_per_server as f64 / 100.0,
            ..ClashConfig::paper()
        }
        .with_replication(2);
        let cadence = |secs: u64| SimDuration::from_secs((secs * mins / 30).max(1));
        let spec = ScenarioSpec {
            servers,
            sources: servers * sources_per_server,
            query_clients: 0,
            phases: vec![Phase {
                workload: WorkloadKind::C,
                duration: SimDuration::from_mins(mins),
            }],
            load_check_period: cadence(60),
            sample_period: cadence(5 * 60),
            seed,
            churn: Some(
                ChurnSpec::sustained(
                    cadence(10 * 60),
                    cadence(12 * 60),
                    (servers / 2).max(2),
                    servers * 2,
                )
                .with_crashes(cadence(20 * 60)),
            ),
            ..ScenarioSpec::paper()
        };
        Scenario {
            config,
            spec,
            links: LinkPolicy::wan(),
        }
    }

    /// `paper_queries`: the paper's A→B→C scenario at `scale` of its
    /// populations, `phase_mins` per phase, one continuous query client
    /// per two sources (Figure 5 case B), fixed membership, r = 0, LAN
    /// links.
    pub fn paper_queries(scale: f64, phase_mins: u64, seed: u64) -> Self {
        let base = ScenarioSpec::paper().scaled(scale);
        let spec = ScenarioSpec {
            query_clients: base.sources / 2,
            seed,
            ..base.with_phase_duration(SimDuration::from_mins(phase_mins))
        };
        Scenario {
            config: ClashConfig::paper(),
            spec,
            links: LinkPolicy::lan(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    KeyChange { source: u64 },
    QueryDeath { query: u64 },
    LoadCheck,
    Sample,
    Join,
    Leave,
    Crash,
    CrashBurst,
}

/// Wall-clock split of one run, and the memory its set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// `VmRSS` before the cluster was built, bytes.
    pub rss_before: u64,
    /// `VmRSS` when set-up ended, bytes.
    pub rss_after_setup: u64,
    /// Cluster construction: ring, chord tables, transport.
    pub build: Duration,
    /// Attaching the initial population and arming the periodic events,
    /// up to the first timed event.
    pub attach: Duration,
    /// The measured event loop, final sample included.
    pub run: Duration,
}

/// What one scenario run produced.
pub struct ScenarioRun {
    /// The cluster after the run.
    pub cluster: ClashCluster,
    /// Wall-clock split.
    pub timing: Timing,
    /// Events dispatched by the measured loop.
    pub dispatched: u64,
    /// Events ever scheduled (the driver's `RunResult::events`).
    pub scheduled: u64,
    /// Servers crashed (burst victims included).
    pub crashes: u64,
    /// Crash-recovery totals.
    pub recovery: RecoveryTotals,
    /// Load checks run.
    pub load_checks: u64,
    /// The sampled series.
    pub samples: Vec<Sample>,
}

struct Loop<'p, P: Probe> {
    config: ClashConfig,
    spec: ScenarioSpec,
    cluster: ClashCluster,
    queue: EventQueue<Ev>,
    rng: DetRng,
    churn_rng: DetRng,
    workloads: [Workload; 3],
    next_query_id: u64,
    crashes: u64,
    recovery: RecoveryTotals,
    load_checks: u64,
    probe: &'p mut P,
}

fn workload_index(kind: WorkloadKind) -> usize {
    match kind {
        WorkloadKind::A => 0,
        WorkloadKind::B => 1,
        WorkloadKind::C => 2,
    }
}

/// Runs `scenario` to completion, reporting every call to `probe`.
///
/// # Errors
///
/// Propagates protocol errors; the scenario workloads have no partition,
/// so any error is a defect.
pub fn run<P: Probe>(scenario: &Scenario, probe: &mut P) -> Result<ScenarioRun, ClashError> {
    let spec = scenario.spec.clone();
    assert!(
        spec.churn.is_none_or(|c| c.flash_crowd.is_none()),
        "the benchmark loop has no flash-crowd events"
    );
    let rss_before = memory_bytes().1;
    let started = Instant::now();
    let transport = Box::new(LinkTransport::new(scenario.links, spec.seed));
    let mut cluster =
        ClashCluster::with_transport(scenario.config, spec.servers, spec.seed, transport)?;
    cluster.set_profiler(Box::new(WallProfiler::default()));
    let mut l = Loop {
        config: scenario.config,
        rng: DetRng::new(spec.seed).substream("driver"),
        churn_rng: DetRng::new(spec.seed).substream("churn"),
        workloads: [
            Workload::paper(WorkloadKind::A),
            Workload::paper(WorkloadKind::B),
            Workload::paper(WorkloadKind::C),
        ],
        spec,
        cluster,
        queue: EventQueue::new(),
        next_query_id: 0,
        crashes: 0,
        recovery: RecoveryTotals::default(),
        load_checks: 0,
        probe,
    };
    let build = started.elapsed();
    let started = Instant::now();
    let end = SimTime::ZERO + l.spec.total_duration();
    l.populate()?;
    l.queue
        .schedule(SimTime::ZERO + l.spec.load_check_period, Ev::LoadCheck);
    l.queue
        .schedule(SimTime::ZERO + l.spec.sample_period, Ev::Sample);
    let churn = l.spec.churn;
    if let Some(churn) = &churn {
        let arms = [
            (churn.mean_join_interval, Ev::Join),
            (churn.mean_leave_interval, Ev::Leave),
            (churn.mean_crash_interval, Ev::Crash),
            (churn.mean_burst_interval, Ev::CrashBurst),
        ];
        for (mean, ev) in arms {
            if let Some(mean) = mean {
                let at = SimTime::ZERO + churn_interval(&mut l.churn_rng, mean);
                l.queue.schedule(at, ev);
            }
        }
    }
    l.cluster.flush_batch()?;
    let mut base = SampleBase::new(&l.cluster);
    let attach = started.elapsed();
    let rss_after_setup = memory_bytes().1;

    let started = Instant::now();
    let mut samples = Vec::new();
    let mut last_sample_time = SimTime::ZERO;
    let mut dispatched = 0u64;
    while let Some((at, ev)) = l
        .probe
        .span(Layer::SimkernelQueue, || l.queue.pop_before(end))
    {
        dispatched += 1;
        l.probe.event(u32::try_from(dispatched).unwrap_or(u32::MAX));
        l.cluster.set_now(at);
        match ev {
            Ev::KeyChange { source } => l.key_change(at, source)?,
            Ev::QueryDeath { query } => {
                let cluster = &mut l.cluster;
                if l.probe.span(Layer::CoreIndex, || cluster.has_query(query)) {
                    l.probe
                        .span(Layer::CoreQuery, || cluster.detach_query(query))?;
                }
                l.spawn_query(at)?;
            }
            Ev::LoadCheck => {
                let cluster = &mut l.cluster;
                l.probe.span(Layer::CoreFlush, || cluster.flush_batch())?;
                let check = l
                    .probe
                    .span(Layer::CoreCheck, || cluster.run_load_check())?;
                l.load_checks += 1;
                absorb_check(&mut l.recovery, &check);
                l.schedule(at + l.spec.load_check_period, Ev::LoadCheck);
            }
            Ev::Sample => {
                let cluster = &mut l.cluster;
                l.probe.span(Layer::CoreFlush, || cluster.flush_batch())?;
                let window = at.duration_since(last_sample_time);
                let cluster = &l.cluster;
                samples.push(
                    l.probe
                        .span(Layer::CoreSample, || base.sample(cluster, window)),
                );
                last_sample_time = at;
                l.schedule(at + l.spec.sample_period, Ev::Sample);
            }
            Ev::Join | Ev::Leave | Ev::Crash | Ev::CrashBurst => {
                let churn = churn.as_ref().expect("membership events require churn");
                let mean = match ev {
                    Ev::Join => {
                        l.join(churn)?;
                        churn.mean_join_interval
                    }
                    Ev::Leave => {
                        l.leave(churn)?;
                        churn.mean_leave_interval
                    }
                    Ev::Crash => {
                        l.crash(churn)?;
                        churn.mean_crash_interval
                    }
                    _ => {
                        l.crash_burst(churn)?;
                        churn.mean_burst_interval
                    }
                };
                l.rearm(at, mean, ev);
            }
        }
    }
    let cluster = &mut l.cluster;
    l.probe.span(Layer::CoreFlush, || cluster.flush_batch())?;
    let window = end.saturating_duration_since(last_sample_time);
    if !window.is_zero() {
        let cluster = &l.cluster;
        samples.push(
            l.probe
                .span(Layer::CoreSample, || base.sample(cluster, window)),
        );
    }
    let run = started.elapsed();
    Ok(ScenarioRun {
        scheduled: l.queue.scheduled_total(),
        cluster: l.cluster,
        timing: Timing {
            rss_before,
            rss_after_setup,
            build,
            attach,
            run,
        },
        dispatched,
        crashes: l.crashes,
        recovery: l.recovery,
        load_checks: l.load_checks,
        samples,
    })
}

/// The driver's exponential inter-event time for a churn process.
fn churn_interval(rng: &mut DetRng, mean: SimDuration) -> SimDuration {
    let secs = Exponential::with_mean(mean.as_secs_f64()).sample(rng);
    SimDuration::from_secs_f64(secs.max(1.0))
}

impl<P: Probe> Loop<'_, P> {
    fn current_workload(&self) -> WorkloadKind {
        self.spec
            .workload_at(self.queue.now().saturating_duration_since(SimTime::ZERO))
    }

    fn source_model(&self, kind: WorkloadKind) -> SourceModel {
        SourceModel::new(kind.source_rate(), self.spec.mean_stream_packets)
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        let queue = &mut self.queue;
        self.probe
            .span(Layer::SimkernelQueue, || queue.schedule(at, ev));
        self.probe.queue_len(self.queue.len());
    }

    fn rearm(&mut self, at: SimTime, mean: Option<SimDuration>, ev: Ev) {
        if let Some(mean) = mean {
            let rng = &mut self.churn_rng;
            let next = self
                .probe
                .span(Layer::WorkloadDraw, || churn_interval(rng, mean));
            self.schedule(at + next, ev);
        }
    }

    fn draw_key(&mut self, kind: WorkloadKind) -> clash_keyspace::key::Key {
        let (workload, width, rng) = (
            &self.workloads[workload_index(kind)],
            self.config.key_width,
            &mut self.rng,
        );
        self.probe
            .span(Layer::WorkloadDraw, || workload.sample_key(width, rng))
    }

    fn key_change(&mut self, at: SimTime, source: u64) -> Result<(), ClashError> {
        let cluster = &self.cluster;
        if !self
            .probe
            .span(Layer::CoreIndex, || cluster.has_source(source))
        {
            // The source's group was lost in an unrecoverable crash.
            return Ok(());
        }
        let kind = self.current_workload();
        let key = self.draw_key(kind);
        let model = self.source_model(kind);
        let cluster = &mut self.cluster;
        self.probe.span(Layer::CoreLocate, || {
            cluster.move_source_with_rate(source, key, Some(model.rate()))
        })?;
        let rng = &mut self.rng;
        let next = self
            .probe
            .span(Layer::WorkloadDraw, || model.sample_stream_duration(rng));
        self.schedule(at + next, Ev::KeyChange { source });
        Ok(())
    }

    fn populate(&mut self) -> Result<(), ClashError> {
        let kind = self.spec.workload_at(SimDuration::ZERO);
        let model = self.source_model(kind);
        for source in 0..self.spec.sources as u64 {
            let key = self.workloads[workload_index(kind)]
                .sample_key(self.config.key_width, &mut self.rng);
            self.cluster.attach_source(source, key, model.rate())?;
            let next = model.sample_stream_duration(&mut self.rng);
            self.queue
                .schedule(SimTime::ZERO + next, Ev::KeyChange { source });
        }
        for _ in 0..self.spec.query_clients {
            self.spawn_query(SimTime::ZERO)?;
        }
        Ok(())
    }

    fn spawn_query(&mut self, at: SimTime) -> Result<(), ClashError> {
        let kind = self.current_workload();
        let id = self.next_query_id;
        self.next_query_id += 1;
        let key = self.draw_key(kind);
        let cluster = &mut self.cluster;
        self.probe
            .span(Layer::CoreQuery, || cluster.attach_query(id, key))?;
        let (lifetime, rng) = (self.spec.mean_query_lifetime, &mut self.rng);
        let lifetime = self.probe.span(Layer::WorkloadDraw, || {
            QueryClientModel::new(lifetime).sample_lifetime(rng)
        });
        self.schedule(at + lifetime, Ev::QueryDeath { query: id });
        Ok(())
    }

    fn server_count(&mut self) -> usize {
        let cluster = &self.cluster;
        self.probe
            .span(Layer::CoreMembers, || cluster.server_count())
    }

    /// A random live server, drawn from the churn stream.
    fn pick_server(&mut self) -> ServerId {
        let cluster = &self.cluster;
        let ids = self.probe.span(Layer::CoreMembers, || cluster.server_ids());
        let rng = &mut self.churn_rng;
        let i = self
            .probe
            .span(Layer::WorkloadDraw, || rng.uniform_index(ids.len()));
        ids[i]
    }

    fn join(&mut self, churn: &ChurnSpec) -> Result<(), ClashError> {
        if self.server_count() >= churn.max_servers {
            return Ok(());
        }
        loop {
            let (rng, space) = (&mut self.churn_rng, self.config.hash_space);
            let id = self
                .probe
                .span(Layer::WorkloadDraw, || ServerId::new(rng.next_u64(), space));
            let cluster = &self.cluster;
            if self
                .probe
                .span(Layer::ChordNet, || cluster.net().node(id).is_none())
            {
                let cluster = &mut self.cluster;
                self.probe
                    .span(Layer::CoreJoin, || cluster.join_server(id))?;
                return Ok(());
            }
        }
    }

    fn leave(&mut self, churn: &ChurnSpec) -> Result<(), ClashError> {
        if self.server_count() <= churn.min_servers.max(1) {
            return Ok(());
        }
        let victim = self.pick_server();
        let cluster = &mut self.cluster;
        self.probe
            .span(Layer::CoreLeave, || cluster.leave_server(victim))?;
        Ok(())
    }

    fn crash(&mut self, churn: &ChurnSpec) -> Result<(), ClashError> {
        if self.server_count() <= churn.min_servers.max(1) {
            return Ok(());
        }
        let victim = self.pick_server();
        let cluster = &mut self.cluster;
        let report = self
            .probe
            .span(Layer::CoreCrash, || cluster.fail_server(victim))?;
        self.crashes += 1;
        absorb_crash(&mut self.recovery, &report, false);
        Ok(())
    }

    fn crash_burst(&mut self, churn: &ChurnSpec) -> Result<(), ClashError> {
        let size = churn.burst_size.max(1);
        if self.server_count() < churn.min_servers.max(1) + size {
            return Ok(());
        }
        let start = self.pick_server();
        let cluster = &self.cluster;
        let mut victims = vec![start];
        victims.extend(self.probe.span(Layer::ChordNet, || {
            cluster.net().alive_successors(start, size - 1)
        }));
        let cluster = &mut self.cluster;
        let report = self
            .probe
            .span(Layer::CoreCrash, || cluster.fail_servers(&victims))?;
        self.crashes += victims.len() as u64;
        absorb_crash(&mut self.recovery, &report, true);
        Ok(())
    }
}
