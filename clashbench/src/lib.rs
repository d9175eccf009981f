//! The CLASH benchmark: seeded workloads driven through the public API
//! of the repository's crates, timed from outside.
//!
//! * [`scenario`] reproduces the experiment driver's event loop
//!   (`SimDriver::run_with_cluster`) for the two scenario workloads.
//! * [`faults`] is the operation loop of the `partition_faults`
//!   workload.
//! * [`trace`] records a span around every call the loops make into a
//!   layer, when tracing is on.
//!
//! `main.rs` runs one workload once and prints one JSON line; `run.py`
//! repeats it in fresh processes and reports medians.

pub mod faults;
pub mod reference;
pub mod scenario;
pub mod trace;

use clash_core::cluster::{ClashCluster, FailureReport, LoadCheckReport, MessageStats};
use clash_keyspace::key::Key;
pub use clash_sim::driver::RecoveryTotals;
use clash_simkernel::metrics::Histogram;
use clash_simkernel::rng::DetRng;
use clash_simkernel::time::SimDuration;

/// The benchmark's workloads. See `README.md` for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// Workload C steady state under sustained churn, WAN links, r = 2.
    ChurnWan,
    /// The paper's A→B→C scenario with continuous query clients.
    PaperQueries,
    /// Partitions, crash bursts and replacement joins on a heated ring.
    PartitionFaults,
}

impl WorkloadName {
    /// Every workload.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::ChurnWan,
        WorkloadName::PaperQueries,
        WorkloadName::PartitionFaults,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::ChurnWan => "churn_wan",
            WorkloadName::PaperQueries => "paper_queries",
            WorkloadName::PartitionFaults => "partition_faults",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Folds one crash's failure report into the totals, as the experiment
/// driver does.
pub(crate) fn absorb_crash(totals: &mut RecoveryTotals, report: &FailureReport, burst: bool) {
    if burst {
        totals.burst_crashes += 1;
    } else {
        totals.single_crashes += 1;
        totals.single_crash_groups_lost += report.groups_lost as u64;
    }
    totals.groups_recovered += report.groups_recovered as u64;
    totals.groups_lost += report.groups_lost as u64;
    totals.groups_deferred += report.groups_deferred as u64;
    totals.sources_lost += report.sources_lost as u64;
    totals.queries_lost += report.queries_lost as u64;
}

/// Folds in the deferred recoveries a load check resolved, as the
/// experiment driver does.
pub(crate) fn absorb_check(totals: &mut RecoveryTotals, check: &LoadCheckReport) {
    totals.groups_recovered += check.recoveries_completed;
    totals.groups_lost += check.recoveries_lost;
    totals.single_crash_groups_lost += check.recoveries_lost_single;
    totals.sources_lost += check.recovery_sources_lost;
    totals.queries_lost += check.recovery_queries_lost;
}

/// One metric sample: the Figure-4 and Figure-5 quantities the
/// end-to-end metrics aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Maximum server load, % of capacity.
    pub max_load_pct: f64,
    /// Servers with load ≥ 1% of capacity.
    pub active_servers: usize,
    /// Control messages per second per server in the window.
    pub ctrl_msgs_per_sec_per_server: f64,
    /// Servers in the ring at sample time.
    pub server_count: usize,
}

/// The state a sample diffs against: the previous sample's counters.
#[derive(Debug, Clone)]
pub struct SampleBase {
    msgs: MessageStats,
    servers: usize,
    locate: Histogram,
}

impl SampleBase {
    /// The baseline at the start of the measured section.
    pub fn new(cluster: &ClashCluster) -> Self {
        SampleBase {
            msgs: cluster.message_stats(),
            servers: cluster.server_count(),
            locate: cluster.latency_metrics().locate.clone(),
        }
    }

    /// Takes one sample over a window of `window` virtual time, with the
    /// experiment driver's arithmetic, and moves the baseline forward.
    /// The windowed locate quantiles the driver also computes are
    /// computed here too, so a sample costs what it costs there.
    pub fn sample(&mut self, cluster: &ClashCluster, window: SimDuration) -> Sample {
        let capacity = cluster.config().capacity;
        let active_eps = capacity * 0.01;
        let mut max_load = 0.0f64;
        let mut active = 0usize;
        for (_, load) in cluster.server_loads() {
            max_load = max_load.max(load);
            if load >= active_eps {
                active += 1;
            }
        }
        std::hint::black_box(cluster.depth_stats());
        let msgs = cluster.message_stats();
        let secs = window.as_secs_f64().max(1e-9);
        let server_count = cluster.server_count();
        let servers = (server_count + self.servers) as f64 / 2.0;
        self.servers = server_count;
        let ctrl = (msgs.control_messages() - self.msgs.control_messages()) as f64;
        self.msgs = msgs;
        if !cluster.transport_is_instant() {
            let hist = &cluster.latency_metrics().locate;
            std::hint::black_box(hist.quantiles_since(&self.locate, &[0.50, 0.95, 0.99]));
            self.locate = hist.clone();
        }
        Sample {
            max_load_pct: 100.0 * max_load / capacity,
            active_servers: active,
            ctrl_msgs_per_sec_per_server: ctrl / secs / servers,
            server_count,
        }
    }
}

/// The `q`-quantile of a histogram, interpolated linearly inside the
/// containing bucket (the histogram's own `quantile` reports the
/// bucket's lower edge, 1 ms wide for latencies).
fn interpolated_quantile(hist: &Histogram, q: f64) -> f64 {
    let in_range: u64 = (0..hist.num_buckets()).map(|i| hist.bucket(i)).sum();
    let total = hist.underflow() + in_range + hist.overflow();
    if total == 0 {
        return 0.0;
    }
    let width = hist.bucket_lo(1) - hist.bucket_lo(0);
    let rank = q * total as f64;
    let mut seen = hist.underflow() as f64;
    if rank <= seen {
        return hist.bucket_lo(0);
    }
    for i in 0..hist.num_buckets() {
        let count = hist.bucket(i) as f64;
        if count > 0.0 && rank <= seen + count {
            return hist.bucket_lo(i) + width * (rank - seen) / count;
        }
        seen += count;
    }
    // Only overflow observations remain: the upper edge of the range.
    hist.bucket_lo(hist.num_buckets() - 1) + width
}

/// Post-run lookup correctness: `n` seeded keys located through the
/// client protocol and compared with the oracle's placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleSweep {
    /// Keys checked.
    pub checked: u64,
    /// Lookups that disagreed with the oracle (owner or group).
    pub disagreed: u64,
}

/// Sweeps `n` keys drawn from `seed` through `locate` and the oracle.
///
/// # Errors
///
/// Propagates locate errors: the sweep runs on a healed network, where
/// no locate may fail.
fn oracle_sweep(
    cluster: &mut ClashCluster,
    n: u64,
    seed: u64,
) -> Result<OracleSweep, clash_core::error::ClashError> {
    let width = cluster.config().key_width;
    let mut rng = DetRng::new(seed).substream("oracle-sweep");
    let mut disagreed = 0;
    for _ in 0..n {
        let key = Key::from_bits_truncated(rng.next_u64(), width);
        let placement = cluster.locate(key)?;
        let agrees = cluster
            .oracle_locate(key)
            .is_some_and(|(server, group)| placement.server == server && placement.group == group);
        if !agrees {
            disagreed += 1;
        }
    }
    Ok(OracleSweep {
        checked: n,
        disagreed,
    })
}

/// FNV-1a, 64 bits: a stable digest of a run's deterministic outputs.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `VmHWM` (peak resident set) and `VmRSS` of this process, bytes.
pub fn memory_bytes() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
            .map_or(0, |kb| kb * 1024)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// `churn_wan` ring size and virtual minutes.
const CHURN_WAN: (usize, u64) = (1000, 30);
/// `paper_queries` population scale (of the paper's 1000 servers and
/// 100 000 sources) and virtual minutes per A/B/C phase.
const PAPER_QUERIES: (f64, u64) = (0.25, 30);

/// The `partition_faults` plan for `seed`.
fn partition_faults_plan(seed: u64) -> faults::FaultPlan {
    faults::FaultPlan {
        servers: 100,
        sources_per_server: 50,
        drop_probability: 0.02,
        rounds: 768,
        moves_per_round: 100,
        locates_per_round: 25,
        burst_size: 3,
        seed,
    }
}

/// One run of a workload, before the post-run gates.
pub struct Measured {
    /// The cluster after the run.
    pub cluster: ClashCluster,
    /// Wall-clock split and set-up memory.
    pub timing: scenario::Timing,
    /// Benchmark-issued events: driver events dispatched for the
    /// scenario workloads, cluster operations for `partition_faults`.
    pub events: u64,
    /// Operations refused with `NetworkUnreachable` under a partition.
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
    /// The sampled series.
    pub samples: Vec<Sample>,
    /// Servers in the initial ring.
    pub servers: usize,
}

/// Runs `workload` once at `seed`, reporting every call to `probe`.
///
/// # Errors
///
/// Propagates protocol errors (see [`scenario::run`], [`faults::run`]).
pub fn measure<P: trace::Probe>(
    workload: WorkloadName,
    seed: u64,
    probe: &mut P,
) -> Result<Measured, clash_core::error::ClashError> {
    let scenario = match workload {
        WorkloadName::ChurnWan => scenario::Scenario::churn_wan(CHURN_WAN.0, CHURN_WAN.1, seed),
        WorkloadName::PaperQueries => {
            scenario::Scenario::paper_queries(PAPER_QUERIES.0, PAPER_QUERIES.1, seed)
        }
        WorkloadName::PartitionFaults => {
            let plan = partition_faults_plan(seed);
            let run = faults::run(&plan, probe)?;
            return Ok(Measured {
                cluster: run.cluster,
                timing: run.timing,
                events: run.ops,
                refused: run.refused,
                crashes: run.crashes,
                joins: run.joins,
                leaves: run.leaves,
                recovery: run.recovery,
                load_checks: run.load_checks,
                samples: run.samples,
                servers: plan.servers,
            });
        }
    };
    let run = scenario::run(&scenario, probe)?;
    let stats = run.cluster.message_stats();
    Ok(Measured {
        cluster: run.cluster,
        timing: run.timing,
        events: run.dispatched,
        refused: 0,
        crashes: run.crashes,
        joins: stats.joins,
        leaves: stats.leaves,
        recovery: run.recovery,
        load_checks: run.load_checks,
        samples: run.samples,
        servers: scenario.spec.servers,
    })
}

/// The simulated end-to-end metrics: exact for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// Whole-run median locate latency, virtual ms.
    pub locate_p50_ms: f64,
    /// Whole-run 95th-percentile locate latency, virtual ms.
    pub locate_p95_ms: f64,
    /// Mean over samples of control messages per second per server.
    pub ctrl_msgs_per_server_s: f64,
    /// Mean over samples of the maximum server load (the Figure-4 max
    /// load series), % of capacity. The series' peak is an extreme
    /// value whose spread from seed to seed exceeds any usable bound.
    pub max_load_pct: f64,
    /// Mean over samples of servers with load ≥ 1% of capacity.
    pub active_servers: f64,
    /// Operations neither refused nor answered wrongly, over attempted.
    pub success_ratio: f64,
    /// Crash-affected groups recovered with full state, over all of them.
    pub recovery_rate: f64,
}

/// Post-run verdict and the run's deterministic outputs.
pub struct Verdict {
    /// `verify_consistency` passed (it panics otherwise) and the global
    /// cover is a partition of the key space.
    pub cover_is_partition: bool,
    /// The post-run oracle sweep.
    pub sweep: OracleSweep,
    /// Operations attempted: the run's events plus the sweep's lookups.
    pub attempted: u64,
    /// The simulated metrics.
    pub sim: SimMetrics,
    /// Digest of every deterministic output of the run.
    pub digest: String,
}

/// Keys the post-run oracle sweep checks.
const SWEEP_KEYS: u64 = 1024;

/// Checks the finished run and derives its simulated metrics.
///
/// # Errors
///
/// Propagates a locate error of the oracle sweep.
///
/// # Panics
///
/// `verify_consistency` panics on a broken cluster invariant.
pub fn verdict(m: &mut Measured, seed: u64) -> Result<Verdict, clash_core::error::ClashError> {
    m.cluster.verify_consistency();
    let cover_is_partition = m.cluster.global_cover().is_partition();
    let locate = &m.cluster.latency_metrics().locate;
    let (locate_p50_ms, locate_p95_ms) = (
        interpolated_quantile(locate, 0.50),
        interpolated_quantile(locate, 0.95),
    );
    let messages = m.cluster.message_stats();
    let transport = m.cluster.transport_stats();
    let sweep = oracle_sweep(&mut m.cluster, SWEEP_KEYS, seed)?;
    let attempted = m.events + sweep.checked;
    let n = m.samples.len().max(1) as f64;
    let sim = SimMetrics {
        locate_p50_ms,
        locate_p95_ms,
        ctrl_msgs_per_server_s: m
            .samples
            .iter()
            .map(|s| s.ctrl_msgs_per_sec_per_server)
            .sum::<f64>()
            / n,
        max_load_pct: m.samples.iter().map(|s| s.max_load_pct).sum::<f64>() / n,
        active_servers: m
            .samples
            .iter()
            .map(|s| s.active_servers as f64)
            .sum::<f64>()
            / n,
        success_ratio: 1.0 - (m.refused + sweep.disagreed) as f64 / attempted as f64,
        recovery_rate: m.recovery.recovery_success_rate(),
    };
    let digest = format!(
        "{:016x}",
        fnv1a(&format!(
            "{}|{:?}|{:?}|{}|{}|{}|{}|{:?}|{}|{:?}|{:?}|{:?}|{}|{}|{}",
            m.events,
            messages,
            transport,
            m.refused,
            m.crashes,
            m.joins,
            m.leaves,
            m.recovery,
            m.load_checks,
            m.samples,
            sweep,
            sim,
            m.cluster.server_count(),
            m.cluster.source_count(),
            m.cluster.query_count(),
        ))
    );
    Ok(Verdict {
        cover_is_partition,
        sweep,
        attempted,
        sim,
        digest,
    })
}

/// Per-call statistics of one layer, from the loop's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStats {
    /// Calls made.
    pub calls: u64,
    /// Total time in the calls, ms.
    pub total_ms: f64,
    /// Median call, µs.
    pub p50_us: f64,
    /// The tail call, µs: the highest of p99.99, p99.9, p99, p90 with at
    /// least ten calls beyond it (p50 when no such percentile exists).
    pub tail_us: f64,
    /// Which percentile `tail_us` is.
    pub tail_q: f64,
}

/// The highest percentile with at least ten samples beyond it.
fn tail_quantile(n: usize) -> f64 {
    [0.9999, 0.999, 0.99, 0.9]
        .into_iter()
        .find(|q| n as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(0.5)
}

/// Nearest-rank `q`-quantile of sorted values (0 when empty).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-layer statistics of the spans recorded during the measured loop
/// (event numbers from 1; set-up spans carry event 0).
pub fn layer_stats(spans: &[trace::Span]) -> Vec<(trace::Layer, LayerStats)> {
    trace::Layer::ALL
        .into_iter()
        .map(|layer| {
            let mut ns: Vec<u64> = spans
                .iter()
                .filter(|s| s.layer == layer && s.event > 0)
                .map(trace::Span::ns)
                .collect();
            ns.sort_unstable();
            let tail_q = tail_quantile(ns.len());
            let stats = LayerStats {
                calls: ns.len() as u64,
                total_ms: ns.iter().sum::<u64>() as f64 / 1e6,
                p50_us: nearest_rank(&ns, 0.5) as f64 / 1e3,
                tail_us: nearest_rank(&ns, tail_q) as f64 / 1e3,
                tail_q,
            };
            (layer, stats)
        })
        .collect()
}
