//! Spans recorded from outside the program, around each call the
//! benchmark makes into a layer's public functions.
//!
//! The event loops are generic over [`Probe`]. [`Off`] compiles every
//! span away, so the untraced run executes the bare calls; [`Recorder`]
//! keeps one [`Span`] per call in memory and writes them out when the
//! run ends.

use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// The layer boundary a span was recorded at. Each name is
/// `<crate>.<call family>`, matching the per-layer metric names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `Workload::sample_key`, `SourceModel`/`QueryClientModel` draws,
    /// churn intervals and victim picks from the benchmark's RNG streams.
    WorkloadDraw,
    /// `EventQueue::schedule` and `EventQueue::pop_before`.
    SimkernelQueue,
    /// `attach_source`, `move_source_with_rate`, `locate`: the
    /// locate/route/charge path.
    CoreLocate,
    /// `attach_query`, `detach_query`: the query read path.
    CoreQuery,
    /// `has_source`, `has_query`: client index lookups.
    CoreIndex,
    /// `flush_batch`.
    CoreFlush,
    /// `run_load_check`.
    CoreCheck,
    /// `join_server`, `join_random_server`.
    CoreJoin,
    /// `leave_server`.
    CoreLeave,
    /// `fail_server`, `fail_servers`.
    CoreCrash,
    /// `partition_network`, `heal_partition`.
    CoreFault,
    /// `server_count`, `server_ids`: membership reads that pick victims.
    CoreMembers,
    /// The per-sample reads: `server_loads`, `depth_stats`,
    /// `message_stats`, `latency_metrics`.
    CoreSample,
    /// `SimNet::node`, `SimNet::alive_successors`.
    ChordNet,
}

impl Layer {
    /// Every layer, in metric-name order.
    pub const ALL: [Layer; 14] = [
        Layer::WorkloadDraw,
        Layer::SimkernelQueue,
        Layer::CoreLocate,
        Layer::CoreQuery,
        Layer::CoreIndex,
        Layer::CoreFlush,
        Layer::CoreCheck,
        Layer::CoreJoin,
        Layer::CoreLeave,
        Layer::CoreCrash,
        Layer::CoreFault,
        Layer::CoreMembers,
        Layer::CoreSample,
        Layer::ChordNet,
    ];

    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::WorkloadDraw => "workload.draw",
            Layer::SimkernelQueue => "simkernel.queue",
            Layer::CoreLocate => "core.locate",
            Layer::CoreQuery => "core.query",
            Layer::CoreIndex => "core.index",
            Layer::CoreFlush => "core.flush",
            Layer::CoreCheck => "core.check",
            Layer::CoreJoin => "core.join",
            Layer::CoreLeave => "core.leave",
            Layer::CoreCrash => "core.crash",
            Layer::CoreFault => "core.fault",
            Layer::CoreMembers => "core.members",
            Layer::CoreSample => "core.sample",
            Layer::ChordNet => "chord.net",
        }
    }
}

/// One timed call. Spans never nest: the benchmark wraps only its own
/// calls into the program, so a span's self time is its duration.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Where the call went.
    pub layer: Layer,
    /// Sequence number of the loop event (or operation) that made the
    /// call: all spans of one event share it.
    pub event: u32,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What an event loop reports to while it runs.
pub trait Probe {
    /// Runs `f`, timing it as one call into `layer` when tracing.
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;
    /// Marks the start of loop event `seq`; later spans belong to it.
    fn event(&mut self, seq: u32);
    /// Reports the event queue's length after a schedule.
    fn queue_len(&mut self, len: usize);
}

/// Tracing off: every span is the bare call.
#[derive(Debug, Default)]
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn span<R>(&mut self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn event(&mut self, _seq: u32) {}

    #[inline(always)]
    fn queue_len(&mut self, _len: usize) {}
}

/// Tracing on: spans kept in memory until [`Recorder::write_csv`].
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    event: u32,
    /// Every span recorded, in call order.
    pub spans: Vec<Span>,
    /// Largest event-queue length seen after a schedule.
    pub queue_peak_len: usize,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            event: 0,
            spans: Vec::with_capacity(1 << 20),
            queue_peak_len: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Writes the spans as CSV: `layer,event,start_ns,end_ns`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the create, write or flush.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"layer,event,start_ns,end_ns\n")?;
        let mut line = String::new();
        for s in &self.spans {
            line.clear();
            writeln!(
                line,
                "{},{},{},{}",
                s.layer.name(),
                s.event,
                s.start_ns,
                s.end_ns
            )
            .expect("writing to a String cannot fail");
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe for Recorder {
    #[inline]
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            event: self.event,
            start_ns,
            end_ns,
        });
        out
    }

    fn event(&mut self, seq: u32) {
        self.event = seq;
    }

    fn queue_len(&mut self, len: usize) {
        self.queue_peak_len = self.queue_peak_len.max(len);
    }
}
