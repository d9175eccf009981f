//! Runs one workload once, in this process, and prints one JSON line
//! with everything measured. `run.py` repeats this in fresh processes
//! and reports the medians. `--reference` instead times the host
//! reference (see [`clashbench::reference`]) and prints its median pass.
//!
//! ```text
//! clashbench --workload <churn_wan|paper_queries|partition_faults>
//!            --seed <u64> --trace <0|1> [--spans <file.csv>]
//! clashbench --reference
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use clash_obs::CheckPhase;
use clashbench::trace::{Off, Probe, Recorder};
use clashbench::{layer_stats, measure, memory_bytes, reference, verdict, Measured, WorkloadName};

struct Args {
    workload: WorkloadName,
    seed: u64,
    trace: bool,
    spans: Option<PathBuf>,
}

const USAGE: &str = "usage: clashbench --workload <churn_wan|paper_queries|partition_faults> \
                     --seed <u64> --trace <0|1> [--spans <file.csv>]\n       \
                     clashbench --reference";

/// Reference passes per `--reference` call; the median is reported.
const REFERENCE_PASSES: usize = 3;

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut trace, mut spans) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(WorkloadName::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed must be an unsigned integer, got `{v}`"))?,
                );
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got `{v}`")),
                });
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// A flat JSON object writer: keys in insertion order, numbers printed
/// with every digit (Rust's shortest round-trip form).
#[derive(Default)]
struct Obj(String);

impl Obj {
    fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        let sep = if self.0.is_empty() { "" } else { "," };
        write!(self.0, "{sep}\"{key}\":{value}").expect("writing to a String cannot fail");
        self
    }

    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        assert!(v.is_finite(), "{key} is not finite: {v}");
        self.raw(key, &format!("{v:?}"))
    }

    fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.raw(key, &v.to_string())
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, &format!("\"{v}\""))
    }

    fn obj(&mut self, key: &str, v: &Obj) -> &mut Self {
        self.raw(key, &v.render())
    }

    fn render(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

fn run<P: Probe>(args: &Args, probe: &mut P) -> Result<(Measured, Obj), String> {
    let mut m = measure(args.workload, args.seed, probe).map_err(|e| format!("run: {e:?}"))?;
    let v = verdict(&mut m, args.seed).map_err(|e| format!("oracle sweep: {e:?}"))?;
    let (peak_rss, _) = memory_bytes();
    let t = m.timing;
    let secs = |d: std::time::Duration| d.as_secs_f64();
    let setup_s = secs(t.build) + secs(t.attach);

    let mut sim = Obj::default();
    sim.num("locate_p50_ms", v.sim.locate_p50_ms)
        .num("locate_p95_ms", v.sim.locate_p95_ms)
        .num("ctrl_msgs_per_server_s", v.sim.ctrl_msgs_per_server_s)
        .num("max_load_pct", v.sim.max_load_pct)
        .num("active_servers", v.sim.active_servers)
        .num("success_ratio", v.sim.success_ratio)
        .num("recovery_rate", v.sim.recovery_rate);

    let c = &m.cluster;
    let msgs = c.message_stats();
    let transport = c.transport_stats();
    let telemetry = c.telemetry();
    let profile = c.phase_profile();
    let mut counters = Obj::default();
    counters
        .int("splits", msgs.splits)
        .int("merges", msgs.merges)
        .int("locates", msgs.locates)
        .int("probes", msgs.probes)
        .num("hops_per_lookup", c.net().stats().mean_hops())
        .int("load_checks", m.load_checks)
        .int("joins", m.joins)
        .int("leaves", m.leaves)
        .int("crashes", m.crashes)
        .int("refused", m.refused)
        .int(
            "recovery_retries",
            telemetry.counter_value("recovery.retries").unwrap_or(0),
        )
        .int("recovery_deferred", m.recovery.groups_deferred)
        .int("groups_lost", m.recovery.groups_lost)
        .int("groups_recovered", m.recovery.groups_recovered)
        .int("transport_messages", transport.messages)
        .int("transport_retransmissions", transport.retransmissions)
        .num("transport_retry_ratio", transport.retry_overhead())
        .int("transport_unreachable", transport.unreachable)
        .int("sweep_checked", v.sweep.checked)
        .int("sweep_disagreed", v.sweep.disagreed)
        .int("samples", m.samples.len() as u64);
    let mut phases = Obj::default();
    for phase in CheckPhase::ALL {
        phases.num(phase.name(), profile.get(phase));
    }

    let mut out = Obj::default();
    out.str("workload", args.workload.name())
        .int("seed", args.seed)
        .int("trace", u64::from(args.trace))
        .raw(
            "correct",
            if v.cover_is_partition && v.sweep.disagreed == 0 {
                "true"
            } else {
                "false"
            },
        )
        .int("attempted", v.attempted)
        .int("failed", v.sweep.disagreed)
        .str("digest", &v.digest)
        .int("servers", m.servers as u64)
        .int("events", m.events)
        .num("build_s", secs(t.build))
        .num("attach_s", secs(t.attach))
        .num("setup_s", setup_s)
        .num("loop_s", secs(t.run))
        .num("events_per_s", m.events as f64 / secs(t.run))
        .num("peak_rss_mb", peak_rss as f64 / (1024.0 * 1024.0))
        .num(
            "bytes_per_server",
            t.rss_after_setup.saturating_sub(t.rss_before) as f64 / m.servers as f64,
        )
        .obj("sim", &sim)
        .obj("counters", &counters)
        .obj("phase_ms", &phases);
    Ok((m, out))
}

fn main() -> ExitCode {
    if std::env::args().skip(1).eq(["--reference"]) {
        let mut out = Obj::default();
        out.num(
            "reference_s",
            reference::time(REFERENCE_PASSES).as_secs_f64(),
        );
        println!("{}", out.render());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        let mut recorder = Recorder::new();
        run(&args, &mut recorder).and_then(|(m, mut out)| {
            if let Some(path) = &args.spans {
                recorder
                    .write_csv(path)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
            let mut layers = Obj::default();
            let mut attributed_ms = 0.0;
            for (layer, s) in layer_stats(&recorder.spans) {
                attributed_ms += s.total_ms;
                let mut o = Obj::default();
                o.int("calls", s.calls)
                    .num("ms", s.total_ms)
                    .num("p50_us", s.p50_us)
                    .num("tail_us", s.tail_us)
                    .num("tail_q", s.tail_q);
                layers.obj(layer.name(), &o);
            }
            let loop_ms = m.timing.run.as_secs_f64() * 1e3;
            let mut spans = Obj::default();
            spans
                .obj("layers", &layers)
                .int("queue_peak_len", recorder.queue_peak_len as u64)
                .num("loop_ms", loop_ms)
                .num(
                    "unattributed_pct",
                    100.0 * (loop_ms - attributed_ms) / loop_ms,
                );
            Ok(out.obj("spans", &spans).render())
        })
    } else {
        run(&args, &mut Off).map(|(_, out)| out.render())
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
