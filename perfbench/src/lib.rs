//! The repository's benchmark: four closed-loop network workloads
//! between two stacks on the in-process `testnet` wire, end-to-end
//! metrics from an untraced run, and per-layer metrics from a traced
//! run that times the benchmark's own calls into each layer.
//!
//! See `README.md` next to `Cargo.toml` for why each workload exists
//! and which layer metric should move which end-to-end metric.

pub mod blob;
pub mod http;
pub mod rng;
pub mod rpc;
pub mod stats;
pub mod trace;
pub mod wire;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::stats::{median, quantile};
use crate::trace::{Layer, Recorder, Span, Tracer, Untraced, LAYERS};
use crate::wire::{Abort, OpLog, Wire};

// Every heap allocation in the process is counted, so spans can report
// allocations per call into each layer.
#[global_allocator]
static COUNTING: ukalloc::stats::CountingAlloc = ukalloc::stats::CountingAlloc;

/// The whole set-up (inputs, expected replies, stacks, connections,
/// warm-up) is timed in fresh processes, one set-up each, for this
/// share of the measured time and at least [`SETUP_MIN_REPS`] times;
/// `setup_s` is the median. A fresh process starts every set-up from
/// the same cold heap, as a booting program does; set-ups repeated in
/// one process instead depend on what the allocator kept from the
/// last one, which differs from run to run.
pub const SETUP_SHARE: f64 = 0.1;

/// Fewest set-ups in a run that reports `setup_s`.
pub const SETUP_MIN_REPS: usize = 9;

/// Windows of an end-to-end run. Set-ups are timed after each one, so
/// they sample the machine's fast and slow phases across the whole
/// run, as the throughput and latency figures do.
pub const E2E_WINDOWS: u64 = 10;

/// Latency/completion samples kept per measured run: enough for
/// thousands beyond the 90th percentile.
const SAMPLE_CAP: usize = 1 << 16;

/// Windows of a traced run: untraced and traced in turn, so a slow
/// phase of the machine weighs on both kinds alike.
pub const TRACE_WINDOWS: u64 = 8;

/// Spans kept in memory for the span file (the per-layer totals count
/// every span).
pub const SPAN_CAP: usize = 1 << 18;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small-message ping-pong on one TCP connection and one UDP flow.
    RpcSmall,
    /// Connect → GET → close churn against `Httpd`, two at a time.
    HttpChurn,
    /// Keep-alive blob GETs on a lossless wire.
    BlobClean,
    /// Keep-alive blob GETs on a wire that drops and reorders frames.
    BlobLossy,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::RpcSmall,
        Workload::HttpChurn,
        Workload::BlobClean,
        Workload::BlobLossy,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RpcSmall => "rpc_small",
            Workload::HttpChurn => "http_churn",
            Workload::BlobClean => "blob_clean",
            Workload::BlobLossy => "blob_lossy",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether throughput is counted in bytes (blobs) rather than
    /// operations.
    fn bulk(self) -> bool {
        matches!(self, Workload::BlobClean | Workload::BlobLossy)
    }
}

/// A set-up workload, ready to run turns.
pub enum Harness {
    /// `rpc_small`.
    Rpc(rpc::RpcSmall),
    /// `http_churn`.
    Http(http::HttpChurn),
    /// `blob_clean` / `blob_lossy`.
    Blob(blob::Blob),
}

impl Harness {
    /// Generates the inputs for `seed` and sets the workload up.
    pub fn setup(w: Workload, seed: u64) -> Result<Self, Abort> {
        Ok(match w {
            Workload::RpcSmall => Harness::Rpc(rpc::RpcSmall::setup(seed)?),
            Workload::HttpChurn => Harness::Http(http::HttpChurn::setup(seed)?),
            Workload::BlobClean => Harness::Blob(blob::Blob::setup(seed, false)?),
            Workload::BlobLossy => Harness::Blob(blob::Blob::setup(seed, true)?),
        })
    }

    /// One closed-loop turn.
    pub fn turn<T: Tracer>(&mut self, t: &mut T, log: &mut OpLog) -> Result<(), Abort> {
        match self {
            Harness::Rpc(h) => h.turn(t, log),
            Harness::Http(h) => h.turn(t, log),
            Harness::Blob(h) => h.turn(t, log),
        }
    }

    /// The wire and its stacks.
    pub fn wire(&mut self) -> &mut Wire {
        match self {
            Harness::Rpc(h) => &mut h.wire,
            Harness::Http(h) => &mut h.wire,
            Harness::Blob(h) => &mut h.wire,
        }
    }

    /// Runs turns until the log's window is over; returns the wall
    /// time taken.
    fn measure<T: Tracer>(&mut self, t: &mut T, log: &mut OpLog) -> Result<Duration, Abort> {
        let t0 = Instant::now();
        while !log.finished() {
            self.turn(t, log)?;
        }
        Ok(t0.elapsed())
    }
}

/// Which metrics a run produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics from one untraced window.
    EndToEnd,
    /// Per-layer metrics from alternating untraced and traced windows.
    Layers,
    /// Both sets, from alternating windows.
    Both,
}

/// How to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured wall time in total.
    pub seconds: f64,
    /// What to report.
    pub mode: Mode,
    /// Fixed-work run: complete exactly this many operations instead
    /// of running for `seconds` (split evenly over the windows).
    pub ops: Option<u64>,
    /// Corrupt the reply to this operation before it is checked.
    pub corrupt_op: Option<u64>,
    /// The perfbench binary to time set-ups in, one fresh process each
    /// (`--setup-once`). Without it `setup_s` is the time of the
    /// measured harness's own set-up.
    pub setup_exe: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// No reply mismatched and no operation failed.
    pub correct: bool,
    /// Operations attempted in the measured windows.
    pub attempted: u64,
    /// Operations that failed or returned a wrong reply.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Why the run stopped early, if it did.
    pub abort: Option<String>,
    /// Spans kept by the traced windows.
    pub spans: Vec<Span>,
    /// Operations the latency and FCT percentiles were computed from.
    pub samples: usize,
    /// Untraced wall time the rates and the mean latency cover, s.
    pub measured_s: f64,
}

impl Report {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Counters read (by `ukstats` name) around traced windows.
const COUNTERS: [&str; 17] = [
    "netdev.rx_frames",
    "netdev.rx_bursts",
    "netdev.rx_ring_drops",
    "netstack.rx_frames",
    "netstack.gro_merged_frames",
    "netstack.tso_super_frames",
    "netstack.dropped",
    "netstack.tcp.retransmits",
    "netstack.tcp.rto_fires",
    "netstack.tcp.tlp_probes",
    "netstack.tcp.sack_rtx",
    "netstack.tcp.spurious_rtx",
    "netstack.tcp.ooo_shed",
    "netstack.tcp.timewait",
    "testnet.drops_injected",
    "ukevent.wakeups",
    "ukevent.edges",
];

fn counters() -> BTreeMap<&'static str, u64> {
    let snap = ukstats::snapshot();
    COUNTERS
        .iter()
        .map(|&n| (n, snap.counter(n).unwrap_or(0)))
        .collect()
}

/// A size field of `/proc/self/status` (`VmRSS`, `VmHWM`), MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Times one set-up of `cfg`'s workload in a fresh process of `exe`
/// and waits for it to end.
fn cold_setup(exe: &Path, cfg: &Config) -> Result<f64, Abort> {
    let out = Command::new(exe)
        .args(["--setup-once", "--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| Abort(format!("set-up process: {e}")))?;
    match String::from_utf8_lossy(&out.stdout).trim().parse() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(Abort(format!("set-up process ended with {}", out.status))),
    }
}

/// Times cold set-ups into `times` for `burst`, and at least until it
/// holds `min` of them.
fn cold_setups(
    exe: &Path,
    cfg: &Config,
    burst: Duration,
    min: usize,
    times: &mut Vec<f64>,
) -> Result<(), Abort> {
    let start = Instant::now();
    while start.elapsed() < burst || times.len() < min {
        times.push(cold_setup(exe, cfg)?);
    }
    Ok(())
}

/// Sets `workload` up once for `seed`; returns the time it took.
pub fn setup_once(workload: Workload, seed: u64) -> Result<f64, Abort> {
    let t0 = Instant::now();
    let _harness = Harness::setup(workload, seed)?;
    Ok(t0.elapsed().as_secs_f64())
}

/// What the traced windows saw, summed.
#[derive(Default)]
struct Traced {
    ops: u64,
    bytes: u64,
    steps: u64,
    idle_steps: u64,
    frames: u64,
    counts: BTreeMap<&'static str, u64>,
}

/// Runs one configuration end to end.
pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    // The sample buffers come first, so the resident-set baseline
    // holds them along with the binary and the runtime.
    let mut untraced = OpLog::new(cfg.seed, SAMPLE_CAP);
    let mut untraced_time = Duration::ZERO;
    let mut traced_log = OpLog::new(cfg.seed, 1);
    let mut rec = Recorder::new(if cfg.mode == Mode::EndToEnd {
        0
    } else {
        SPAN_CAP
    });
    let rss_base = status_mib("VmRSS");
    let t0 = Instant::now();
    let mut h = match Harness::setup(cfg.workload, cfg.seed) {
        Ok(h) => h,
        Err(Abort(why)) => {
            report.attempted = 1;
            report.failed = 1;
            report.abort = Some(format!("set-up failed: {why}"));
            return report;
        }
    };
    let mut setup_times = vec![t0.elapsed().as_secs_f64()];

    let mut traced = Traced::default();
    let windows = if cfg.mode == Mode::EndToEnd {
        E2E_WINDOWS
    } else {
        TRACE_WINDOWS
    };
    // Cold set-ups for the `setup_s` median, after each untraced
    // window (a traced run does not report it).
    let cold_exe = cfg
        .setup_exe
        .as_deref()
        .filter(|_| cfg.mode != Mode::Layers);
    let untraced_windows = if cfg.mode == Mode::EndToEnd {
        windows
    } else {
        windows / 2
    };
    let burst = Duration::from_secs_f64(cfg.seconds * SETUP_SHARE / untraced_windows as f64);
    let mut untraced_done = 0;
    let mut cold = Vec::new();
    let mut setup_failed = 0;
    let mut abort = None;
    for w in 0..windows {
        let traced_window = cfg.mode != Mode::EndToEnd && w % 2 == 1;
        let log = if traced_window {
            &mut traced_log
        } else {
            &mut untraced
        };
        match cfg.ops {
            Some(n) => {
                log.max_ops = Some(log.done() + n / windows);
                log.start(None);
            }
            None => {
                let secs = cfg.seconds / windows as f64;
                log.start(Some(Instant::now() + Duration::from_secs_f64(secs)));
            }
        }
        log.corrupt_op = cfg.corrupt_op;
        let r = if traced_window {
            let before = counters();
            let wire = h.wire();
            let (s0, i0, f0) = (wire.steps, wire.idle_steps, wire.frames);
            let (ops0, bytes0) = (log.done(), log.bytes);
            rec.open_window();
            let r = h.measure(&mut rec, log);
            rec.close_window();
            let after = counters();
            let wire = h.wire();
            traced.steps += wire.steps - s0;
            traced.idle_steps += wire.idle_steps - i0;
            traced.frames += wire.frames - f0;
            traced.ops += log.done() - ops0;
            traced.bytes += log.bytes - bytes0;
            for (k, v) in after {
                *traced.counts.entry(k).or_default() += v - before[k];
            }
            r.map(|_| ())
        } else {
            h.measure(&mut Untraced, log).map(|d| untraced_time += d)
        };
        if let Err(Abort(why)) = r {
            log.abort();
            abort = Some(why);
            break;
        }
        if let (Some(exe), false) = (cold_exe, traced_window) {
            untraced_done += 1;
            let min = if untraced_done == untraced_windows {
                SETUP_MIN_REPS
            } else {
                0
            };
            if let Err(Abort(why)) = cold_setups(exe, cfg, burst, min, &mut cold) {
                setup_failed = 1;
                abort = Some(format!("set-up failed: {why}"));
                break;
            }
        }
    }

    let peak_rss = status_mib("VmHWM") - rss_base;
    let peaks = h.wire().peaks;
    if cold_exe.is_some() {
        setup_times = cold;
    }

    report.attempted = untraced.done() + traced_log.done() + setup_failed;
    report.failed = untraced.failed + traced_log.failed + setup_failed;
    report.correct = abort.is_none() && report.failed == 0;
    report.abort = abort;
    if cfg.mode != Mode::Layers {
        end_to_end(
            &mut report,
            &mut untraced,
            untraced_time,
            &mut setup_times,
            peak_rss,
        );
    }
    if cfg.mode != Mode::EndToEnd {
        per_layer(
            &mut report,
            cfg,
            &rec,
            &traced,
            peaks,
            &untraced,
            untraced_time,
        );
        report.spans = rec.spans().to_vec();
    }
    report
}

/// The rates and the mean latency are totals over the measured time,
/// not medians of shorter slices: the machine switches between a fast
/// and a slow state every second or so, and a median over a mix of the
/// two jumps from one state to the other as the mix crosses one half,
/// while a mean moves only in proportion to the mix.
fn end_to_end(r: &mut Report, log: &mut OpLog, time: Duration, setup: &mut [f64], rss: f64) {
    let done = log.done().max(1) as f64;
    let secs = time.as_secs_f64();
    r.samples = log.samples.samples().len();
    r.measured_s = secs;
    let mut wall: Vec<f64> = log.samples.samples().iter().map(|s| s.wall_us).collect();
    let mut fct: Vec<f64> = log.samples.samples().iter().map(|s| s.fct_ms).collect();
    r.push("setup_s", median(setup), "s");
    r.push("success_rate", log.ok as f64 / done, "ratio");
    r.push("peak_rss_mib", rss, "MiB");
    r.push("ops_per_s", log.done() as f64 / secs, "1/s");
    r.push("latency_mean_us", log.wall_us_sum / done, "us");
    r.push("latency_p90_us", quantile(&mut wall, 0.9), "us");
    r.push(
        "goodput_mib_s",
        log.bytes as f64 / secs / (1u64 << 20) as f64,
        "MiB/s",
    );
    r.push("fct_p50_ms", quantile(&mut fct, 0.5), "ms");
    r.push("fct_p95_ms", quantile(&mut fct, 0.95), "ms");
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn per_layer(
    r: &mut Report,
    cfg: &Config,
    rec: &Recorder,
    tr: &Traced,
    peaks: wire::Peaks,
    untraced: &OpLog,
    untraced_time: Duration,
) {
    let ops = tr.ops.max(1) as f64;
    let c = |n: &str| tr.counts.get(n).copied().unwrap_or(0);
    let per_op = |n: &str| c(n) as f64 / ops;
    let (inside, total) = trace::span_cost_ns();
    let mut attributed = 0.0;
    let mut raw = 0;
    for layer in LAYERS {
        let t = rec.totals[layer as usize];
        raw += t.self_ns;
        let self_ns = (t.self_ns as f64 - t.count as f64 * inside).max(0.0);
        attributed += self_ns;
        r.push(
            format!("{}_ns_per_op", layer.name()),
            self_ns / ops,
            "ns/op",
        );
    }
    for layer in LAYERS {
        let t = rec.totals[layer as usize];
        r.push(
            format!("ukalloc.allocs_per_op.{}", layer.name()),
            t.allocs as f64 / ops,
            "allocs/op",
        );
    }
    r.push(
        "uknetdev.frames_per_burst",
        ratio(c("netdev.rx_frames"), c("netdev.rx_bursts")),
        "frames/burst",
    );
    r.push(
        "uknetdev.pool_free_min",
        peaks.pool_free_min as f64,
        "count",
    );
    r.push(
        "uknetdev.rx_ring_drops_per_op",
        per_op("netdev.rx_ring_drops"),
        "1/op",
    );
    r.push(
        "uknetstack.tso_super_frames_per_op",
        per_op("netstack.tso_super_frames"),
        "1/op",
    );
    r.push(
        "uknetstack.gro_merge_ratio",
        ratio(c("netstack.gro_merged_frames"), c("netstack.rx_frames")),
        "ratio",
    );
    r.push(
        "uknetstack.dropped_per_op",
        per_op("netstack.dropped"),
        "1/op",
    );
    r.push(
        "uknetstack.tcp.retransmits_per_op",
        per_op("netstack.tcp.retransmits"),
        "1/op",
    );
    r.push(
        "uknetstack.tcp.rtx_per_drop",
        ratio(c("netstack.tcp.retransmits"), c("testnet.drops_injected")),
        "ratio",
    );
    for n in [
        "rto_fires",
        "tlp_probes",
        "sack_rtx",
        "spurious_rtx",
        "ooo_shed",
        "timewait",
    ] {
        let key = format!("netstack.tcp.{n}");
        r.push(format!("uknetstack.tcp.{n}_per_op"), per_op(&key), "1/op");
    }
    r.push(
        "uknetstack.timer.armed_peak",
        peaks.armed_timers as f64,
        "count",
    );
    r.push("uknetstack.flow.conns_peak", peaks.conns as f64, "count");
    r.push("ukevent.wakeups_per_op", per_op("ukevent.wakeups"), "1/op");
    r.push("ukevent.edges_per_op", per_op("ukevent.edges"), "1/op");
    r.push(
        "testnet.drops_per_op",
        per_op("testnet.drops_injected"),
        "1/op",
    );
    r.push("testnet.frames_per_op", tr.frames as f64 / ops, "1/op");
    r.push("testnet.steps_per_op", tr.steps as f64 / ops, "1/op");
    r.push(
        "testnet.idle_step_share",
        ratio(tr.idle_steps, tr.steps),
        "ratio",
    );
    // Traced vs untraced throughput, and how far the layers' self
    // times (less the tracer's own cost inside each span) are from
    // accounting for exactly the untraced time per operation: 0 when
    // they do, whether they count too little or too much.
    let traced_s = rec.window_ns as f64 / 1e9;
    let untraced_s = untraced_time.as_secs_f64();
    let (t_work, u_work) = if cfg.workload.bulk() {
        (tr.bytes as f64, untraced.bytes as f64)
    } else {
        (tr.ops as f64, untraced.done() as f64)
    };
    r.push(
        "trace.overhead_ratio",
        (t_work / traced_s) / (u_work / untraced_s),
        "ratio",
    );
    let untraced_ns = untraced_time.as_nanos() as f64;
    let reconcile = (attributed / t_work.max(1.0)) / (untraced_ns / u_work.max(1.0));
    r.push("trace.reconcile_error", (1.0 - reconcile).abs(), "ratio");
    // The part of the traced windows no layer span covers, less the
    // tracer's own bookkeeping between spans: loop control and gauge
    // sampling. Small means the spans' self times add up to the window.
    let between = rec.span_count() as f64 * (total - inside);
    let window = rec.window_ns as f64;
    r.push(
        "trace.unattributed_share",
        ((window - raw as f64 - between) / window).max(0.0),
        "ratio",
    );
    r.push("trace.spans_per_op", rec.span_count() as f64 / ops, "1/op");
}

/// `Layer` by span-file index.
pub fn layer_name(i: u8) -> &'static str {
    LAYERS
        .get(i as usize)
        .map_or("bench.window", |l: &Layer| l.name())
}
