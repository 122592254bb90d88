//! `perfbench`: run one workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rpc_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer metrics, `--trace both` every metric. A run measures for
//! `--seconds`. When it reports `setup_s` it also times set-ups in
//! fresh processes of itself between its measured windows, for a
//! tenth of that in all (`--setup-once` runs one set-up and prints its
//! time in seconds). Each metric is printed as `name value unit` on
//! its own line, and the last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//! Traced runs also write their spans to `perfbench/out/`. The exit
//! status is 1 if any reply failed its check or an operation failed,
//! and 2 for bad arguments.

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

use perfbench::{layer_name, run, setup_once, Config, Mode, Report, Workload};

const USAGE: &str = "usage: perfbench --workload <rpc_small|http_churn|blob_clean|blob_lossy> \
--seed <n> --seconds <s> --trace <0|1|both>
       perfbench --setup-once --workload <name> --seed <n>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::RpcSmall,
        seed: 1,
        seconds: 10.0,
        mode: Mode::EndToEnd,
        ops: None,
        corrupt_op: None,
        setup_exe: Some(std::env::current_exe().map_err(|e| format!("own path: {e}"))?),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.mode = match value.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Layers,
                    "both" => Mode::Both,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

/// The result line: one JSON object.
fn json(r: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN; an undefined value reads as null.
        let v = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".into()
        };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Writes the kept spans as TSV: id, parent, name, op, start, end
/// (ns since the run's epoch), allocations.
fn write_spans(cfg: &Config, r: &Report) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{}-seed{}.tsv", cfg.workload.name(), cfg.seed);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "id\tparent\tname\top\tstart_ns\tend_ns\tallocs")?;
    for s in &r.spans {
        let parent = if s.parent == u32::MAX {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            layer_name(s.layer),
            s.op,
            s.start_ns,
            s.end_ns,
            s.allocs
        )?;
    }
    out.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let once = args.first().is_some_and(|a| a == "--setup-once");
    let cfg = match parse(&args[usize::from(once)..]) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if once {
        return match setup_once(cfg.workload, cfg.seed) {
            Ok(secs) => {
                println!("{secs}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {}", e.0);
                ExitCode::FAILURE
            }
        };
    }
    let report = run(&cfg);
    if cfg.mode != Mode::EndToEnd {
        match write_spans(&cfg, &report) {
            Ok(path) => eprintln!("perfbench: {} spans written to {path}", report.spans.len()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    if let Some(why) = &report.abort {
        eprintln!("perfbench: {} stopped early: {why}", cfg.workload.name());
    }
    if cfg.mode != Mode::Layers {
        println!(
            "# percentiles from {} of {} operations, rates and mean over {:.1} s",
            report.samples, report.attempted, report.measured_s
        );
    }
    for m in &report.metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}
