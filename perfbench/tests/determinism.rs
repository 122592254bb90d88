//! Same seed, same work: the virtual-clock completion times and every
//! exact count (retransmissions, drops, frames, steps, allocations per
//! span) repeat run to run. Wall-clock figures are the only ones
//! allowed to move.
//!
//! Kept alone in this test binary: the counters and the allocation
//! count are process-wide, so no other test may run beside it.

use perfbench::{run, Config, Mode, Report, Workload};

/// Metrics that are timings on the wall clock (or derived from them).
fn wall_clock(name: &str) -> bool {
    name.ends_with("_ns_per_op")
        || name.starts_with("trace.")
        || matches!(
            name,
            "setup_s"
                | "peak_rss_mib"
                | "ops_per_s"
                | "latency_mean_us"
                | "latency_p90_us"
                | "goodput_mib_s"
        )
}

fn fixed_work(w: Workload, ops: u64) -> Report {
    let r = run(&Config {
        workload: w,
        seed: 42,
        seconds: 60.0,
        mode: Mode::Both,
        ops: Some(ops),
        corrupt_op: None,
        setup_exe: None,
    });
    assert!(r.correct, "{}: {:?}", w.name(), r.abort);
    assert_eq!(r.failed, 0);
    r
}

#[test]
fn same_seed_repeats_exactly() {
    for (w, ops) in [
        (Workload::RpcSmall, 2000),
        (Workload::HttpChurn, 400),
        (Workload::BlobClean, 40),
        (Workload::BlobLossy, 40),
    ] {
        let a = fixed_work(w, ops);
        let b = fixed_work(w, ops);
        assert_eq!(a.attempted, b.attempted);
        let exact: Vec<_> = a.metrics.iter().filter(|m| !wall_clock(&m.name)).collect();
        assert!(exact.iter().any(|m| m.name == "fct_p95_ms"));
        assert!(exact
            .iter()
            .any(|m| m.name == "uknetstack.tcp.retransmits_per_op"));
        for m in exact {
            let other = b.get(&m.name).expect("same metric set");
            assert!(
                m.value == other || (m.value.is_nan() && other.is_nan()),
                "{}: {} differs between same-seed runs: {} vs {}",
                w.name(),
                m.name,
                m.value,
                other
            );
        }
        if w == Workload::BlobLossy {
            assert!(a.get("testnet.drops_per_op").unwrap() > 0.0, "faults fired");
            assert!(a.get("uknetstack.tcp.retransmits_per_op").unwrap() > 0.0);
        } else {
            assert_eq!(a.get("uknetstack.tcp.retransmits_per_op"), Some(0.0));
        }
    }
}
