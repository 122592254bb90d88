//! Trace reconciliation: the layer spans' self times cover the traced
//! windows, and the harness itself allocates nothing while timed.
//!
//! Alone in this test binary: allocation counts and timings are
//! process-wide, so no other test may run beside it.

use perfbench::{run, Config, Mode, Workload};

#[test]
fn layer_spans_cover_the_traced_windows() {
    for (w, ops) in [(Workload::RpcSmall, 200_000), (Workload::BlobLossy, 80)] {
        let r = run(&Config {
            workload: w,
            seed: 3,
            seconds: 60.0,
            mode: Mode::Layers,
            ops: Some(ops),
            corrupt_op: None,
            setup_exe: None,
        });
        assert!(r.correct, "{}: {:?}", w.name(), r.abort);
        let gap = r.get("trace.unattributed_share").unwrap();
        assert!(
            gap < 0.1,
            "{}: {gap} of the traced time is in no span",
            w.name()
        );
        assert_eq!(r.get("ukalloc.allocs_per_op.bench.client"), Some(0.0));
        assert!(!r.spans.is_empty());
    }
}
