//! The output checks: a corrupted reply is caught and counted, and a
//! clean run reports no failure.

use perfbench::{run, Config, Mode, Workload};

fn cfg(w: Workload, corrupt_op: Option<u64>) -> Config {
    Config {
        workload: w,
        seed: 7,
        seconds: 60.0,
        mode: Mode::EndToEnd,
        ops: Some(60),
        corrupt_op,
        setup_exe: None,
    }
}

#[test]
fn a_corrupted_reply_counts_as_failed() {
    for w in Workload::ALL {
        let clean = run(&cfg(w, None));
        assert!(clean.correct, "{}: {:?}", w.name(), clean.abort);
        assert_eq!(clean.failed, 0);
        assert_eq!(clean.get("success_rate"), Some(1.0));

        let bad = run(&cfg(w, Some(30)));
        assert!(!bad.correct, "{}: corruption went unnoticed", w.name());
        assert_eq!(bad.failed, 1, "{}", w.name());
        assert!(bad.abort.is_none(), "a wrong reply is counted, not fatal");
        let rate = bad.get("success_rate").unwrap();
        assert!(
            rate < 1.0 && rate > 0.9,
            "{}: success_rate {rate}",
            w.name()
        );
    }
}
