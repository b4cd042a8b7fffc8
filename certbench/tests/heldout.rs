//! The benchmark on a seed never used while it was tuned: every verdict
//! check passes, work counts repeat exactly, and each workload keeps the
//! layer mix it was chosen for.

use certbench::inproc::{ClosedLoop, Length, Question};
use certbench::ledger::Ledger;
use certbench::run::{run, Args, Metric, Workload};
use certbench::spans::Recorder;
use std::path::PathBuf;

const HELD_OUT_SEED: u64 = 424_242;

fn traced(workload: Workload, seconds: f64) -> Vec<Metric> {
    let args = Args {
        workload,
        seed: HELD_OUT_SEED,
        seconds,
        trace: true,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("certbench-heldout"),
    };
    let report = run(&args).expect("traced run");
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0, "{workload:?}: fail_frac must be 0");
    report.metrics
}

fn get(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("missing {name}")).value
}

/// Share of solver self time spent in the encoder.
fn encode_share(m: &[Metric]) -> f64 {
    let search: f64 = ["phase.bound_s", "phase.lp_warm_s", "phase.lp_cold_s", "phase.branch_s"]
        .iter()
        .map(|n| get(m, n))
        .sum();
    get(m, "phase.encode_s") / (get(m, "phase.encode_s") + search)
}

#[test]
fn held_out_seed_passes_every_check_and_keeps_each_layer_mix() {
    let optimize = traced(Workload::Optimize, 4.0);
    let decide = traced(Workload::Decide, 4.0);

    for m in [&optimize, &decide] {
        assert_eq!(get(m, "ledger.repeat_mismatches"), 0.0);
        assert_eq!(get(m, "client.failed"), 0.0);
        assert!(get(m, "bab.nodes") > 0.0);
        // The serve round trip: every query solved once, then asked ten
        // times more and answered from memory, far faster than a solve.
        let hit_ratio = get(m, "cache.hit_ratio");
        assert!((hit_ratio - 10.0 / 11.0).abs() < 1e-9, "hit ratio {hit_ratio}");
        assert!(get(m, "serve.hit_p50_ms") * 5.0 < get(m, "serve.miss_p50_ms"));
    }
    // optimize: the search tree, not the encoder, takes most of the time.
    assert!(encode_share(&optimize) < 0.4, "optimize encode share {}", encode_share(&optimize));
    // decide: the encoder presolve weighs more than on optimize.
    assert!(encode_share(&decide) > encode_share(&optimize));
}

#[test]
fn work_counts_repeat_exactly_across_runs() {
    let totals: Vec<_> = (0..2)
        .map(|_| {
            let cl = ClosedLoop::setup(Question::Maximize, HELD_OUT_SEED, &Recorder::new(false)).expect("set-up");
            let mut ledger = Ledger::default();
            let w = cl.run(Length::Queries(12), &mut ledger, &Recorder::new(false));
            assert!(w.answers.iter().all(|a| a.ok));
            ledger.total
        })
        .collect();
    assert!(totals[0].nodes > 0);
    assert_eq!(totals[0], totals[1]);
}
