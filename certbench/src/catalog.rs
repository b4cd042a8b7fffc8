//! The benchmark's workloads and metrics, and the `BENCHMARK.json` they
//! define.

/// Lower or higher is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalog.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def { name, unit, better, bound }
}

use Better::{Higher, Lower};

/// Workloads, with why each was chosen.
pub const WORKLOADS: [(&str, &str); 2] = [
    ("optimize", "max lateral velocity over seeded I4x3 nets, one closed-loop caller: the B&B tree (bound, LP, branch) dominates"),
    ("decide", "prove lateral velocity <= tau over seeded I2/I3/I4 nets, tau placed around a falsifier's reach so about half are proved: encoder presolve and root bounding dominate"),
];

/// End-to-end metrics, measured with tracing off.
/// Timing bounds sit at the 0.25 cap: on the two-core VM the benchmark
/// was tuned on, the same seed and binary read up to 20% apart from one
/// minute to the next.
pub const END_TO_END: [Def; 6] = [
    def("setup_s", "s", Lower, 0.25),
    def("queries_per_s", "1/s", Higher, 0.25),
    def("latency_p50_ms", "ms", Lower, 0.25),
    def("latency_tail_ms", "ms", Lower, 0.25),
    def("correct_frac", "ratio", Higher, 0.01),
    def("peak_rss_mb", "MB", Lower, 0.15),
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: [Def; 57] = [
    def("sim.dataset_s", "s", Lower, 0.0),
    def("nn.train_s", "s", Lower, 0.0),
    def("encoder.encode_ms", "ms", Lower, 0.0),
    def("encoder.rows", "count", Lower, 0.0),
    def("encoder.binaries", "count", Lower, 0.0),
    def("phase.encode_s", "s", Lower, 0.0),
    def("bounds.symbolic_us", "us", Lower, 0.0),
    def("bounds.analyze_us", "us", Lower, 0.0),
    def("bounds.refine_alpha_us", "us", Lower, 0.0),
    def("phase.bound_s", "s", Lower, 0.0),
    def("phase.bound_calls", "count", Lower, 0.0),
    def("phase.lp_warm_s", "s", Lower, 0.0),
    def("phase.lp_cold_s", "s", Lower, 0.0),
    def("lp.warm_solve_us.p50", "us", Lower, 0.0),
    def("lp.cold_solve_us.p50", "us", Lower, 0.0),
    def("lp.pivots", "count", Lower, 0.0),
    def("lp.warm_solves", "count", Higher, 0.0),
    def("lp.cold_solves", "count", Lower, 0.0),
    def("lp.warm_budget_stalls", "count", Lower, 0.0),
    def("lp.cold_fallbacks", "count", Lower, 0.0),
    def("lp.refactorizations", "count", Lower, 0.0),
    def("lp.warm_attempts", "count", Lower, 0.0),
    def("lp.warm_useful_ratio", "ratio", Higher, 0.0),
    def("bab.milp_calls", "count", Lower, 0.0),
    def("milp.nodes", "count", Lower, 0.0),
    def("milp.incumbent_updates", "count", Lower, 0.0),
    def("bab.nodes", "count", Lower, 0.0),
    def("bab.nodes_per_s", "1/s", Higher, 0.0),
    def("bab.lp_skipped", "count", Higher, 0.0),
    def("bab.lp_skip_ratio", "ratio", Higher, 0.0),
    def("bab.incumbent_updates", "count", Lower, 0.0),
    def("phase.branch_s", "s", Lower, 0.0),
    def("protocol.request_bytes", "bytes", Lower, 0.0),
    def("protocol.decode_request_us", "us", Lower, 0.0),
    def("protocol.job_key_us", "us", Lower, 0.0),
    def("cache.get_cert_us", "us", Lower, 0.0),
    def("cache.put_cert_us", "us", Lower, 0.0),
    def("cache.lookups", "count", Higher, 0.0),
    def("cache.hit_ratio", "ratio", Higher, 0.0),
    def("cache.corrupt", "count", Lower, 0.0),
    def("server.queue_wait_ms.p50", "ms", Lower, 0.0),
    def("server.queue_wait_ms.tail", "ms", Lower, 0.0),
    def("server.job_wall_ms.p50", "ms", Lower, 0.0),
    def("server.worker_utilization", "ratio", Lower, 0.0),
    def("server.jobs_coalesced", "count", Higher, 0.0),
    def("serve.hit_p50_ms", "ms", Lower, 0.0),
    def("serve.hit_tail_ms", "ms", Lower, 0.0),
    def("serve.miss_p50_ms", "ms", Lower, 0.0),
    def("client.lateness_tail_ms", "ms", Lower, 0.0),
    def("client.sent", "count", Higher, 0.0),
    def("client.succeeded", "count", Higher, 0.0),
    def("client.failed", "count", Lower, 0.0),
    def("ledger.repeat_mismatches", "count", Lower, 0.0),
    def("ledger.obs_mismatches", "count", Lower, 0.0),
    def("verify.degraded_answers", "count", Lower, 0.0),
    def("obs.trace_overhead_frac", "ratio", Lower, 0.0),
    def("obs.untraced_s", "s", Lower, 0.0),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// Renders `BENCHMARK.json` from the catalog.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"certbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"certbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let items: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    s.push_str(&items.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let items: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound
            )
        })
        .collect();
    s.push_str(&items.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let items: Vec<String> = PER_LAYER
        .iter()
        .map(|d| format!("    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}", d.name, d.unit, d.better.as_str()))
        .collect();
    s.push_str(&items.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_the_limits() {
        let mut seen = HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
        }
        for (name, why) in WORKLOADS {
            assert!(seen.insert(name));
            assert!(why.len() <= 200 && !why.contains('"'));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, benchmark_json(), "regenerate with `certbench --describe`");
    }
}
