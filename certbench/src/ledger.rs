//! Work counts kept apart from time.
//!
//! Every query's [`VerifyStats`] counts are recorded under the query's
//! identity. At `threads 1` the search is deterministic, so a repeated
//! query must repeat its counts exactly; a mismatch fails the query. In
//! a traced run the obs counters are reset before the traced window, and
//! their delta must equal the sum of the per-query counts.

use certnn_obs::MetricsSnapshot;
use certnn_verify::verifier::VerifyStats;
use std::collections::HashMap;
use std::ops::AddAssign;

/// Work one query did, as reported in its own statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Branch-and-bound nodes.
    pub nodes: u64,
    /// Simplex pivots.
    pub pivots: u64,
    /// Warm LP solves.
    pub warm_solves: u64,
    /// Cold LP solves.
    pub cold_solves: u64,
    /// Nodes whose LP the skip gate elided.
    pub lp_skipped: u64,
}

impl Work {
    /// The counts of one query's statistics.
    pub fn of(s: &VerifyStats) -> Self {
        Self {
            nodes: s.nodes as u64,
            pivots: s.lp_iterations as u64,
            warm_solves: s.warm_solves as u64,
            cold_solves: s.cold_solves as u64,
            lp_skipped: s.lp_skipped as u64,
        }
    }

    /// The same counts from a daemon outcome.
    pub fn of_wire(s: &certnn_serve::protocol::WireStats) -> Self {
        Self {
            nodes: s.nodes,
            pivots: s.lp_iterations,
            warm_solves: s.warm_solves,
            cold_solves: s.cold_solves,
            lp_skipped: s.lp_skipped,
        }
    }

    /// `(name, per-query sum, obs counter delta)` for every count whose
    /// obs counter is defined as the same quantity. Pivots are not among
    /// them: `lp.pivots` also counts pivots that the per-query
    /// `lp_iterations` leaves out, so the two differ by definition.
    pub fn against(&self, obs: &MetricsSnapshot) -> Vec<(&'static str, u64, u64)> {
        let c = |name| obs.counter(name).unwrap_or(0);
        vec![
            ("bab.nodes", self.nodes, c("bab.nodes")),
            ("lp.warm_solves", self.warm_solves, c("lp.warm_solves")),
            ("lp.cold_solves", self.cold_solves, c("lp.cold_solves")),
            ("bab.lp_skipped", self.lp_skipped, c("bab.lp_skipped")),
        ]
    }
}

impl AddAssign for Work {
    fn add_assign(&mut self, o: Self) {
        self.nodes += o.nodes;
        self.pivots += o.pivots;
        self.warm_solves += o.warm_solves;
        self.cold_solves += o.cold_solves;
        self.lp_skipped += o.lp_skipped;
    }
}

/// Per-query work counts of one workload.
#[derive(Debug, Default)]
pub struct Ledger {
    first: HashMap<(usize, u64), Work>,
    /// Sum over every recorded query.
    pub total: Work,
    /// Queries whose counts differed from an earlier run of the same query.
    pub mismatches: u64,
}

impl Ledger {
    /// Records one query's counts; `false` when the same query earlier
    /// did different work.
    pub fn record(&mut self, key: (usize, u64), work: Work) -> bool {
        self.total += work;
        let first = *self.first.entry(key).or_insert(work);
        let same = first == work;
        if !same {
            self.mismatches += 1;
        }
        same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_must_match_and_totals_add_up() {
        let w = Work { nodes: 3, pivots: 40, warm_solves: 2, cold_solves: 1, lp_skipped: 1 };
        let mut l = Ledger::default();
        assert!(l.record((1, 0), w));
        assert!(l.record((1, 0), w));
        assert!(!l.record((1, 0), Work { nodes: 4, ..w }));
        assert!(l.record((2, 0), Work { nodes: 4, ..w }));
        assert_eq!(l.mismatches, 1);
        assert_eq!(l.total.nodes, 14);
        assert_eq!(l.total.pivots, 160);
    }
}
