//! The in-process closed-loop workloads: `optimize` and `decide`.
//!
//! One caller issues the next query as soon as the previous verdict is
//! back. Each query is checked by [`crate::check`] and its work counts go
//! to the [`Ledger`].

use crate::check;
use crate::ledger::{Ledger, Work};
use crate::pool::{self, Pool, Rng};
use crate::spans::Recorder;
use certnn_nn::network::Network;
use certnn_verify::attack::{AttackConfig, Falsifier};
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::verifier::{Verifier, VerifierOptions};
use std::time::{Duration, Instant};

/// Networks trained for `optimize`: deep, narrow I4×3 predictors.
const OPTIMIZE_ARCHS: [&[usize]; 1] = [&[3, 3, 3, 3]];
/// Networks in the `optimize` pool.
const OPTIMIZE_NETS: usize = 480;
/// Networks trained for `decide`: a mix of I2, I3 and I4 predictors.
/// (I2×6 nets were tried: their proofs took up to 300 ms and made up
/// most of the slowest twentieth of queries.)
const DECIDE_ARCHS: [&[usize]; 3] = [&[4, 4], &[4, 4, 4], &[3, 3, 3, 3]];
/// Networks in the `decide` pool: more than a 20 s run asks, so each
/// query meets a net of its own. With 360 nets a run met each net two or
/// three times, a few hard I3×4 nets made up the slowest twentieth, and
/// the 95th-percentile latency moved 23% (quartile spread) between seeds.
const DECIDE_NETS: usize = 960;
/// Each threshold sits this far (as a share of the net's reachable
/// value, at least 0.5 m/s) above or below what a falsifier reaches on
/// its net. The gap keeps τ off the true maximum, where a proof would
/// have to close an arbitrarily small margin (with a fixed τ range the
/// 95th-percentile latency moved 26% from seed to seed).
const TAU_MARGIN: (f64, f64) = (0.3, 0.8);
/// Of every [`TAU_BLOCK`] queries on one architecture, this many place
/// τ above the reachable value; with the falsifier short of the true
/// maximum on some nets, about half of the queries end up proved.
const TAU_ABOVE: usize = 3;
/// Queries per architecture over which the τ sides are dealt exactly.
/// Proofs on I3×4 nets make most of the slowest twentieth, so their
/// share in a run must not drift with independent draws.
const TAU_BLOCK: usize = 5;

/// Which question every query of the workload asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Question {
    /// The paper's maximum lateral velocity.
    Maximize,
    /// The paper's "prove lateral velocity ≤ τ".
    Decide,
}

/// Verifier settings of every benchmark query: serial search, so work
/// counts repeat exactly, and a generous per-query limit that a healthy
/// run never reaches.
pub fn verifier_options() -> VerifierOptions {
    VerifierOptions {
        threads: 1,
        time_limit: Some(Duration::from_secs(30)),
        ..VerifierOptions::default()
    }
}

/// A set-up closed-loop workload.
pub struct ClosedLoop {
    /// What each query asks.
    pub question: Question,
    /// The trained networks.
    pub pool: Pool,
    /// Objective value a falsifier reached on each network (`decide`
    /// places its thresholds around it; empty for `optimize`).
    reach: Vec<f64>,
    seed: u64,
    /// Number of architectures in the pool.
    archs: usize,
    order: Vec<usize>,
    spec: InputSpec,
    objective: LinearObjective,
    verifier: Verifier,
}

/// One answered query.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Seconds from issuing the query to its verdict.
    pub latency_s: f64,
    /// The verdict passed every check and its work repeated.
    pub ok: bool,
    /// Work the query reported.
    pub work: Work,
    /// For decision queries: whether the property was proved.
    pub proved: bool,
    /// The solver tagged the (still exact) answer as degraded.
    pub degraded: bool,
}

/// Answers of one measured window.
#[derive(Debug, Default)]
pub struct Window {
    /// Per-query answers, in issue order.
    pub answers: Vec<Answer>,
    /// Wall time of the window.
    pub wall_s: f64,
}

/// How long a window runs.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// Until this much time has passed (the query in flight completes).
    Seconds(f64),
    /// Exactly this many queries.
    Queries(usize),
}

/// The network order of the query stream: each run of `archs` queries
/// takes one net of every architecture (net `i` has architecture
/// `i % archs`), each architecture's nets in a shuffled order. Any
/// prefix of the stream therefore holds the architectures in equal shares.
fn deal(seed: u64, nets: usize, archs: usize) -> Vec<usize> {
    let per = nets / archs;
    let shuffled: Vec<Vec<usize>> = (0..archs).map(|a| Rng::new(seed, 20 + a as u64).permutation(per)).collect();
    (0..per * archs).map(|q| shuffled[q % archs][q / archs] * archs + q % archs).collect()
}

impl ClosedLoop {
    /// Generates the data and trains the pool for `question` from `seed`.
    ///
    /// # Errors
    ///
    /// A message when set-up fails.
    pub fn setup(question: Question, seed: u64, rec: &Recorder) -> Result<Self, String> {
        let (archs, count): (&[&[usize]], usize) = match question {
            Question::Maximize => (&OPTIMIZE_ARCHS, OPTIMIZE_NETS),
            Question::Decide => (&DECIDE_ARCHS, DECIDE_NETS),
        };
        let pool = pool::build(seed, archs, count, rec)?;
        let order = deal(seed, pool.nets.len(), archs.len());
        let (spec, objective) = (pool::paper_spec(), pool::objective());
        let reach = match question {
            Question::Maximize => Vec::new(),
            Question::Decide => {
                // A short attack per net: τ only needs to sit near what
                // the net can reach, and the pool is large.
                let _span = rec.root("verify.attack");
                pool.nets
                    .iter()
                    .enumerate()
                    .map(|(i, net)| {
                        let config = AttackConfig { restarts: 4, steps: 40, step_frac: 0.12, seed: pool::mix(seed, 3000 + i as u64) };
                        Falsifier::with_config(config)
                            .attack(net, &spec, &objective)
                            .map(|a| a.best_value)
                            .map_err(|e| format!("falsifier: {e}"))
                    })
                    .collect::<Result<_, _>>()?
            }
        };
        Ok(Self {
            question,
            pool,
            reach,
            seed,
            archs: archs.len(),
            order,
            spec,
            objective,
            verifier: Verifier::with_options(verifier_options()),
        })
    }

    /// Network and threshold of query `q` of the stream.
    pub fn query(&self, q: usize) -> (usize, f64) {
        let net = self.order[q % self.order.len()];
        let tau = match self.question {
            Question::Maximize => 0.0,
            Question::Decide => {
                // The k-th query on this architecture takes its side from
                // a shuffled block of TAU_BLOCK sides of that architecture.
                let (arch, k) = (q % self.archs, q / self.archs);
                let block = Rng::new(pool::mix(self.seed, 30 + arch as u64), (k / TAU_BLOCK) as u64).permutation(TAU_BLOCK);
                let side = if block[k % TAU_BLOCK] < TAU_ABOVE { 1.0 } else { -1.0 };
                let mut rng = Rng::new(self.seed, 10_000 + q as u64);
                let margin = TAU_MARGIN.0 + rng.unit() * (TAU_MARGIN.1 - TAU_MARGIN.0);
                let reach = self.reach[net];
                reach + side * margin * reach.abs().max(0.5)
            }
        };
        (net, tau)
    }

    /// The networks of the first `n` queries (with the shared box and
    /// objective), for the layer probes.
    pub fn probe_queries(&self, n: usize) -> Vec<(&Network, InputSpec, LinearObjective)> {
        (0..n)
            .map(|q| (&self.pool.nets[self.query(q).0], self.spec.clone(), self.objective.clone()))
            .collect()
    }

    /// Runs query `q`, checks its verdict and records its work.
    fn answer(&self, q: usize, ledger: &mut Ledger, rec: &Recorder) -> Answer {
        let (i, tau) = self.query(q);
        let net = &self.pool.nets[i];
        let key = (i, tau.to_bits());
        let check_seed = pool::mix(self.seed, q as u64);
        let abs_gap = verifier_options().abs_gap;
        let (latency_s, checked, stats, proved) = match self.question {
            Question::Maximize => {
                let t = Instant::now();
                let r = {
                    let _span = rec.root("query.maximize");
                    self.verifier.maximize(net, &self.spec, &self.objective)
                };
                let latency_s = t.elapsed().as_secs_f64();
                match r {
                    Ok(r) => {
                        let c = check::check_max(net, &self.spec, &self.objective, abs_gap, &r, check_seed);
                        (latency_s, c, Some(r.stats), false)
                    }
                    Err(e) => (latency_s, Err(format!("verifier error: {e}")), None, false),
                }
            }
            Question::Decide => {
                let t = Instant::now();
                let r = {
                    let _span = rec.root("query.prove_below");
                    self.verifier.prove_below(net, &self.spec, &self.objective, tau)
                };
                let latency_s = t.elapsed().as_secs_f64();
                match r {
                    Ok((v, s)) => {
                        let c = check::check_decide(net, &self.spec, &self.objective, tau, abs_gap, &v, check_seed);
                        (latency_s, c, Some(s), v.holds())
                    }
                    Err(e) => (latency_s, Err(format!("verifier error: {e}")), None, false),
                }
            }
        };
        let work = stats.map(|s| Work::of(&s)).unwrap_or_default();
        let mut ok = checked.is_ok();
        if let Err(msg) = checked {
            eprintln!("certbench: query {q} (net {i}, tau {tau}) failed: {msg}");
        }
        if stats.is_some() && !ledger.record(key, work) {
            eprintln!("certbench: query {q} (net {i}) repeated with different work counts");
            ok = false;
        }
        let degraded = stats.is_some_and(|s| check::degraded(s.degradation));
        Answer { latency_s, ok, work, proved, degraded }
    }

    /// Runs queries `0..` for the given span.
    pub fn run(&self, length: Length, ledger: &mut Ledger, rec: &Recorder) -> Window {
        let start = Instant::now();
        let mut answers = Vec::new();
        loop {
            let more = match length {
                Length::Seconds(s) => start.elapsed().as_secs_f64() < s,
                Length::Queries(n) => answers.len() < n,
            };
            if !more {
                break;
            }
            answers.push(self.answer(answers.len(), ledger, rec));
        }
        Window {
            answers,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dealt_order_is_a_permutation_with_equal_architecture_shares() {
        let order = deal(7, 12, 3);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        for (q, net) in order.iter().enumerate() {
            assert_eq!(net % 3, q % 3, "query {q} takes net {net}");
        }
        assert_ne!(order, deal(8, 12, 3));
    }
}
