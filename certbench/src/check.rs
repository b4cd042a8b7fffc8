//! Verdict checks that do not trust the solver.
//!
//! Each check uses only public `nn`/`verify` APIs: witnesses are re-run
//! through [`Network::forward`] and must lie in the query box; claimed
//! bounds must dominate every real input the check evaluates (the
//! witness plus a few seeded points of the box).
//!
//! A query fails when its answer is not exact: a maximum that did not
//! close to `abs_gap`, or an undecided decision query. A [`Degradation`]
//! tag on an exact answer (a numeric fault the solver recovered from)
//! is not a failure; callers count it apart with [`degraded`].

use crate::pool::Rng;
use certnn_linalg::Vector;
use certnn_nn::network::Network;
use certnn_serve::protocol::JobOutcome;
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::verifier::{MaxResult, Verdict};
use certnn_verify::{Degradation, MilpStatus};

/// Tolerance on a witness's coordinates leaving the box.
const BOX_TOL: f64 = 1e-9;
/// Numeric slack when comparing a recomputed output to a claim.
const VALUE_TOL: f64 = 1e-7;
/// Seeded box points each bound is tested against.
const PROBES: usize = 4;

/// Objective value of `x`, after checking it lies in `spec`.
fn evaluate(net: &Network, spec: &InputSpec, obj: &LinearObjective, x: &Vector) -> Result<f64, String> {
    if !spec.contains(x, BOX_TOL) {
        return Err("witness lies outside the query box".into());
    }
    let out = net.forward(x).map_err(|e| format!("forward pass failed: {e}"))?;
    Ok(obj.eval(&out))
}

/// Largest objective value over `PROBES` seeded points of the box.
/// Callers compare it with a claimed bound plus `abs_gap`: the verifier
/// prunes at `incumbent + abs_gap`, so its contract is that a bound
/// dominates the true maximum up to `abs_gap`.
fn probe_max(net: &Network, spec: &InputSpec, obj: &LinearObjective, seed: u64) -> Result<f64, String> {
    let mut rng = Rng::new(seed, 77);
    let mut best = f64::NEG_INFINITY;
    for _ in 0..PROBES {
        let x: Vector = spec
            .bounds()
            .iter()
            .map(|iv| iv.lo() + rng.unit() * iv.width())
            .collect();
        best = best.max(evaluate(net, spec, obj, &x)?);
    }
    Ok(best)
}

/// `true` when the solver tagged its answer with any degradation.
pub fn degraded(d: Degradation) -> bool {
    d != Degradation::Exact
}

/// A claimed maximum, from an in-process result or a daemon outcome.
struct Claim {
    status: MilpStatus,
    upper: f64,
    value: Option<f64>,
    witness: Option<Vector>,
}

/// Checks a claimed maximum.
fn check_claim(net: &Network, spec: &InputSpec, obj: &LinearObjective, abs_gap: f64, c: Claim, seed: u64) -> Result<(), String> {
    if c.status != MilpStatus::Optimal {
        return Err(format!("query did not close: {:?}", c.status));
    }
    let (Some(value), Some(witness)) = (c.value, c.witness) else {
        return Err("closed maximum without a witness".into());
    };
    let upper = c.upper;
    let real = evaluate(net, spec, obj, &witness)?;
    if (real - value).abs() > abs_gap + VALUE_TOL {
        return Err(format!("witness evaluates to {real}, claimed {value}"));
    }
    if upper < value - VALUE_TOL {
        return Err(format!("upper bound {upper} below the achieved value {value}"));
    }
    if upper - value > abs_gap + VALUE_TOL * (1.0 + value.abs()) {
        return Err(format!("gap {} above abs_gap", upper - value));
    }
    let seen = probe_max(net, spec, obj, seed)?;
    if seen > upper + abs_gap + VALUE_TOL {
        return Err(format!("box point reaches {seen}, above the bound {upper} plus abs_gap"));
    }
    Ok(())
}

/// Checks an in-process maximisation result.
///
/// # Errors
///
/// The first failed check, as a message.
pub fn check_max(
    net: &Network,
    spec: &InputSpec,
    obj: &LinearObjective,
    abs_gap: f64,
    r: &MaxResult,
    seed: u64,
) -> Result<(), String> {
    let claim = Claim { status: r.status, upper: r.upper_bound, value: r.best_value, witness: r.witness.clone() };
    check_claim(net, spec, obj, abs_gap, claim, seed)
}

/// Checks a daemon outcome on its own terms (same rules as
/// [`check_max`]).
///
/// # Errors
///
/// The first failed check, as a message.
pub fn check_outcome(
    net: &Network,
    spec: &InputSpec,
    obj: &LinearObjective,
    abs_gap: f64,
    o: &JobOutcome,
    seed: u64,
) -> Result<(), String> {
    let witness = o.witness.as_ref().map(|w| w.iter().copied().collect());
    let claim = Claim { status: o.status, upper: o.upper_bound, value: o.best_value, witness };
    check_claim(net, spec, obj, abs_gap, claim, seed)
}

/// Checks a decision answer for `∀x. f(x) ≤ tau`.
///
/// # Errors
///
/// The first failed check, as a message.
pub fn check_decide(
    net: &Network,
    spec: &InputSpec,
    obj: &LinearObjective,
    tau: f64,
    abs_gap: f64,
    verdict: &Verdict,
    seed: u64,
) -> Result<(), String> {
    match verdict {
        Verdict::Holds { bound } => {
            if *bound > tau {
                return Err(format!("proved with bound {bound} above tau {tau}"));
            }
            let seen = probe_max(net, spec, obj, seed)?;
            if seen > *bound + abs_gap + VALUE_TOL {
                return Err(format!("box point reaches {seen}, above the proved bound {bound} plus abs_gap"));
            }
            Ok(())
        }
        Verdict::Violated { witness, value } => {
            let real = evaluate(net, spec, obj, witness)?;
            if (real - value).abs() > VALUE_TOL * (1.0 + value.abs()) {
                return Err(format!("witness evaluates to {real}, claimed {value}"));
            }
            if real <= tau {
                return Err(format!("refuting witness {real} does not exceed tau {tau}"));
            }
            Ok(())
        }
        Verdict::Unknown { .. } => Err("decision query left undecided".into()),
    }
}

/// `true` when a daemon outcome carries exactly the in-process verdict:
/// status, bound, value, witness and degradation, bit for bit.
pub fn same_verdict(o: &JobOutcome, r: &MaxResult) -> bool {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    let witness = r.witness.as_ref().map(|w| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
    o.status == r.status
        && o.upper_bound.to_bits() == r.upper_bound.to_bits()
        && bits(o.best_value) == bits(r.best_value)
        && o.witness.as_ref().map(|w| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>()) == witness
        && o.degradation == r.stats.degradation
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{objective, paper_spec};
    use certnn_nn::gmm::OutputLayout;
    use certnn_sim::features::FEATURE_COUNT;
    use certnn_verify::verifier::Verifier;

    fn small_net() -> Network {
        let outputs = OutputLayout::new(crate::pool::COMPONENTS).output_len();
        Network::relu_mlp(FEATURE_COUNT, &[4], outputs, 11).unwrap()
    }

    #[test]
    fn a_true_maximum_passes_and_tampering_is_caught() {
        let (net, spec, obj) = (small_net(), paper_spec(), objective());
        let r = Verifier::new().maximize(&net, &spec, &obj).unwrap();
        check_max(&net, &spec, &obj, 1e-6, &r, 1).unwrap();

        let mut low = r.clone();
        low.upper_bound = r.best_value.unwrap() - 1.0;
        assert!(check_max(&net, &spec, &obj, 1e-6, &low, 1).is_err());

        let mut lie = r.clone();
        lie.best_value = Some(r.best_value.unwrap() + 0.5);
        assert!(check_max(&net, &spec, &obj, 1e-6, &lie, 1).is_err());

        let mut outside = r.clone();
        let mut w = r.witness.clone().unwrap();
        w[0] = spec.bounds()[0].hi() + 1.0;
        outside.witness = Some(w);
        assert!(check_max(&net, &spec, &obj, 1e-6, &outside, 1).is_err());
    }

    #[test]
    fn decision_verdicts_are_checked_against_tau() {
        let (net, spec, obj) = (small_net(), paper_spec(), objective());
        let verifier = Verifier::new();
        let max = verifier.maximize(&net, &spec, &obj).unwrap().best_value.unwrap();
        for tau in [max - 0.5, max + 0.5] {
            let (v, _) = verifier.prove_below(&net, &spec, &obj, tau).unwrap();
            check_decide(&net, &spec, &obj, tau, 1e-6, &v, 2).unwrap();
            // The same verdict claimed for the other side of tau fails.
            let other = if v.holds() { max + 0.5 } else { max - 0.5 };
            let flipped = match &v {
                Verdict::Holds { .. } => Verdict::Holds { bound: other },
                Verdict::Violated { witness, .. } => Verdict::Violated { witness: witness.clone(), value: max },
                Verdict::Unknown { .. } => unreachable!(),
            };
            let bad_tau = if v.holds() { max - 0.5 } else { max + 0.5 };
            assert!(check_decide(&net, &spec, &obj, bad_tau, 1e-6, &flipped, 2).is_err());
        }
    }
}
