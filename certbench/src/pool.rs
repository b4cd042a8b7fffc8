//! Workload inputs made from the seed: training data, trained networks
//! and the query specifications. The program under test only ever sees
//! these generated networks, specs and requests.

use crate::spans::Recorder;
use certnn_core::scenario::{lateral_mean_objectives, left_vehicle_spec};
use certnn_datacheck::highway::highway_validator;
use certnn_nn::gmm::OutputLayout;
use certnn_nn::loss::GmmNll;
use certnn_nn::network::Network;
use certnn_nn::train::{Dataset, TrainConfig, Trainer};
use certnn_sim::features::FEATURE_COUNT;
use certnn_sim::scenario::{generate_dataset, ScenarioConfig};
use certnn_verify::property::{InputSpec, LinearObjective};
use std::time::Instant;

/// SplitMix64 finaliser: decorrelates `(seed, index)` pairs.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Small deterministic generator for workload choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(mix(seed, stream))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Mixture components of every benchmark predictor: one component keeps
/// one objective (its lateral-velocity mean) per query.
pub const COMPONENTS: usize = 1;

/// Training epochs per network.
const EPOCHS: usize = 5;

/// The case-study objective: the lateral-velocity mean.
pub fn objective() -> LinearObjective {
    lateral_mean_objectives(OutputLayout::new(COMPONENTS))
        .into_iter()
        .next()
        .expect("one mixture component")
}

/// Networks trained for one workload, with the times set-up spent.
pub struct Pool {
    /// Trained predictors, in training order.
    pub nets: Vec<Network>,
    /// Seconds spent generating and sanitizing the dataset.
    pub dataset_s: f64,
    /// Seconds spent training every network.
    pub train_s: f64,
}

/// Generates and sanitizes one dataset from `seed`, then trains `count`
/// networks on it, cycling through the hidden-layer shapes in `archs`.
///
/// # Errors
///
/// A message when data generation or training fails.
pub fn build(seed: u64, archs: &[&[usize]], count: usize, rec: &Recorder) -> Result<Pool, String> {
    let t = Instant::now();
    let raw = {
        let _span = rec.root("sim.dataset");
        let scenario = ScenarioConfig {
            vehicles: 16,
            episode_seconds: 20.0,
            warmup_seconds: 1.0,
            sample_every: 10,
            seeds: vec![mix(seed, 1)],
            exclude_risky: false,
            ..ScenarioConfig::default()
        };
        let mut raw = generate_dataset(&scenario).map_err(|e| format!("dataset: {e}"))?;
        highway_validator(1.0).sanitize(&mut raw);
        raw
    };
    if raw.is_empty() {
        return Err("dataset is empty after sanitizing".into());
    }
    let dataset_s = t.elapsed().as_secs_f64();
    let data = Dataset::from_samples(raw);
    let layout = OutputLayout::new(COMPONENTS);
    let loss = GmmNll::new(COMPONENTS);

    let t = Instant::now();
    let mut nets = Vec::with_capacity(count);
    for i in 0..count {
        let _span = rec.root("nn.train");
        let net_seed = mix(seed, 1000 + i as u64);
        let hidden = archs[i % archs.len()];
        let mut net = Network::relu_mlp(FEATURE_COUNT, hidden, layout.output_len(), net_seed)
            .map_err(|e| format!("network: {e}"))?;
        let config = TrainConfig {
            epochs: EPOCHS,
            batch_size: 64,
            seed: net_seed,
            weight_decay: 5e-4,
            ..TrainConfig::default()
        };
        Trainer::new(config)
            .train(&mut net, &data, &loss)
            .map_err(|e| format!("training: {e}"))?;
        nets.push(net);
    }
    Ok(Pool {
        nets,
        dataset_s,
        train_s: t.elapsed().as_secs_f64(),
    })
}

/// The paper's property box ("a vehicle is abreast on the left").
pub fn paper_spec() -> InputSpec {
    left_vehicle_spec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_permutes() {
        let a: Vec<u64> = (0..4).map({
            let mut r = Rng::new(7, 1);
            move |_| r.next_u64()
        }).collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        let mut p = Rng::new(3, 0).permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
        let u = Rng::new(1, 2).unit();
        assert!((0.0..1.0).contains(&u));
    }
}
