//! Layer probes of a traced run: each layer's public functions timed
//! from outside, one call per query of the workload.

use crate::spans::Recorder;
use crate::stats::{ratio, sorted};
use certnn_nn::network::Network;
use certnn_serve::cache::Store;
use certnn_serve::protocol::{decode_request, encode_request, JobOutcome, JobRequest};
use certnn_serve::wire::{Dec, Enc};
use certnn_verify::bab::DEFAULT_ALPHA_ITERS;
use certnn_verify::bounds::{symbolic_bounds, PhaseAnalyzer};
use certnn_verify::encoder::{encode, BoundMethod};
use certnn_verify::property::{InputSpec, LinearObjective};
use std::path::Path;
use std::time::Instant;

/// Single-coordinate flips per `refine_alpha` call, as a search node uses.
const REFINE_FLIPS: usize = 2;

/// Timings (sorted, microseconds) and counts of the layer probes.
#[derive(Debug, Default)]
pub struct Probes {
    /// `encode` per query.
    pub encode_us: Vec<f64>,
    /// Mean constraint rows of an encoding.
    pub rows: f64,
    /// Mean binaries of an encoding.
    pub binaries: f64,
    /// `symbolic_bounds` per query.
    pub symbolic_us: Vec<f64>,
    /// `PhaseAnalyzer::analyze` at the root.
    pub analyze_us: Vec<f64>,
    /// `PhaseAnalyzer::refine_alpha` from a tuned root slope vector.
    pub refine_alpha_us: Vec<f64>,
    /// Mean encoded request size, bytes.
    pub request_bytes: f64,
    /// `decode_request` per request.
    pub decode_request_us: Vec<f64>,
    /// `JobRequest::job_key` per request.
    pub job_key_us: Vec<f64>,
    /// `Store::put_cert` (sealed, fsync'd) per outcome.
    pub put_cert_us: Vec<f64>,
    /// `Store::get_cert` per outcome.
    pub get_cert_us: Vec<f64>,
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Times the verify-layer functions on each query.
///
/// # Errors
///
/// A message when a layer call fails.
pub fn verify_layers(queries: &[(&Network, InputSpec, LinearObjective)], rec: &Recorder, out: &mut Probes) -> Result<(), String> {
    let (mut rows, mut binaries) = (0.0, 0.0);
    for (net, spec, obj) in queries {
        let t = Instant::now();
        let enc = {
            let _s = rec.root("probe.encode");
            encode(net, spec, BoundMethod::AlphaOptimized { iters: DEFAULT_ALPHA_ITERS })
        }
        .map_err(|e| format!("encode: {e}"))?;
        out.encode_us.push(micros(t));
        rows += enc.stats.rows as f64;
        binaries += enc.stats.binaries as f64;

        let t = Instant::now();
        symbolic_bounds(net, spec.bounds()).map_err(|e| format!("symbolic: {e}"))?;
        out.symbolic_us.push(micros(t));

        let mut analyzer = PhaseAnalyzer::new(net, spec.bounds()).map_err(|e| format!("analyzer: {e}"))?;
        let phases = vec![None; net.num_relu_neurons()];
        let t = Instant::now();
        analyzer.analyze(&phases, obj).map_err(|e| format!("analyze: {e}"))?;
        out.analyze_us.push(micros(t));

        let (_, tuned) = analyzer
            .analyze_tuned(&phases, obj, DEFAULT_ALPHA_ITERS.max(1), None)
            .map_err(|e| format!("analyze_tuned: {e}"))?;
        let alpha = tuned.unwrap_or_else(|| vec![0.0; net.num_relu_neurons()]);
        let t = Instant::now();
        analyzer
            .refine_alpha(&phases, obj, &alpha, REFINE_FLIPS)
            .map_err(|e| format!("refine_alpha: {e}"))?;
        out.refine_alpha_us.push(micros(t));
    }
    let n = queries.len() as f64;
    out.rows = ratio(rows, n);
    out.binaries = ratio(binaries, n);
    for v in [&mut out.encode_us, &mut out.symbolic_us, &mut out.analyze_us, &mut out.refine_alpha_us] {
        *v = sorted(std::mem::take(v));
    }
    Ok(())
}

/// Times the protocol and cache functions on real request/outcome
/// pairs, with a throwaway certificate store under `dir`.
///
/// # Errors
///
/// A message when a codec or store call fails.
pub fn serve_layers(pairs: &[(&JobRequest, &JobOutcome)], dir: &Path, rec: &Recorder, out: &mut Probes) -> Result<(), String> {
    let store = Store::open(dir).map_err(|e| format!("store: {e}"))?;
    let mut bytes_total = 0.0;
    for (req, outcome) in pairs {
        let mut enc = Enc::new();
        encode_request(&mut enc, req);
        bytes_total += enc.0.len() as f64;

        let t = Instant::now();
        let decoded = {
            let _s = rec.root("probe.decode_request");
            decode_request(&mut Dec::new(&enc.0))
        }
        .map_err(|e| format!("decode_request: {e}"))?;
        out.decode_request_us.push(micros(t));

        let t = Instant::now();
        let key = decoded.job_key().map_err(|e| format!("job_key: {e}"))?;
        out.job_key_us.push(micros(t));

        let mut outcome = (*outcome).clone();
        outcome.key = key;
        outcome.cache_hit = false;
        let t = Instant::now();
        store.put_cert(&outcome, &decoded).map_err(|e| format!("put_cert: {e}"))?;
        out.put_cert_us.push(micros(t));

        let t = Instant::now();
        let back = store.get_cert(key, &decoded).map_err(|e| format!("get_cert: {e:?}"))?;
        out.get_cert_us.push(micros(t));
        if back != outcome {
            return Err("certificate store returned a different outcome".into());
        }
    }
    out.request_bytes = ratio(bytes_total, pairs.len() as f64);
    for v in [&mut out.decode_request_us, &mut out.job_key_us, &mut out.put_cert_us, &mut out.get_cert_us] {
        *v = sorted(std::mem::take(v));
    }
    Ok(())
}
