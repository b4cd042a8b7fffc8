//! One benchmark run: set-up, the measured window(s), checks, metrics.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::inproc::{ClosedLoop, Length, Question, Window};
use crate::ledger::{Ledger, Work};
use crate::probe::{self, Probes};
use crate::serve::{self, Daemon, Key, Planned, Route, Sent};
use crate::spans::{self, Recorder};
use crate::stats::{median, percentile, ratio, sorted, tail};
use certnn_obs::{HistogramSnapshot, MetricsSnapshot, Phase, PhaseTotal};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Highest percentile `latency_tail_ms` may report: the ladder step
/// that a run's sample count supports with room to spare (a 30 s run of
/// `optimize` answers about 600–1100 queries, `decide` about
/// 1000–1600), so the level does not flip between runs whose counts
/// straddle the p99 step. On `decide` the slowest twentieth are mostly
/// proofs on I3×4 nets, where milp and branching work.
const TAIL_LEVEL: f64 = 95.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Queries the layer probes and the serve round trip use.
const PROBE_QUERIES: usize = 24;
/// Offered rate of the serve round trip's misses.
const MISS_RATE: f64 = 10.0;
/// Times the serve round trip asks each answered query again, so its
/// hit latency has a tail (240 hits: a p95 with 12 beyond it).
const HIT_ROUNDS: usize = 10;
/// Offered rate of the serve round trip's hits.
const HIT_RATE: f64 = 100.0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Maximum lateral velocity, closed loop.
    Optimize,
    /// Prove lateral velocity ≤ τ, closed loop.
    Decide,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "optimize" => Some(Self::Optimize),
            "decide" => Some(Self::Decide),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Optimize => "optimize",
            Self::Decide => "decide",
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Directory for daemon state and the span file.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from the catalog.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit from the catalog.
    pub unit: &'static str,
    /// Context printed beside the value (percentile level, base, …).
    pub note: String,
}

/// Outcome of a run.
#[derive(Debug, Default)]
pub struct Report {
    /// Queries or requests attempted.
    pub attempted: u64,
    /// Attempts that failed a check, errored, or repeated with other work.
    pub failed: u64,
    /// Metrics in catalog order.
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable summary.
    pub notes: Vec<String>,
}

impl Report {
    /// Every attempt passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Collects metric values by name, then orders them by the catalog.
#[derive(Default)]
struct Values(BTreeMap<&'static str, (f64, String)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, (value, String::new()));
    }

    fn note(&mut self, name: &'static str, value: f64, note: String) {
        self.0.insert(name, (value, note));
    }

    fn into_metrics(mut self, trace: bool) -> Result<Vec<Metric>, String> {
        let defs = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
        let metrics = defs
            .iter()
            .map(|d| {
                let (value, note) = self.0.remove(d.name).ok_or_else(|| format!("metric {} was not measured", d.name))?;
                if !value.is_finite() {
                    return Err(format!("metric {} is not finite", d.name));
                }
                Ok(Metric { name: d.name, value, unit: d.unit, note })
            })
            .collect::<Result<Vec<_>, _>>()?;
        match self.0.keys().next() {
            Some(extra) => Err(format!("metric {extra} is not in the catalog")),
            None => Ok(metrics),
        }
    }
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// Median (needs ≥ 20 samples) of seconds-valued samples, in ms.
fn p50_ms(samples: &[f64], what: &str) -> Result<f64, String> {
    percentile(&sorted(samples.to_vec()), 50.0)
        .map(ms)
        .ok_or_else(|| format!("too few samples for a median of {what}: {}", samples.len()))
}

/// Tail (highest ladder percentile up to `max_level` with ≥ 10 beyond),
/// in ms, with its note.
fn tail_ms(samples: &[f64], max_level: f64, what: &str) -> Result<(f64, String), String> {
    tail(&sorted(samples.to_vec()), max_level)
        .map(|(p, v)| (ms(v), format!("p{p} of {}", samples.len())))
        .ok_or_else(|| format!("too few samples for a tail of {what}: {}", samples.len()))
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs one benchmark run.
///
/// # Errors
///
/// A message when set-up fails or a metric cannot be measured. Failed
/// verdict checks are not errors: they count in [`Report::failed`].
pub fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.work_dir).map_err(|e| format!("work dir: {e}"))?;
    certnn_obs::set_enabled(false);
    let rec = Recorder::new(args.trace);
    let report = match args.workload {
        Workload::Optimize => closed_loop(args, Question::Maximize, &rec),
        Workload::Decide => closed_loop(args, Question::Decide, &rec),
    };
    if args.trace {
        let path = args.work_dir.join(format!("trace-{}-seed{}.jsonl", args.workload.name(), args.seed));
        std::fs::write(&path, spans::to_jsonl(&rec.spans())).map_err(|e| format!("span file: {e}"))?;
    }
    report
}

/// Repeats `setup` [`SETUPS`] times, keeping the last result; returns it
/// with the median set-up, dataset and training times.
fn repeated<T>(mut setup: impl FnMut(usize) -> Result<(T, f64, f64), String>) -> Result<(T, [f64; 3], String), String> {
    let (mut total, mut data, mut train) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for k in 0..SETUPS {
        drop(last.take()); // the previous set-up ends before the next is timed
        let t = Instant::now();
        let (v, d, tr) = setup(k)?;
        total.push(t.elapsed().as_secs_f64());
        data.push(d);
        train.push(tr);
        last = Some(v);
    }
    let note = format!("median of {SETUPS}: {total:.3?}");
    Ok((last.expect("at least one set-up"), [median(&total), median(&data), median(&train)], note))
}

fn end_to_end(v: &mut Values, setup: [f64; 3], setup_note: String, latencies: &[f64], ok: usize, wall_s: f64) -> Result<(), String> {
    v.note("setup_s", setup[0], setup_note);
    v.note("queries_per_s", ratio(ok as f64, wall_s), format!("{ok} correct in {wall_s:.2} s"));
    v.set("latency_p50_ms", p50_ms(latencies, "latency")?);
    let (t, note) = tail_ms(latencies, TAIL_LEVEL, "latency")?;
    let s = sorted(latencies.to_vec());
    let ladder: Vec<String> = crate::stats::TAIL_LADDER
        .iter()
        .filter_map(|&p| percentile(&s, p).map(|x| format!("p{p} {:.3}", ms(x))))
        .collect();
    v.note("latency_tail_ms", t, format!("{note}; {}", ladder.join(", ")));
    v.note("correct_frac", ratio(ok as f64, latencies.len() as f64), format!("of {}", latencies.len()));
    v.set("peak_rss_mb", peak_rss_mb());
    Ok(())
}

/// Reads a histogram (nanoseconds) as milliseconds: its p50 and its
/// highest percentile with ≥ 10 samples beyond it.
fn hist_ms(snap: &MetricsSnapshot, name: &str) -> Result<(f64, f64, String), String> {
    let h: HistogramSnapshot = snap.histogram(name).unwrap_or_default();
    let n = h.count as usize;
    let level = [(99.0, h.p99), (95.0, h.p95), (50.0, h.p50)]
        .into_iter()
        .find(|&(p, _)| crate::stats::beyond(n, p) >= crate::stats::MIN_BEYOND)
        .ok_or_else(|| format!("too few samples in {name}: {n}"))?;
    Ok((h.p50 as f64 / 1e6, level.1 as f64 / 1e6, format!("p{} of {n}", level.0)))
}

/// Obs-derived per-layer metrics of the search stack.
fn search_layers(v: &mut Values, snap: &MetricsSnapshot, phases: &[PhaseTotal], query_s: f64) -> Result<(), String> {
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let phase = |p: Phase| phases.iter().find(|t| t.phase == p).copied();
    let self_s = |p: Phase| phase(p).map_or(0.0, |t| t.self_ns as f64 * 1e-9);
    v.set("phase.encode_s", self_s(Phase::Encode));
    v.set("phase.bound_s", self_s(Phase::Bound));
    v.set("phase.bound_calls", phase(Phase::Bound).map_or(0.0, |t| t.count as f64));
    v.set("phase.lp_warm_s", self_s(Phase::LpWarm));
    v.set("phase.lp_cold_s", self_s(Phase::LpCold));
    v.set("phase.branch_s", self_s(Phase::Branch));
    for (metric, hist) in [("lp.warm_solve_us.p50", "lp.warm_solve_nanos"), ("lp.cold_solve_us.p50", "lp.cold_solve_nanos")] {
        let h = snap.histogram(hist).unwrap_or_default();
        if crate::stats::beyond(h.count as usize, 50.0) < crate::stats::MIN_BEYOND {
            return Err(format!("too few samples in {hist}: {}", h.count));
        }
        v.note(metric, h.p50 as f64 / 1e3, format!("of {}", h.count));
    }
    for name in [
        "lp.pivots", "lp.warm_solves", "lp.cold_solves", "lp.warm_budget_stalls", "lp.cold_fallbacks",
        "lp.refactorizations", "bab.milp_calls", "milp.nodes", "milp.incumbent_updates", "bab.nodes",
        "bab.lp_skipped", "bab.incumbent_updates",
    ] {
        v.set(name, c(name));
    }
    let attempts = c("lp.warm_solves") + c("lp.cold_fallbacks");
    v.set("lp.warm_attempts", attempts);
    v.note("lp.warm_useful_ratio", ratio(c("lp.warm_solves"), attempts), format!("of {attempts} warm attempts"));
    v.note("bab.nodes_per_s", ratio(c("bab.nodes"), query_s), format!("over {query_s:.3} s of solving"));
    v.note("bab.lp_skip_ratio", ratio(c("bab.lp_skipped"), c("bab.nodes")), format!("of {} nodes", c("bab.nodes")));
    Ok(())
}

/// Compares the per-query work sum with the obs counter delta; returns
/// the number of counts that disagree. A disagreement is reported, not
/// counted as a failed query: it says two counting paths differ, not
/// that a verdict is wrong. (`lp.cold_solves` counts cold solves that
/// end in a numeric error; `VerifyStats` counts only those that return.)
fn ledger_against_obs(total: &Work, snap: &MetricsSnapshot, notes: &mut Vec<String>) -> u64 {
    let mut bad = 0;
    for (name, sum, obs) in total.against(snap) {
        notes.push(format!("ledger {name}: per-query sum {sum}, obs delta {obs}"));
        if sum != obs {
            eprintln!("certbench: ledger {name} disagrees: per-query sum {sum}, obs counter delta {obs}");
            bad += 1;
        }
    }
    bad
}

/// Serve-side metrics of one traced open-loop window; `before` holds
/// the daemon's counters when the window started.
fn serve_side(v: &mut Values, daemon: &Daemon, before: &[(String, u64)], snap: &MetricsSnapshot, sent: &[Sent], ok: &[bool], wall_s: f64) -> Result<(), String> {
    let after = daemon.stats();
    let delta = |name: &str| -> f64 {
        let get = |s: &[(String, u64)]| s.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
        (get(&after) - get(before)) as f64
    };
    let (hits, lookups) = (delta("serve.cache_hits"), delta("serve.cache_hits") + delta("serve.cache_misses"));
    v.set("cache.lookups", lookups);
    v.note("cache.hit_ratio", ratio(hits, lookups), format!("{hits} of {lookups}"));
    v.set("cache.corrupt", delta("serve.cache_corrupt"));
    v.set("server.jobs_coalesced", delta("serve.jobs_coalesced"));
    let (qp50, qtail, qnote) = hist_ms(snap, "serve.queue_wait_nanos")?;
    v.set("server.queue_wait_ms.p50", qp50);
    v.note("server.queue_wait_ms.tail", qtail, qnote);
    let (jp50, _, jnote) = hist_ms(snap, "serve.job_wall_nanos")?;
    v.note("server.job_wall_ms.p50", jp50, jnote);
    let busy_s = snap.histogram("serve.job_wall_nanos").unwrap_or_default().sum as f64 * 1e-9;
    v.note("server.worker_utilization", ratio(busy_s, wall_s), format!("{busy_s:.3} s busy of {wall_s:.3} s, 1 worker"));

    let lat = |pick: &dyn Fn(&Sent) -> bool| -> Vec<f64> { sent.iter().filter(|s| pick(s)).map(|s| s.latency_s).collect() };
    let hits_lat = lat(&|s| s.plan.route != Route::Fresh);
    v.set("serve.hit_p50_ms", p50_ms(&hits_lat, "hit latency")?);
    let (t, note) = tail_ms(&hits_lat, 99.0, "hit latency")?;
    v.note("serve.hit_tail_ms", t, note);
    v.set("serve.miss_p50_ms", p50_ms(&lat(&|s| s.plan.route == Route::Fresh), "miss latency")?);
    let lateness: Vec<f64> = sent.iter().map(|s| s.lateness_s).collect();
    let (t, note) = tail_ms(&lateness, 99.0, "lateness")?;
    v.note("client.lateness_tail_ms", t, note);
    let succeeded = ok.iter().filter(|&&b| b).count() as f64;
    v.set("client.sent", sent.len() as f64);
    v.set("client.succeeded", succeeded);
    v.set("client.failed", sent.len() as f64 - succeeded);
    Ok(())
}

fn phase_line(label: &str, sent: &[Sent], ok: &[bool]) -> String {
    let late: Vec<f64> = sent.iter().map(|s| s.lateness_s).collect();
    let tail = tail(&sorted(late), 99.0).map_or("n/a".into(), |(p, v)| format!("p{p} {:.3} ms", ms(v)));
    let good = ok.iter().filter(|&&b| b).count();
    format!("client phase {label}: sent {}, succeeded {good}, failed {}, lateness {tail}", sent.len(), sent.len() - good)
}

fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn closed_loop(args: &Args, question: Question, rec: &Recorder) -> Result<Report, String> {
    let (cl, setup, setup_note) = repeated(|k| {
        let quiet = Recorder::new(false);
        let cl = ClosedLoop::setup(question, args.seed, if k + 1 == SETUPS { rec } else { &quiet })?;
        let (d, t) = (cl.pool.dataset_s, cl.pool.train_s);
        Ok((cl, d, t))
    })?;
    let mut report = Report::default();
    let mut v = Values::default();
    let mut ledger = Ledger::default();
    let off = Recorder::new(false);
    if !args.trace {
        let w = cl.run(Length::Seconds(args.seconds), &mut ledger, &off);
        let lat: Vec<f64> = w.answers.iter().map(|a| a.latency_s).collect();
        let ok = w.answers.iter().filter(|a| a.ok).count();
        report.attempted = w.answers.len() as u64;
        report.failed = (w.answers.len() - ok) as u64;
        if question == Question::Decide {
            let proved = w.answers.iter().filter(|a| a.proved).count();
            report.notes.push(format!("proved {proved} of {} decision queries", w.answers.len()));
        }
        let degraded = w.answers.iter().filter(|a| a.degraded).count();
        report.notes.push(format!("{degraded} exact answers tagged degraded; work: {:?}", ledger.total));
        end_to_end(&mut v, setup, setup_note, &lat, ok, w.wall_s)?;
        report.metrics = v.into_metrics(false)?;
        return Ok(report);
    }

    // Untraced window, then the same queries again with obs on.
    let a = cl.run(Length::Seconds(args.seconds / 2.0), &mut ledger, &off);
    certnn_obs::reset();
    certnn_obs::set_enabled(true);
    let b: Window = cl.run(Length::Queries(a.answers.len()), &mut ledger, rec);
    let snap = certnn_obs::metrics_snapshot();
    let phases = certnn_obs::phase_totals();
    certnn_obs::set_enabled(false);
    let traced_s: f64 = b.answers.iter().map(|x| x.latency_s).sum();
    let untraced_s: f64 = a.answers.iter().map(|x| x.latency_s).sum();
    let mut traced_work = Work::default();
    for x in &b.answers {
        traced_work += x.work;
    }
    v.set("ledger.obs_mismatches", ledger_against_obs(&traced_work, &snap, &mut report.notes) as f64);
    search_layers(&mut v, &snap, &phases, traced_s)?;
    v.note("obs.trace_overhead_frac", traced_s / untraced_s - 1.0, format!("{traced_s:.3} s traced vs {untraced_s:.3} s untraced, same {} queries", a.answers.len()));
    v.set("obs.untraced_s", untraced_s);
    v.set("verify.degraded_answers", b.answers.iter().filter(|x| x.degraded).count() as f64);
    v.set("sim.dataset_s", setup[1]);
    v.set("nn.train_s", setup[2]);

    // Layer probes and the serve round trip on this workload's queries.
    let queries = cl.probe_queries(PROBE_QUERIES);
    let mut probes = Probes::default();
    probe::verify_layers(&queries, rec, &mut probes)?;
    let obj = crate::pool::objective();
    let keys: Arc<Vec<Key>> = Arc::new(
        (0..PROBE_QUERIES)
            .map(|q| Key::new(&cl.pool.nets, cl.query(q).0, queries[q].1.clone(), &obj))
            .collect(),
    );
    let misses: Vec<Planned> = (0..PROBE_QUERIES)
        .map(|i| Planned { due_s: i as f64 / MISS_RATE, key: i, route: Route::Fresh })
        .collect();
    let hits: Vec<Planned> = (0..HIT_ROUNDS * PROBE_QUERIES)
        .map(|i| Planned { due_s: i as f64 / HIT_RATE, key: i % PROBE_QUERIES, route: Route::Memory })
        .collect();
    let dir = fresh_dir(&args.work_dir, "serve-probe")?;
    certnn_obs::reset();
    certnn_obs::set_enabled(true);
    let daemon = Daemon::start(&dir)?;
    let before = daemon.stats();
    // Every miss is answered before the first hit is sent, so no hit
    // waits on a solve.
    let (mut sent, miss_s) = serve::open_loop(daemon.addr(), &misses, &keys, rec);
    let (hit_sent, hit_s) = serve::open_loop(daemon.addr(), &hits, &keys, rec);
    sent.extend(hit_sent);
    let wall_s = miss_s + hit_s;
    let serve_snap = certnn_obs::metrics_snapshot();
    certnn_obs::set_enabled(false);
    let (ok, serve_mismatches) = serve::check_window(&sent, &keys, &cl.pool.nets, args.seed);
    let served = serve_side(&mut v, &daemon, &before, &serve_snap, &sent, &ok, wall_s);
    daemon.stop();
    served?;
    v.set("ledger.repeat_mismatches", (ledger.mismatches + serve_mismatches) as f64);
    report.notes.push(phase_line("serve round trip", &sent, &ok));
    let pairs: Vec<_> = sent
        .iter()
        .filter_map(|s| s.outcome.as_ref().ok().map(|(_, o)| (&keys[s.plan.key].req, o)))
        .take(PROBE_QUERIES)
        .collect();
    probe::serve_layers(&pairs, &dir.join("probe-store"), rec, &mut probes)?;
    let _ = std::fs::remove_dir_all(&dir);
    probe_metrics(&mut v, &probes)?;

    let failed = a.answers.iter().chain(&b.answers).filter(|x| !x.ok).count() + ok.iter().filter(|&&b| !b).count();
    report.attempted = (a.answers.len() + b.answers.len() + sent.len()) as u64;
    report.failed = failed as u64;
    report.metrics = v.into_metrics(true)?;
    Ok(report)
}

fn probe_metrics(v: &mut Values, p: &Probes) -> Result<(), String> {
    let p50 = |s: &[f64], what: &str| percentile(s, 50.0).ok_or_else(|| format!("too few {what} probes: {}", s.len()));
    v.set("encoder.encode_ms", p50(&p.encode_us, "encode")? / 1e3);
    v.set("encoder.rows", p.rows);
    v.set("encoder.binaries", p.binaries);
    v.set("bounds.symbolic_us", p50(&p.symbolic_us, "symbolic")?);
    v.set("bounds.analyze_us", p50(&p.analyze_us, "analyze")?);
    v.set("bounds.refine_alpha_us", p50(&p.refine_alpha_us, "refine_alpha")?);
    v.set("protocol.request_bytes", p.request_bytes);
    v.set("protocol.decode_request_us", p50(&p.decode_request_us, "decode_request")?);
    v.set("protocol.job_key_us", p50(&p.job_key_us, "job_key")?);
    v.set("cache.get_cert_us", p50(&p.get_cert_us, "get_cert")?);
    v.set("cache.put_cert_us", p50(&p.put_cert_us, "put_cert")?);
    Ok(())
}
