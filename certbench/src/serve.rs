//! The serve round trip of every traced run: a loopback `certnn-serve`
//! daemon driven by an open-loop load generator.
//!
//! The generator sends each request when it is due, without waiting for
//! earlier solves, and times it from that due time. Lateness (how long
//! after its due time a request actually left) is reported too: it grows
//! only when the sending connection itself falls behind.

use crate::check;
use crate::inproc::verifier_options;
use crate::ledger::Work;
use crate::pool;
use crate::spans::Recorder;
use certnn_nn::network::Network;
use certnn_serve::client::Client;
use certnn_serve::protocol::{Disposition, JobOutcome, JobRequest};
use certnn_serve::server::{ServeOptions, Server};
use certnn_verify::property::{InputSpec, LinearObjective};
use certnn_verify::verifier::Verifier;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Where a request's answer is expected to come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// From the daemon's memory.
    Memory,
    /// By a fresh solve.
    Fresh,
}

/// One query the daemon can be asked.
pub struct Key {
    /// Index of its network in the pool.
    pub net: usize,
    /// Its input box.
    pub spec: InputSpec,
    /// The request as it crosses the wire.
    pub req: JobRequest,
}

impl Key {
    /// A maximisation request for `net` over `spec`.
    pub fn new(nets: &[Network], net: usize, spec: InputSpec, obj: &LinearObjective) -> Self {
        let req = JobRequest::from_query(&nets[net], &spec, obj, &verifier_options(), None);
        Self { net, spec, req }
    }
}

/// One planned request.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// Seconds after the window starts at which it is due.
    pub due_s: f64,
    /// Index into the key list.
    pub key: usize,
    /// The answer route it should take.
    pub route: Route,
}

/// One request as it happened.
#[derive(Debug, Clone)]
pub struct Sent {
    /// The plan entry.
    pub plan: Planned,
    /// Seconds from due time to leaving the generator.
    pub lateness_s: f64,
    /// Seconds from due time to the outcome.
    pub latency_s: f64,
    /// The daemon's disposition and outcome, or the error.
    pub outcome: Result<(Disposition, JobOutcome), String>,
}

/// A running loopback daemon.
pub struct Daemon {
    server: Server,
}

impl Daemon {
    /// Starts a one-worker daemon on a free loopback port over `dir`.
    ///
    /// # Errors
    ///
    /// A message when the daemon cannot start.
    pub fn start(dir: &Path) -> Result<Self, String> {
        let mut opts = ServeOptions::loopback(dir);
        opts.workers = 1;
        let server = Server::start(opts).map_err(|e| format!("daemon start: {e}"))?;
        Ok(Self { server })
    }

    /// The daemon's address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// The daemon's always-on counters, by name.
    pub fn stats(&self) -> Vec<(String, u64)> {
        self.server.stats().snapshot()
    }

    /// Drains the daemon and waits for every thread to end.
    pub fn stop(mut self) {
        self.server.shutdown();
        self.server.wait();
    }
}

/// A fresh request handed from the sending connection to the collecting
/// one.
struct Pending {
    index: usize,
    plan: Planned,
    due: Instant,
    lateness_s: f64,
    job: u64,
    disposition: Disposition,
    span: crate::spans::Open,
}

/// Runs `plan` against `addr` over two connections, one per core. The
/// calling thread sends every request on the first connection when it is
/// due: a cache hit is answered there at once, while a request the daemon
/// queues is handed to a second thread that waits for its result on the
/// second connection. A slow solve therefore delays no later request, and
/// queued solves wait in the daemon's queue, not in the client. Returns
/// every request in plan order and the window's wall time.
pub fn open_loop(addr: std::net::SocketAddr, plan: &[Planned], keys: &Arc<Vec<Key>>, rec: &Recorder) -> (Vec<Sent>, f64) {
    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<Pending>();
    let collector = thread::spawn(move || {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"));
        rx.into_iter()
            .map(|p| {
                let outcome = match client.as_mut() {
                    Ok(c) => {
                        let _r = p.span.child("serve.result");
                        c.result(p.job).map(|o| (p.disposition, o)).map_err(|e| format!("result: {e}"))
                    }
                    Err(e) => Err(e.clone()),
                };
                let latency_s = p.due.elapsed().as_secs_f64();
                (p.index, Sent { plan: p.plan, lateness_s: p.lateness_s, latency_s, outcome })
            })
            .collect::<Vec<_>>()
    });
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"));
    let mut sent = Vec::with_capacity(plan.len());
    for (index, &p) in plan.iter().enumerate() {
        let due = start + Duration::from_secs_f64(p.due_s);
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let lateness_s = due.elapsed().as_secs_f64();
        let span = rec.root("serve.request");
        let submitted = match client.as_mut() {
            Ok(c) => {
                let _s = span.child("serve.submit");
                c.submit(&keys[p.key].req).map_err(|e| format!("submit: {e}"))
            }
            Err(e) => Err(e.clone()),
        };
        let outcome = match submitted {
            Ok(s) if s.disposition != Disposition::CacheHit => {
                let pending = Pending { index, plan: p, due, lateness_s, job: s.job, disposition: s.disposition, span };
                tx.send(pending).expect("collector thread ended early");
                continue;
            }
            Ok(s) => {
                let _r = span.child("serve.result");
                let c = client.as_mut().expect("a submit succeeded on this connection");
                c.result(s.job).map(|o| (s.disposition, o)).map_err(|e| format!("result: {e}"))
            }
            Err(e) => Err(e),
        };
        drop(span);
        sent.push((index, Sent { plan: p, lateness_s, latency_s: due.elapsed().as_secs_f64(), outcome }));
    }
    drop(tx);
    sent.extend(collector.join().expect("collector thread panicked"));
    sent.sort_by_key(|(i, _)| *i);
    (sent.into_iter().map(|(_, s)| s).collect(), start.elapsed().as_secs_f64())
}

/// Checks every request of a window: the expected answer route, the
/// outcome's own verdict checks, bit-identity with an in-process solve of
/// the same key, and the same work counts as that solve. Returns one flag
/// per request and the number of requests whose work counts differed.
pub fn check_window(sent: &[Sent], keys: &[Key], nets: &[Network], seed: u64) -> (Vec<bool>, u64) {
    let obj = pool::objective();
    let mut expected: Vec<Option<Result<certnn_verify::verifier::MaxResult, String>>> =
        (0..keys.len()).map(|_| None).collect();
    let mut work_mismatches = 0;
    let ok = sent
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let key = &keys[s.plan.key];
            let net = &nets[key.net];
            let verdict = (|| {
                let (disposition, outcome) = s.outcome.as_ref().map_err(Clone::clone)?;
                let fresh = *disposition == Disposition::Fresh;
                if fresh != (s.plan.route == Route::Fresh) {
                    return Err(format!("answered as {disposition:?} on the {:?} route", s.plan.route));
                }
                check::check_outcome(net, &key.spec, &obj, verifier_options().abs_gap, outcome, pool::mix(seed, i as u64))?;
                let local = expected[s.plan.key].get_or_insert_with(|| {
                    Verifier::with_options(key.req.verifier_options())
                        .maximize(net, &key.spec, &obj)
                        .map_err(|e| format!("in-process solve: {e}"))
                });
                let local = local.as_ref().map_err(Clone::clone)?;
                if !check::same_verdict(outcome, local) {
                    return Err("daemon verdict differs from the in-process verdict".into());
                }
                let (daemon, inproc) = (Work::of_wire(&outcome.stats), Work::of(&local.stats));
                if daemon != inproc {
                    work_mismatches += 1;
                    return Err(format!("daemon work {daemon:?} differs from in-process work {inproc:?}"));
                }
                Ok(())
            })();
            if let Err(msg) = &verdict {
                eprintln!("certbench: request {i} (key {}) failed: {msg}", s.plan.key);
            }
            verdict.is_ok()
        })
        .collect();
    (ok, work_mismatches)
}
