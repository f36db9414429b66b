//! `serve-mix`: an open loop at a fixed offered rate against an
//! in-process `serve::Server` on loopback, through at most
//! [`CONNECTIONS`] `serve::Client` connections used exactly as shipped.
//!
//! About four requests in five re-send a pair from a resident pool that
//! fits the default cache: the t7 zoo pairs and `permute_rebuild`
//! isomorphs of them, which reach the same cache key from different
//! bytes. The fifth is a fresh pair (a `shuffle_rebuild` restatement or
//! a confirmed mutant of a zoo pair): a miss, a prove and an insert.
//! Every request is timed from its scheduled send time.

use crate::gate::{self, Answer};
use crate::inputs::{confirmed_mutant, pair, ZOO};
use crate::rng::{Deck, Rng};
use crate::stats::{mean, median, Tail, Tally};
use crate::Report;
use aig::Aig;
use cache::{CacheConfig, CachedVerdict, CanonicalPair, CertCache};
use obs::json::Value;
use obs::metrics::Metrics;
use serve::{CheckReply, Client, Server, ServerConfig};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The fixed offered rate, about 80 % of the highest sustainable rate.
/// Replies on loopback stall for about 40 ms whenever Nagle's algorithm
/// meets a delayed ACK. At this rate most replies stall, so the median
/// sits steadily in the stalled mode. At half the highest sustainable
/// rate about as many stall as not, and the median flips between the
/// modes from run to run; at 40/s queueing episodes make the tail
/// unsteady.
const RATE: f64 = 37.5;
/// Client connections: the reference host's CPU count.
const CONNECTIONS: usize = 2;
/// `permute_rebuild` isomorphs per zoo pair in the resident pool.
const ISOMORPHS: usize = 3;
/// One request in this many is a fresh pair.
const FRESH_EVERY: usize = 5;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The tail latency a `max_rps` step may not exceed.
const TAIL_LIMIT_MS: f64 = 100.0;
/// The error rate a `max_rps` step may not exceed.
const ERROR_LIMIT: f64 = 0.01;
/// Ramp: offered rates grow from `RATE` by this factor until a step
/// fails (at most `RAMP_LEVELS` steps), then bisect between the last
/// pass and the first failure.
const RAMP_FACTOR: f64 = 1.5;
const RAMP_LEVELS: usize = 4;
const RAMP_BISECTIONS: usize = 3;
/// Requests still unanswered this long after the schedule ends are
/// abandoned.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// One query pair of the mix.
struct Pair {
    label: String,
    a: Aig,
    b: Aig,
    expect_equivalent: bool,
}

/// The seeded inputs of one run: the pairs (resident pool first, then
/// the fresh pairs) and the request sequence as indices into them.
struct Mix {
    pairs: Arc<Vec<Pair>>,
    requests: Vec<usize>,
}

fn build_mix(seed: u64, n: usize) -> Mix {
    let mut rng = Rng::new(seed);
    let zoo: Vec<(String, Aig, Aig)> = ZOO
        .iter()
        .map(|&(f, w)| {
            let (a, b) = pair(f, w);
            (format!("{f}-{w}"), a, b)
        })
        .collect();
    let mut pairs = Vec::new();
    for (label, a, b) in &zoo {
        pairs.push(Pair {
            label: label.clone(),
            a: a.clone(),
            b: b.clone(),
            expect_equivalent: true,
        });
        for k in 0..ISOMORPHS {
            pairs.push(Pair {
                label: format!("{label}/iso{k}"),
                a: a.permute_rebuild(rng.next_u64()),
                b: b.permute_rebuild(rng.next_u64()),
                expect_equivalent: true,
            });
        }
    }
    // Reads and fresh pairs draw their zoo pair from decks, so every
    // stretch of the sequence uses the zoo evenly.
    let (mut reads, mut writes) = (Deck::new(zoo.len()), Deck::new(zoo.len()));
    let mut requests = Vec::with_capacity(n);
    let mut fresh = 0usize;
    while requests.len() < n {
        let fresh_slot = rng.below(FRESH_EVERY);
        for slot in 0..FRESH_EVERY {
            if slot != fresh_slot {
                let variant = rng.below(ISOMORPHS + 1);
                requests.push(reads.draw(&mut rng) * (ISOMORPHS + 1) + variant);
                continue;
            }
            let (label, a, b) = &zoo[writes.draw(&mut rng)];
            let s = rng.next_u64();
            let mutant = if fresh % 2 == 1 {
                confirmed_mutant(a, b, s)
            } else {
                None
            };
            pairs.push(match mutant {
                Some(m) => Pair {
                    label: format!("{label}/mutant{fresh}"),
                    a: a.clone(),
                    b: m,
                    expect_equivalent: false,
                },
                None => Pair {
                    label: format!("{label}/restated{fresh}"),
                    a: a.shuffle_rebuild(s),
                    b: b.shuffle_rebuild(s.rotate_left(17)),
                    expect_equivalent: true,
                },
            });
            fresh += 1;
            requests.push(pairs.len() - 1);
        }
    }
    requests.truncate(n);
    Mix {
        pairs: Arc::new(pairs),
        requests,
    }
}

/// One answered (or failed) request.
struct Done {
    pair: usize,
    scheduled: Instant,
    sent: Instant,
    done: Instant,
    reply: Result<CheckReply, String>,
}

impl Done {
    fn latency_ms(&self) -> f64 {
        (self.done - self.scheduled).as_secs_f64() * 1e3
    }

    fn rtt_us(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e6
    }
}

struct Job {
    pair: usize,
    scheduled: Instant,
}

#[derive(Default)]
struct Queue {
    jobs: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
    completed: AtomicUsize,
}

impl Queue {
    fn push(&self, job: Job) {
        self.jobs.lock().expect("job queue lock").0.push_back(job);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.jobs.lock().expect("job queue lock").1 = true;
        self.ready.notify_all();
    }

    fn pop(&self) -> Option<Job> {
        let mut g = self.jobs.lock().expect("job queue lock");
        loop {
            if let Some(job) = g.0.pop_front() {
                return Some(job);
            }
            if g.1 {
                return None;
            }
            g = self.ready.wait(g).expect("job queue lock");
        }
    }
}

/// What one open-loop step measured.
struct Step {
    rate: f64,
    done: Vec<Done>,
    lag_ms_max: f64,
    backlog_mid: usize,
    backlog_end: usize,
}

impl Step {
    fn latencies_ms(&self) -> Vec<f64> {
        self.done.iter().map(Done::latency_ms).collect()
    }

    /// Requests per second actually completed: all of them over the time
    /// from the first scheduled send to the last reply.
    fn achieved_rps(&self) -> f64 {
        let first = self.done.iter().map(|d| d.scheduled).min();
        let last = self.done.iter().map(|d| d.done).max();
        match (first, last) {
            (Some(f), Some(l)) if l > f => self.done.len() as f64 / (l - f).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// The backlog grows when requests outstanding at the end of the
    /// schedule clearly exceed those outstanding half-way through.
    fn backlog_grew(&self) -> bool {
        self.backlog_end > self.backlog_mid + CONNECTIONS.max(self.done.len() / 20)
    }
}

/// A running server with its connected clients.
struct Service {
    addr: String,
    thread: JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
}

impl Service {
    fn start(metrics: Metrics) -> Result<Service, String> {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            metrics,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let thread = std::thread::spawn(move || server.run());
        let clients = (0..CONNECTIONS)
            .map(|_| Client::connect(&addr))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Service {
            addr,
            thread,
            clients,
        })
    }

    /// Closes the clients, asks the server to stop and waits for it.
    fn stop(self) -> Result<(), String> {
        drop(self.clients);
        Client::connect(&self.addr)?.shutdown()?;
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| e.to_string())
    }

    /// Runs one open-loop step: `requests` offered at `rate` per second.
    fn step(
        &mut self,
        pairs: &Arc<Vec<Pair>>,
        requests: &[usize],
        rate: f64,
    ) -> Result<Step, String> {
        let queue = Arc::new(Queue::default());
        let (tx, rx) = mpsc::channel();
        let mut workers = Vec::with_capacity(self.clients.len());
        for mut client in self.clients.drain(..) {
            let (queue, pairs, tx) = (Arc::clone(&queue), Arc::clone(pairs), tx.clone());
            workers.push(std::thread::spawn(move || {
                let mut done = Vec::new();
                while let Some(job) = queue.pop() {
                    let p = &pairs[job.pair];
                    let sent = Instant::now();
                    let reply = client.check(&p.a, &p.b);
                    done.push(Done {
                        pair: job.pair,
                        scheduled: job.scheduled,
                        sent,
                        done: Instant::now(),
                        reply,
                    });
                    queue.completed.fetch_add(1, Ordering::SeqCst);
                }
                let _ = tx.send(());
                (client, done)
            }));
        }
        drop(tx);
        let start = Instant::now() + Duration::from_millis(5);
        let mut lag_ms_max: f64 = 0.0;
        let mut backlog_mid = 0;
        for (k, &pair) in requests.iter().enumerate() {
            let scheduled = start + Duration::from_secs_f64(k as f64 / rate);
            if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            queue.push(Job { pair, scheduled });
            lag_ms_max =
                lag_ms_max.max(Instant::now().duration_since(scheduled).as_secs_f64() * 1e3);
            if k == requests.len() / 2 {
                backlog_mid = k + 1 - queue.completed.load(Ordering::SeqCst);
            }
        }
        let backlog_end = requests.len() - queue.completed.load(Ordering::SeqCst);
        queue.close();
        let drain_deadline = Instant::now() + DRAIN_LIMIT;
        for _ in 0..workers.len() {
            let left = drain_deadline.saturating_duration_since(Instant::now());
            rx.recv_timeout(left).map_err(|_| {
                format!("requests abandoned: no reply within {DRAIN_LIMIT:?} of the schedule's end")
            })?;
        }
        let mut done = Vec::with_capacity(requests.len());
        for w in workers {
            let (client, d) = w.join().map_err(|_| "client thread panicked".to_string())?;
            self.clients.push(client);
            done.extend(d);
        }
        Ok(Step {
            rate,
            done,
            lag_ms_max,
            backlog_mid,
            backlog_end,
        })
    }
}

/// The gate over served replies. Certificates are for the canonical
/// pair the server proves, so they are bound to its miter;
/// counterexamples are re-simulated on the circuits as sent. Identical
/// (pair, reply) combinations are checked once.
#[derive(Default)]
struct Audit {
    seen: HashMap<(usize, u64), Result<(), String>>,
    proof_time: Duration,
}

impl Audit {
    fn check(
        &mut self,
        pairs: &[Pair],
        pair: usize,
        reply: &Result<CheckReply, String>,
    ) -> Result<(), String> {
        let p = &pairs[pair];
        let reply = reply.as_ref().map_err(|e| format!("{}: {e}", p.label))?;
        let body = reply
            .certificate
            .as_deref()
            .or(reply.pattern.as_deref())
            .unwrap_or("");
        let key = (
            pair,
            obs::hash::fnv1a64(body.as_bytes()) ^ u64::from(reply.equivalent),
        );
        if let Some(r) = self.seen.get(&key) {
            return r.clone();
        }
        let r = match (reply.equivalent, &reply.certificate, &reply.pattern) {
            (true, Some(cert), _) => {
                let canon = CanonicalPair::new(&p.a, &p.b);
                let answer = Answer::Equivalent {
                    tracecheck: cert.as_bytes(),
                };
                gate::check(
                    &canon.a,
                    &canon.b,
                    p.expect_equivalent,
                    &answer,
                    &mut self.proof_time,
                )
            }
            (false, _, Some(bits)) => {
                let pattern: Vec<bool> = bits.chars().map(|c| c == '1').collect();
                let answer = Answer::Inequivalent { pattern: &pattern };
                gate::check(
                    &p.a,
                    &p.b,
                    p.expect_equivalent,
                    &answer,
                    &mut self.proof_time,
                )
            }
            _ => Err("reply carries no certificate or counterexample".to_string()),
        }
        .map_err(|e| format!("{}: {e}", p.label));
        self.seen.insert(key, r.clone());
        r
    }

    fn step(&mut self, pairs: &[Pair], step: &Step) -> Tally {
        let mut tally = Tally::default();
        for d in &step.done {
            tally.record(self.check(pairs, d.pair, &d.reply));
        }
        tally
    }
}

/// Set-up: generate the inputs, start the server, connect the clients
/// and fill the cache with the resident pool, [`SETUPS`] times; every
/// service but the last is stopped again.
fn set_up(
    seed: u64,
    n: usize,
    metrics: &Metrics,
    audit: &mut Audit,
    tally: &mut Tally,
) -> Result<(Mix, Service, Vec<Done>, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some((_, service, _)) = last.take() {
            Service::stop(service)?;
        }
        let t0 = Instant::now();
        let mix = build_mix(seed, n);
        let mut service = Service::start(metrics.clone())?;
        let mut primed = Vec::new();
        for (i, p) in mix
            .pairs
            .iter()
            .enumerate()
            .take(ZOO.len() * (ISOMORPHS + 1))
            .step_by(ISOMORPHS + 1)
        {
            let sent = Instant::now();
            let reply = service.clients[0].check(&p.a, &p.b);
            let done = Instant::now();
            primed.push(Done {
                pair: i,
                scheduled: sent,
                sent,
                done,
                reply,
            });
        }
        times.push(t0.elapsed().as_secs_f64());
        last = Some((mix, service, primed));
    }
    let (mix, service, primed) = last.expect("at least one set-up");
    for d in &primed {
        tally.record(audit.check(&mix.pairs, d.pair, &d.reply));
    }
    Ok((mix, service, primed, median(&times)))
}

/// Ramp rates above the fixed rate.
fn ramp_rates() -> impl Iterator<Item = f64> {
    (1..=RAMP_LEVELS).map(|k| RATE * RAMP_FACTOR.powi(k as i32))
}

/// Requests one run may need: the fixed phase plus every ramp step.
fn request_budget(fixed_s: f64, step_s: f64) -> usize {
    let top = RATE * RAMP_FACTOR.powi(RAMP_LEVELS as i32);
    let ramp: f64 = ramp_rates()
        .chain(std::iter::repeat_n(top, RAMP_BISECTIONS))
        .map(|r| (r * step_s).round())
        .sum();
    (RATE * fixed_s).round() as usize + ramp as usize
}

/// Gates a step's replies into `tally`, records the step, and says
/// whether it sustained its rate: tail latency within
/// [`TAIL_LIMIT_MS`], error rate within [`ERROR_LIMIT`], and no growing
/// backlog.
fn judge(
    step: &Step,
    mix: &Mix,
    audit: &mut Audit,
    tally: &mut Tally,
    steps: &mut Vec<Value>,
) -> bool {
    let errors = audit.step(&mix.pairs, step);
    let tail = Tail::of(&step.latencies_ms());
    let passed =
        tail.value <= TAIL_LIMIT_MS && errors.error_rate() <= ERROR_LIMIT && !step.backlog_grew();
    tally.absorb(errors);
    steps.push(Value::Object(vec![
        ("offered_rps".into(), Value::F64(step.rate)),
        ("achieved_rps".into(), Value::F64(step.achieved_rps())),
        ("requests".into(), Value::U64(step.done.len() as u64)),
        ("tail".into(), crate::tail_json(&tail)),
        ("backlog_mid".into(), Value::U64(step.backlog_mid as u64)),
        ("backlog_end".into(), Value::U64(step.backlog_end as u64)),
        ("passed".into(), Value::Bool(passed)),
    ]));
    passed
}

/// The end-to-end run: a fixed-rate phase for half the time, which is
/// also the first step of the `max_rps` ramp; then ramp steps of a
/// twelfth of the time each, growing until one fails and bisecting
/// between the last pass and the first failure.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let fixed_s = seconds / 2.0;
    let step_s = seconds / 12.0;
    let mut audit = Audit::default();
    let mut tally = Tally::default();
    let (mix, mut service, _, setup_s) = set_up(
        seed,
        request_budget(fixed_s, step_s),
        &Metrics::disabled(),
        &mut audit,
        &mut tally,
    )?;
    let mut next = 0;
    let mut segment = |seconds: f64, rate: f64| {
        let range = next..next + (rate * seconds).round() as usize;
        next = range.end;
        range
    };

    let mut steps = Vec::new();
    let fixed = service.step(&mix.pairs, &mix.requests[segment(fixed_s, RATE)], RATE)?;
    // (offered, achieved) rate of the highest passing step.
    let mut best = judge(&fixed, &mix, &mut audit, &mut tally, &mut steps)
        .then(|| (RATE, fixed.achieved_rps()));
    let mut failed_at = best.is_none().then_some(RATE);
    if best.is_some() {
        for rate in ramp_rates() {
            let step = service.step(&mix.pairs, &mix.requests[segment(step_s, rate)], rate)?;
            if !judge(&step, &mix, &mut audit, &mut tally, &mut steps) {
                failed_at = Some(rate);
                break;
            }
            best = Some((rate, step.achieved_rps()));
        }
    }
    if let Some(mut hi) = failed_at {
        for _ in 0..RAMP_BISECTIONS {
            let lo = best.map_or(hi / RAMP_FACTOR, |(r, _)| r);
            let rate = (lo * hi).sqrt();
            let step = service.step(&mix.pairs, &mix.requests[segment(step_s, rate)], rate)?;
            if judge(&step, &mix, &mut audit, &mut tally, &mut steps) {
                best = Some((rate, step.achieved_rps()));
            } else {
                hi = rate;
            }
        }
    }
    service.stop()?;

    let latencies = fixed.latencies_ms();
    let tail = Tail::of(&latencies);
    let cert_bytes: Vec<f64> = fixed
        .done
        .iter()
        .filter_map(|d| d.reply.as_ref().ok()?.certificate.as_ref())
        .map(|c| c.len() as f64)
        .collect();
    let mut report = Report::new(tally);
    report.metric("setup_s", setup_s);
    report.metric("latency_p50_ms", median(&latencies));
    report.metric("latency_tail_ms", tail.value);
    report.metric("checks_per_s", fixed.achieved_rps());
    report.metric("max_rps", best.map_or(0.0, |(_, achieved)| achieved));
    report.metric("cert_bytes_mean", mean(&cert_bytes));
    report.metric("peak_rss_mb", crate::peak_rss_mb());
    report.detail("tail", crate::tail_json(&tail));
    report.detail("gen.lag_ms_max", Value::F64(fixed.lag_ms_max));
    report.detail("ramp", Value::Array(steps));
    Ok(report)
}

/// The traced run: the same fixed-rate request segment is served twice,
/// first by a server without metrics, then by one with its `obs`
/// metrics registry on; the per-layer figures come from the second, and
/// the cache layer is timed by replaying the segment's lookups and
/// inserts through a `cache::CertCache` of the server's shape.
pub fn run_traced(seed: u64, seconds: f64) -> Result<Report, String> {
    let phase_s = seconds / 2.0;
    let n = (RATE * phase_s).round() as usize;
    let mut audit = Audit::default();
    let mut tally = Tally::default();
    let (mix, mut plain, _, _) = set_up(seed, n, &Metrics::disabled(), &mut audit, &mut tally)?;
    let untraced = plain.step(&mix.pairs, &mix.requests, RATE)?;
    tally.absorb(audit.step(&mix.pairs, &untraced));
    plain.stop()?;

    let metrics = Metrics::new();
    let (mix, mut service, primed, _) = set_up(seed, n, &metrics, &mut audit, &mut tally)?;
    let traced = service.step(&mix.pairs, &mix.requests, RATE)?;
    tally.absorb(audit.step(&mix.pairs, &traced));
    let snapshot = service.clients[0].metrics()?;
    service.stop()?;
    let counter = |name: &str| {
        snapshot
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };

    let mut report = Report::new(tally);
    let ok: Vec<(&Done, &CheckReply)> = traced
        .done
        .iter()
        .filter_map(|d| Some((d, d.reply.as_ref().ok()?)))
        .collect();
    let rtt = |hit: bool| {
        mean(
            &ok.iter()
                .filter(|(_, r)| r.cache_hit == hit)
                .map(|(d, _)| d.rtt_us())
                .collect::<Vec<_>>(),
        )
    };
    report.metric("serve.rtt_hit_us", rtt(true));
    report.metric("serve.rtt_miss_us", rtt(false));
    let server_us: Vec<f64> = ok.iter().map(|(_, r)| r.elapsed_us as f64).collect();
    report.metric("serve.server_us", mean(&server_us));
    report.metric(
        "serve.outside_us",
        mean(
            &ok.iter()
                .map(|(d, r)| d.rtt_us() - r.elapsed_us as f64)
                .collect::<Vec<_>>(),
        ),
    );
    report.metric(
        "serve.reply_bytes",
        mean(
            &ok.iter()
                .map(|(_, r)| (r.to_value().to_string().len() + 1) as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let hits = ok.iter().filter(|(_, r)| r.cache_hit).count();
    report.metric("cache.hit_rate", hits as f64 / ok.len().max(1) as f64);
    report.metric(
        "cache.replay_rejects",
        counter("cec.cache.replay_rejects") as f64,
    );
    report.metric("gen.lag_ms_max", traced.lag_ms_max);
    let rtt_all = |s: &Step| mean(&s.done.iter().map(Done::rtt_us).collect::<Vec<_>>());
    report.metric(
        "obs.trace_overhead_pct",
        100.0 * (rtt_all(&traced) / rtt_all(&untraced) - 1.0),
    );
    replay_cache_layer(&mix, &primed, &traced, &mut report);
    // The server's work over the traced server's set-ups and segment:
    // which pairs miss (and are proved) depends on the seed alone.
    let work = [
        "cec.sat_calls",
        "cec.conflicts",
        "cec.cache.hits",
        "cec.cache.misses",
    ];
    report.detail(
        "work",
        Value::Object(
            work.iter()
                .map(|&name| (name.to_string(), Value::U64(counter(name))))
                .collect(),
        ),
    );
    Ok(report)
}

/// Times the cache layer's public calls on the traced segment, in
/// schedule order, as the server makes them: canonicalize every request,
/// look it up, and insert the served verdict after a miss.
fn replay_cache_layer(mix: &Mix, primed: &[Done], traced: &Step, report: &mut Report) {
    let verdict = |r: &CheckReply| match (&r.certificate, &r.pattern) {
        (Some(c), _) => CachedVerdict::Equivalent {
            tracecheck: c.clone().into_bytes(),
        },
        (None, p) => CachedVerdict::Inequivalent {
            pattern: p
                .as_deref()
                .unwrap_or("")
                .chars()
                .map(|c| c == '1')
                .collect(),
        },
    };
    let mut cache =
        CertCache::new(CacheConfig::default(), &Metrics::disabled()).expect("no spill directory");
    for d in primed {
        if let Ok(r) = &d.reply {
            let p = &mix.pairs[d.pair];
            cache.insert(&CanonicalPair::new(&p.a, &p.b), verdict(r));
        }
    }
    let mut in_order: Vec<&Done> = traced.done.iter().collect();
    in_order.sort_by_key(|d| d.scheduled);
    let (mut canon, mut hit, mut miss, mut insert) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for d in in_order {
        let Ok(r) = &d.reply else { continue };
        let p = &mix.pairs[d.pair];
        let t0 = Instant::now();
        let pair = CanonicalPair::new(&p.a, &p.b);
        canon.push(t0.elapsed().as_secs_f64() * 1e6);
        let t1 = Instant::now();
        let found = cache.lookup(&pair);
        let lookup_us = t1.elapsed().as_secs_f64() * 1e6;
        if found.is_some() {
            hit.push(lookup_us);
        } else {
            miss.push(lookup_us);
            let v = verdict(r);
            let t2 = Instant::now();
            cache.insert(&pair, v);
            insert.push(t2.elapsed().as_secs_f64() * 1e6);
        }
    }
    report.metric("cache.canon_us", mean(&canon));
    report.metric("cache.lookup_hit_us", mean(&hit));
    report.metric("cache.lookup_miss_us", mean(&miss));
    report.metric("cache.insert_us", mean(&insert));
}
