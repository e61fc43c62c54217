//! `serve-hot` and `serve-cold`: a seeded request stream through
//! `sdem_serve::Service`, closed loop and pipelined, checked against the
//! same stream answered sequentially through `api::execute_in` and
//! `SolveCache`.

use std::time::Instant;

use sdem_prng::{Rng, SeedableRng, SplitMix64};
use sdem_serve::api::{self, SolveRequest, API_VERSION};
use sdem_serve::{CacheParams, CachedSolve, Service, ServiceConfig, ServiceStats, SolveCache};
use sdem_types::Workspace;

use crate::report::{self, Budget, Check, Layer, Metric, Outcome};
use crate::sink::{window_secs, Digest, Tap};
use crate::spans::Tracer;
use crate::stats::Samples;

/// Which request mix to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 64 shapes × 8 tasks, rotated, 25% bounded-auto, cache warmed.
    Hot,
    /// Every request a distinct task set; the stream outgrows the cache.
    Cold,
}

/// Requests per pipelined round on serve-hot; its closed-loop rounds take
/// the first [`HOT_CLOSED`] of them.
const HOT_REQUESTS: usize = 50_000;
const HOT_CLOSED: usize = 20_000;
/// Responses per serve-hot throughput window, under 10 ms of work. Each
/// window's time is its median over the rounds, so a burst of host noise
/// in one round does not move the result.
const HOT_THROUGHPUT_WINDOW: usize = 1_000;
/// Requests per serve-cold round, more than the service's 4096-entry
/// cache, so inserts evict.
const COLD_REQUESTS: usize = 4_608;
/// Responses per serve-cold throughput window: one cycle of the mix,
/// a few milliseconds of solving.
const COLD_THROUGHPUT_WINDOW: usize = COLD_CYCLE.len();

const HOT_SHAPES: usize = 64;
const HOT_TASKS: usize = 8;
const HOT_BOUNDED: f64 = 0.25;

/// Warm-up requests carry ids from here up, apart from the timed stream.
const WARM_ID: u64 = 1 << 40;

/// The cold request kinds: scheme, task-set shape and task-count range.
/// Agreeable and bounded task counts stay small so that no single request
/// dominates a run.
const COLD_KINDS: [(&str, Shape, (usize, usize)); 5] = [
    ("auto", Shape::Staggered, (8, 20)),
    ("auto", Shape::CommonRelease, (8, 20)),
    ("auto", Shape::Agreeable, (6, 10)),
    ("bounded-auto", Shape::SharedWindow, (6, 9)),
    ("bounded-bnb", Shape::SharedWindow, (10, 12)),
];

/// One cycle of the cold mix, as indices into [`COLD_KINDS`]: 50% general,
/// 25% common release, 5% agreeable, 10% bounded-auto, 10% bounded-bnb.
/// An agreeable solve costs about fifty general ones, so these shares
/// still give agreeable and bounded most of the worker's time, and a
/// round is short enough that a run holds several.
/// The order and each kind's task count cycle deterministically, so every
/// seed gets the same mix and only the task parameters change.
const COLD_CYCLE: [usize; 20] = [0, 1, 0, 3, 0, 1, 4, 0, 1, 0, 2, 0, 0, 3, 0, 1, 4, 0, 0, 1];

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Independent releases in 0–10 ms and windows of 20–80 ms.
    Staggered,
    /// Release 0, independent deadlines.
    CommonRelease,
    /// Releases and deadlines in the same order.
    Agreeable,
    /// Release 0 and one shared deadline (the bounded tiers' shape).
    SharedWindow,
}

#[derive(Debug, Clone, Copy)]
struct Row {
    release_ms: f64,
    deadline_ms: f64,
    work_cycles: f64,
}

fn shape(rng: &mut SplitMix64, kind: Shape, n: usize) -> Vec<Row> {
    let work = |rng: &mut SplitMix64| rng.gen_range(1.0e6..8.0e6);
    match kind {
        Shape::Staggered | Shape::CommonRelease => (0..n)
            .map(|_| {
                let release_ms = match kind {
                    Shape::Staggered => rng.gen_range(0.0..10.0),
                    _ => 0.0,
                };
                Row {
                    release_ms,
                    deadline_ms: release_ms + rng.gen_range(20.0..80.0),
                    work_cycles: work(rng),
                }
            })
            .collect(),
        Shape::Agreeable => {
            let mut releases: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
            let mut deadlines: Vec<f64> = releases
                .iter()
                .map(|r| r + rng.gen_range(20.0..80.0))
                .collect();
            // Sorting both keeps every window non-empty (the i-th smallest
            // deadline exceeds the i-th smallest release) and agreeable.
            releases.sort_by(f64::total_cmp);
            deadlines.sort_by(f64::total_cmp);
            releases
                .into_iter()
                .zip(deadlines)
                .map(|(release_ms, deadline_ms)| Row {
                    release_ms,
                    deadline_ms,
                    work_cycles: work(rng),
                })
                .collect()
        }
        Shape::SharedWindow => {
            let deadline_ms = rng.gen_range(40.0..120.0);
            (0..n)
                .map(|_| Row {
                    release_ms: 0.0,
                    deadline_ms,
                    work_cycles: work(rng),
                })
                .collect()
        }
    }
}

/// One request line; task `i` of the line is row `(i + rotate) % n`.
fn request_line(id: u64, scheme: &str, rows: &[Row], rotate: usize) -> String {
    let mut line = format!("{{\"v\":{API_VERSION},\"id\":{id},\"scheme\":\"{scheme}\",\"tasks\":[");
    for i in 0..rows.len() {
        let task = (i + rotate) % rows.len();
        let r = &rows[task];
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "[{task},{},{},{}]",
            r.release_ms, r.deadline_ms, r.work_cycles
        ));
    }
    line.push_str("]}");
    line
}

/// The generated input: warm-up lines answered during set-up, then the
/// timed stream.
pub struct Stream {
    warmup: Vec<String>,
    lines: Vec<String>,
    /// How many of `lines` a closed-loop round sends.
    closed: usize,
}

impl Stream {
    /// Generates the mix from `seed`.
    pub fn new(mix: Mix, seed: u64) -> Self {
        match mix {
            Mix::Hot => hot(seed),
            Mix::Cold => cold(seed),
        }
    }
}

fn hot(seed: u64) -> Stream {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let auto: Vec<Vec<Row>> = (0..HOT_SHAPES)
        .map(|_| {
            let kind = if rng.gen_bool(0.5) {
                Shape::CommonRelease
            } else {
                Shape::Staggered
            };
            shape(&mut rng, kind, HOT_TASKS)
        })
        .collect();
    let bounded: Vec<Vec<Row>> = (0..HOT_SHAPES)
        .map(|_| shape(&mut rng, Shape::SharedWindow, HOT_TASKS))
        .collect();
    // Set-up answers every (scheme, shape) pair once, so every timed
    // lookup finds its entry.
    let warmup = (0..HOT_SHAPES)
        .flat_map(|i| {
            [
                request_line(WARM_ID + 2 * i as u64, "auto", &auto[i], 0),
                request_line(WARM_ID + 2 * i as u64 + 1, "bounded-auto", &bounded[i], 0),
            ]
        })
        .collect();
    let lines = (0..HOT_REQUESTS as u64)
        .map(|id| {
            let pick = (rng.next_u64() % HOT_SHAPES as u64) as usize;
            let rotate = (rng.next_u64() % HOT_TASKS as u64) as usize;
            if rng.gen_bool(HOT_BOUNDED) {
                request_line(id, "bounded-auto", &bounded[pick], rotate)
            } else {
                request_line(id, "auto", &auto[pick], rotate)
            }
        })
        .collect();
    Stream {
        warmup,
        lines,
        closed: HOT_CLOSED,
    }
}

/// The `k`-th request of cold kind `kind`.
fn cold_line(rng: &mut SplitMix64, id: u64, kind: usize, k: usize) -> String {
    let (scheme, shape_kind, (lo, hi)) = COLD_KINDS[kind];
    let n = lo + k % (hi - lo + 1);
    request_line(id, scheme, &shape(rng, shape_kind, n), 0)
}

fn cold(seed: u64) -> Stream {
    // Warm-up draws from a fixed stream of its own: it shares no task set
    // with the timed requests (it warms the worker's workspace, not the
    // cache), and set-up costs the same for every seed.
    let mut warm_rng = SplitMix64::new(0x3A53_0C01);
    let warmup = (0..COLD_KINDS.len() * 2)
        .map(|i| {
            let kind = i % COLD_KINDS.len();
            cold_line(&mut warm_rng, WARM_ID + i as u64, kind, i)
        })
        .collect();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut drawn = [0usize; COLD_KINDS.len()];
    let lines = (0..COLD_REQUESTS)
        .map(|id| {
            let kind = COLD_CYCLE[id % COLD_CYCLE.len()];
            drawn[kind] += 1;
            cold_line(&mut rng, id as u64, kind, drawn[kind] - 1)
        })
        .collect();
    Stream {
        warmup,
        lines,
        closed: COLD_REQUESTS,
    }
}

/// One client plus one service worker: the two threads the host has.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

/// Starts a service, answers the warm-up and returns it idle, with the
/// sink reset and the set-up time (start until the first timed request).
fn start(stream: &Stream) -> (Service, Tap, f64) {
    let t0 = Instant::now();
    let tap = Tap::new();
    let service = Service::start(service_config(), tap.sink());
    for line in &stream.warmup {
        service.submit_blocking(line);
    }
    tap.wait_for(stream.warmup.len() as u64);
    tap.reset();
    (service, tap, t0.elapsed().as_secs_f64())
}

/// What one service round produced.
struct Round {
    setup_s: f64,
    digest: Digest,
    errors: u64,
    stats: ServiceStats,
}

/// Closed loop: submit, wait for the response line at the sink, repeat.
fn closed_round(stream: &Stream, latencies_us: &mut Vec<Vec<f64>>) -> Round {
    let (service, tap, setup_s) = start(stream);
    let mut sent = Vec::with_capacity(stream.closed);
    for (i, line) in stream.lines[..stream.closed].iter().enumerate() {
        sent.push(Instant::now());
        service.submit(line);
        tap.wait_for(i as u64 + 1);
    }
    let stats = service.finish();
    let stamps = tap.take_stamps();
    latencies_us.push(
        sent.iter()
            .zip(&stamps)
            .map(|(s, r)| r.duration_since(*s).as_secs_f64() * 1e6)
            .collect(),
    );
    Round {
        setup_s,
        digest: tap.digest(),
        errors: tap.errors(),
        stats,
    }
}

/// Pipelined: submit everything with backpressure, then drain. Pushes the
/// seconds each window of `window` consecutive responses took to reach
/// the sink.
fn pipelined_round(stream: &Stream, window: usize, secs: &mut Vec<Vec<f64>>) -> Round {
    let (service, tap, setup_s) = start(stream);
    for line in &stream.lines {
        service.submit_blocking(line);
    }
    let stats = service.finish();
    secs.push(window_secs(&tap.take_stamps(), window));
    Round {
        setup_s,
        digest: tap.digest(),
        errors: tap.errors(),
        stats,
    }
}

/// Answers one request line the way a service worker does, one public
/// layer call per span. Returns the response line and whether it is ok.
pub fn answer(
    line: &str,
    req_no: u64,
    cache: &mut SolveCache,
    ws: &mut Workspace,
    tr: &mut Tracer,
    parent: Option<usize>,
) -> (String, bool) {
    let req = match tr.time("serve.api.parse", parent, req_no, || {
        SolveRequest::parse_line(line)
    }) {
        Ok(req) => req,
        Err(e) => return (api::error_line(None, &e), false),
    };
    let canonical = tr.time("types.canonicalize", parent, req_no, || {
        req.tasks.canonicalize()
    });
    let params = CacheParams {
        scheme: req.scheme_name.clone(),
        cores: req.cores,
        alpha_m_bits: req.alpha_m_w.to_bits(),
        xi_m_bits: req.xi_m_ms.to_bits(),
        fallback: req.fallback,
    };
    if let Some(hit) = tr.time("serve.cache.get", parent, req_no, || {
        cache.get(&canonical, &params)
    }) {
        let out = tr.time("serve.api.render", parent, req_no, || {
            hit.to_response(req.id, req.scheme_name.clone())
                .to_json_line()
        });
        return (out, true);
    }
    let span = tr.open("serve.api.execute", parent, req_no);
    let executed = req.platform().and_then(|p| api::execute_in(&req, &p, ws));
    tr.close(span);
    match executed {
        Ok(executed) => {
            tr.tag(span, executed.response.resolved);
            let response = executed.response;
            ws.recycle_schedule(executed.solution.into_schedule());
            tr.time("serve.cache.insert", parent, req_no, || {
                cache.insert(canonical, params, CachedSolve::from_response(&response));
            });
            let out = tr.time("serve.api.render", parent, req_no, || {
                response.to_json_line()
            });
            (out, true)
        }
        Err(e) => (api::error_line(Some(req.id), &e), false),
    }
}

/// The serve layers, in request-path order, that add up to a request.
pub const REQUEST_LAYERS: [&str; 6] = [
    "serve.api.parse",
    "types.canonicalize",
    "serve.cache.get",
    "serve.api.execute",
    "serve.cache.insert",
    "serve.api.render",
];

/// The sequential reference: the same stream, one request at a time,
/// through the layers the service calls.
struct Sequential {
    /// Digest of the closed-loop prefix of the stream.
    closed_digest: Digest,
    digest: Digest,
    errors: u64,
    wall_s: f64,
    /// `(hits, misses, evictions)` of the timed stream.
    cache: (u64, u64, u64),
}

fn sequential(stream: &Stream, tr: &mut Tracer) -> Sequential {
    let mut cache = SolveCache::new(service_config().cache_capacity);
    let mut ws = Workspace::new();
    let mut untraced = Tracer::new(false);
    for (i, line) in stream.warmup.iter().enumerate() {
        answer(
            line,
            WARM_ID + i as u64,
            &mut cache,
            &mut ws,
            &mut untraced,
            None,
        );
    }
    let before = cache.stats();
    let mut digest = Digest::default();
    let mut closed_digest = digest;
    let mut errors = 0;
    let t0 = Instant::now();
    for (i, line) in stream.lines.iter().enumerate() {
        let root = tr.open("serve.request", None, i as u64);
        let (out, ok) = answer(line, i as u64, &mut cache, &mut ws, tr, root);
        tr.close(root);
        digest.line(&out);
        errors += u64::from(!ok);
        if i + 1 == stream.closed {
            closed_digest = digest;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let after = cache.stats();
    Sequential {
        closed_digest,
        digest,
        errors,
        wall_s,
        cache: (after.0 - before.0, after.1 - before.1, after.2 - before.2),
    }
}

/// Runs one serve workload for about `seconds` and reports it.
pub fn run(mix: Mix, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let stream = Stream::new(mix, seed);
    let n = stream.lines.len() as u64;
    let throughput_window = match mix {
        Mix::Hot => HOT_THROUGHPUT_WINDOW,
        Mix::Cold => COLD_THROUGHPUT_WINDOW,
    };
    let mut budget = Budget::new(seconds);
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut latencies_us = Vec::new();
    let mut secs = Vec::new();
    let mut closed = Vec::new();
    let mut pipelined = Vec::new();
    // Alternate closed-loop and pipelined rounds until time is up; a
    // traced run needs one of each, for the digests and the closed-loop
    // mean its unaccounted row is measured against.
    loop {
        closed.push(closed_round(&stream, &mut latencies_us));
        pipelined.push(pipelined_round(&stream, throughput_window, &mut secs));
        if trace || !budget.another() {
            break;
        }
    }

    let untraced = sequential(&stream, &mut Tracer::new(false));
    let mut tracer = Tracer::new(trace);
    let traced = trace.then(|| sequential(&stream, &mut tracer));

    let mut totals = ServiceStats::default();
    let traced_refs = traced.as_ref().map(|t| (t.closed_digest, t.digest));
    let phases = [
        (
            "closed-loop",
            &closed,
            stream.closed as u64,
            untraced.closed_digest,
            traced_refs.map(|r| r.0),
        ),
        (
            "pipelined",
            &pipelined,
            n,
            untraced.digest,
            traced_refs.map(|r| r.1),
        ),
    ];
    for (phase, rounds, sent, reference, traced_reference) in phases {
        for (i, round) in rounds.iter().enumerate() {
            setups.push(round.setup_s);
            let s = &round.stats;
            out.attempted += sent;
            out.failed += round.errors + s.shed + s.rejected;
            totals.shed += s.shed;
            totals.rejected += s.rejected;
            totals.degraded += s.degraded;
            totals.cache_hits += s.cache_hits;
            totals.cache_misses += s.cache_misses;
            out.checks.push(Check::new(
                format!(
                    "{phase} round {i}: response digest {:#018x} equals the sequential execute_in + SolveCache digest",
                    round.digest.value()
                ),
                round.digest == reference && traced_reference.is_none_or(|t| t == reference),
            ));
        }
    }
    out.checks.push(Check::new(
        "sequential reference answered every request ok",
        untraced.errors == 0,
    ));
    if mix == Mix::Cold {
        out.checks.push(Check::new(
            "serve-cold: no timed lookup hit the cache",
            untraced.cache.0 == 0,
        ));
    }

    let latency = |name, p| report::percentile_over_rounds(name, "us", &latencies_us, p);
    out.e2e = vec![
        report::throughput("throughput_rps", &secs, throughput_window),
        latency("latency_p50_us", 50.0),
        latency("latency_p99_us", 99.0),
        Metric::median("setup_s", "s", &Samples::new(setups)),
        report::peak_rss(),
    ];

    if let Some(traced) = traced {
        let e2e_us = Samples::new(latencies_us.concat()).mean().unwrap_or(0.0);
        let layers: Vec<Layer> = REQUEST_LAYERS
            .iter()
            .map(|&name| Layer::new(name, tracer.layer(name, None)))
            .collect();
        let unaccounted = report::add_up(
            &mut out.table,
            &layers,
            n,
            e2e_us,
            "closed-loop mean latency",
        );
        out.layers = report::request_layer_metrics(&tracer);
        let lookups = totals.cache_hits + totals.cache_misses;
        out.layers.extend([
            Metric::count("serve.cache.evictions", traced.cache.2),
            Metric::new(
                "serve.cache.hit_ratio",
                "ratio",
                totals.cache_hits as f64 / lookups.max(1) as f64,
                lookups as usize,
            ),
            Metric::new(
                "serve.service.unaccounted_us",
                "us",
                unaccounted,
                n as usize,
            ),
            Metric::count("serve.service.shed", totals.shed),
            Metric::count("serve.service.rejected", totals.rejected),
            Metric::count("serve.service.degraded", totals.degraded),
            report::overhead(untraced.wall_s, traced.wall_s),
        ]);
        out.spans = Some(tracer);
    }
    out
}
