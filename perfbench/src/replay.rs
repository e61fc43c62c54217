//! `replay-journal`: `sdem_serve::replay` over the CI arrival trace with
//! one worker and a write-ahead journal, checked against the journal it
//! leaves and against the same events answered sequentially.

use std::path::Path;
use std::time::Instant;

use sdem_serve::api::API_VERSION;
use sdem_serve::{
    replay, JournalHeader, ReplayConfig, ReplayJournal, ReplayReport, ServiceConfig, SolveCache,
};
use sdem_types::Workspace;
use sdem_workload::trace::{ArrivalEvent, ArrivalTrace, JobRow, TraceSpec};

use crate::report::{self, Budget, Check, Layer, Metric, Outcome};
use crate::serve::{answer, REQUEST_LAYERS};
use crate::sink::{window_secs, Digest, Tap};
use crate::spans::Tracer;
use crate::stats::Samples;

/// Arrival events per replay.
const EVENTS: u64 = 40_000;
/// Events per latency sample: the time per event over this many
/// consecutive response lines. A replay has no per-request latency, and
/// over shorter stretches the time per event follows the queue filling
/// and draining (up to 1024 events) more than the code.
const EVENT_WINDOW: usize = 1_000;
/// Response lines per throughput window.
const THROUGHPUT_WINDOW: usize = 5_000;

fn header(spec: &TraceSpec) -> JournalHeader {
    JournalHeader {
        trace: spec.to_string(),
        chaos: String::new(),
        events: EVENTS,
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

/// What one replay produced.
struct Round {
    setup_s: f64,
    /// Seconds per [`THROUGHPUT_WINDOW`] response lines at the sink.
    window_secs: Vec<f64>,
    /// Time per event, µs, over each run of [`EVENT_WINDOW`] lines.
    event_us: Vec<f64>,
    lines: u64,
    digest: Digest,
    errors: u64,
    report: ReplayReport,
}

fn round(spec: &TraceSpec, journal: &Path) -> Result<Round, String> {
    let tap = Tap::new();
    let cfg = ReplayConfig {
        service: service_config(),
        trace: spec.clone(),
        events: EVENTS,
        chaos: None,
        journal: Some(journal.to_path_buf()),
        resume: false,
        halt_after: None,
    };
    let t0 = Instant::now();
    let report = replay(&cfg, tap.sink()).map_err(|e| e.to_string())?;
    let stamps = tap.take_stamps();
    let first = *stamps.first().ok_or("the replay emitted nothing")?;
    Ok(Round {
        setup_s: first.duration_since(t0).as_secs_f64(),
        window_secs: window_secs(&stamps, THROUGHPUT_WINDOW),
        event_us: window_secs(&stamps, EVENT_WINDOW)
            .into_iter()
            .map(|s| s * 1e6 / EVENT_WINDOW as f64)
            .collect(),
        lines: stamps.len() as u64,
        digest: tap.digest(),
        errors: tap.errors(),
        report,
    })
}

/// Resumes the journal a replay left and digests its lines in seq order.
/// Returns how many leading seqs it holds without a gap, and their digest.
fn journal_digest(spec: &TraceSpec, path: &Path) -> Result<(u64, Digest), String> {
    let mut journal = ReplayJournal::resume(path, &header(spec)).map_err(|e| e.to_string())?;
    let mut digest = Digest::default();
    let mut held = 0;
    for (seq, line) in journal.take_entries() {
        if seq != held {
            break;
        }
        digest.line(&line);
        held += 1;
    }
    Ok((held, digest))
}

/// The request line `replay()` renders for an arrival: id = seq,
/// scheme `auto`, rows rotated by the event's rotation.
fn request_line(event: &ArrivalEvent, rows: &[JobRow]) -> String {
    let mut out = format!(
        "{{\"v\":{API_VERSION},\"id\":{},\"scheme\":\"auto\",\"tasks\":[",
        event.seq
    );
    for i in 0..rows.len() {
        let r = &rows[(i + event.rotation) % rows.len()];
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "[{},{},{},{}]",
            r.id, r.release_ms, r.deadline_ms, r.work_cycles
        ));
    }
    out.push_str("]}");
    out
}

/// The replay's events answered one at a time through the public layers,
/// journaled like the service journals them.
struct Sequential {
    digest: Digest,
    errors: u64,
    wall_s: f64,
    evictions: u64,
}

fn sequential(spec: &TraceSpec, journal: &Path, tr: &mut Tracer) -> Result<Sequential, String> {
    let mut trace = ArrivalTrace::new(spec)?;
    let journal = ReplayJournal::create(journal, header(spec)).map_err(|e| e.to_string())?;
    let mut cache = SolveCache::new(service_config().cache_capacity);
    let mut ws = Workspace::new();
    let mut digest = Digest::default();
    let mut errors = 0;
    let t0 = Instant::now();
    for seq in 0..EVENTS {
        let root = tr.open("serve.replay.event", None, seq);
        let event = tr
            .time("workload.trace.next", root, seq, || trace.next())
            .ok_or("arrival traces are infinite")?;
        let line = request_line(&event, trace.shape_rows(event.shape));
        let (out, ok) = answer(&line, seq, &mut cache, &mut ws, tr, root);
        tr.time("serve.journal.append", root, seq, || {
            journal.append(seq, &out)
        });
        tr.close(root);
        digest.line(&out);
        errors += u64::from(!ok);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(e) = journal.take_error() {
        return Err(e.to_string());
    }
    Ok(Sequential {
        digest,
        errors,
        wall_s,
        evictions: cache.stats().2,
    })
}

/// Runs the replay workload for about `seconds` and reports it. The
/// trace is the CI trace (`TraceSpec::default()`), the same on every run,
/// so that runs with different seeds time the same input.
pub fn run(seconds: f64, trace: bool, out_dir: &Path) -> Result<Outcome, String> {
    let spec = TraceSpec::default();
    let journal = out_dir.join("replay.journal");
    let mut budget = Budget::new(seconds);
    let mut out = Outcome::default();
    let mut rounds = Vec::new();
    loop {
        let r = round(&spec, &journal)?;
        let (held, journaled) = journal_digest(&spec, &journal)?;
        // Removed here, not truncated by the next replay: truncating the
        // last journal would land in the next replay's set-up time.
        std::fs::remove_file(&journal).map_err(|e| format!("{}: {e}", journal.display()))?;
        let s = &r.report.stats;
        out.attempted += EVENTS;
        out.failed += r.errors + s.shed + s.rejected;
        out.checks.push(Check::new(
            format!(
                "replay {}: {} lines for {EVENTS} events, journal resumes to the same {} lines",
                rounds.len(),
                r.lines,
                held
            ),
            r.lines == EVENTS
                && r.report.executed == EVENTS
                && held == EVENTS
                && journaled == r.digest
                && rounds.first().is_none_or(|f: &Round| f.digest == r.digest),
        ));
        rounds.push(r);
        if trace || !budget.another() {
            break;
        }
    }
    let secs: Vec<Vec<f64>> = rounds.iter().map(|r| r.window_secs.clone()).collect();
    let throughput = report::throughput("throughput_rps", &secs, THROUGHPUT_WINDOW);
    let events_per_s = throughput.value;
    // A replay has no per-request latency: its operation is a stretch of
    // EVENT_WINDOW events, and the latency is the time per event in it.
    let event_us: Vec<Vec<f64>> = rounds.iter().map(|r| r.event_us.clone()).collect();
    out.e2e = vec![
        throughput.clone(),
        report::percentile_over_rounds("latency_p50_us", "us", &event_us, 50.0),
        report::percentile_over_rounds("latency_p99_us", "us", &event_us, 99.0),
        Metric::median(
            "setup_s",
            "s",
            &Samples::new(rounds.iter().map(|r| r.setup_s).collect()),
        ),
        report::peak_rss(),
    ];
    out.native = vec![Metric {
        name: "events_per_s".to_string(),
        ..throughput
    }];

    if trace {
        let seq_journal = out_dir.join("replay-sequential.journal");
        let plain = sequential(&spec, &seq_journal, &mut Tracer::new(false))?;
        let mut tracer = Tracer::new(true);
        let traced = sequential(&spec, &seq_journal, &mut tracer)?;
        std::fs::remove_file(&seq_journal)
            .map_err(|e| format!("{}: {e}", seq_journal.display()))?;
        let reference = rounds[0].digest;
        out.checks.push(Check::new(
            "sequential trace.next + execute_in + SolveCache + journal: same digest as replay(), all ok",
            plain.digest == reference && traced.digest == reference && plain.errors == 0,
        ));

        let e2e_us = 1e6 / events_per_s;
        let mut names = vec!["workload.trace.next"];
        names.extend(REQUEST_LAYERS);
        names.push("serve.journal.append");
        let layers: Vec<Layer> = names
            .iter()
            .map(|&name| Layer::new(name, tracer.layer(name, None)))
            .collect();
        let unaccounted = report::add_up(
            &mut out.table,
            &layers,
            EVENTS,
            e2e_us,
            "replay() time per event (1 / events_per_s)",
        );
        let stats = rounds[0].report.stats;
        let lookups = stats.cache_hits + stats.cache_misses;
        out.layers = report::request_layer_metrics(&tracer);
        out.layers.extend([
            Metric::mean(
                "workload.trace.next_us",
                "us",
                &tracer.layer("workload.trace.next", None),
            ),
            Metric::mean(
                "serve.journal.append_us",
                "us",
                &tracer.layer("serve.journal.append", None),
            ),
            Metric::new(
                "serve.replay.unaccounted_us",
                "us",
                unaccounted,
                EVENTS as usize,
            ),
            Metric::count("serve.cache.evictions", traced.evictions),
            Metric::new(
                "serve.cache.hit_ratio",
                "ratio",
                stats.cache_hits as f64 / lookups.max(1) as f64,
                lookups as usize,
            ),
            Metric::count("serve.service.shed", stats.shed),
            Metric::count("serve.service.rejected", stats.rejected),
            Metric::count("serve.service.degraded", stats.degraded),
            report::overhead(plain.wall_s, traced.wall_s),
        ]);
        out.spans = Some(tracer);
    }
    Ok(out)
}
