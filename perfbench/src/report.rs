//! Metrics, checks and the printed report.

use std::fmt::Write as _;
use std::time::Instant;

use crate::spans::{unaccounted, Tracer};
use crate::stats::{median_by_position, Samples};

/// The end-to-end metrics every workload reports in its result line, as
/// `BENCHMARK.json` lists them: `(name, unit)`. `latency_p99_us` is
/// printed in the report but not listed: on the shared host it moved by
/// more than any bound from run to run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics a traced run reports, as `BENCHMARK.json` lists
/// them. A layer the workload never calls reads 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("serve.api.parse_us", "us"),
    ("types.canonicalize_us", "us"),
    ("serve.cache.get_us", "us"),
    ("serve.api.render_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.api.execute_us", "us"),
    ("serve.api.execute_p99_us", "us"),
    ("serve.api.execute_count", "count"),
    ("core.solve.online_us", "us"),
    ("core.solve.online_p99_us", "us"),
    ("core.solve.online_count", "count"),
    ("core.solve.common_release_overhead_us", "us"),
    ("core.solve.common_release_overhead_p99_us", "us"),
    ("core.solve.common_release_overhead_count", "count"),
    ("core.solve.agreeable_overhead_us", "us"),
    ("core.solve.agreeable_overhead_p99_us", "us"),
    ("core.solve.agreeable_overhead_count", "count"),
    ("core.solve.bounded_exact_us", "us"),
    ("core.solve.bounded_exact_p99_us", "us"),
    ("core.solve.bounded_exact_count", "count"),
    ("core.solve.bounded_bnb_us", "us"),
    ("core.solve.bounded_bnb_p99_us", "us"),
    ("core.solve.bounded_bnb_count", "count"),
    ("serve.service.unaccounted_us", "us"),
    ("serve.service.shed", "count"),
    ("serve.service.rejected", "count"),
    ("serve.service.degraded", "count"),
    ("workload.trace.next_us", "us"),
    ("serve.journal.append_us", "us"),
    ("serve.replay.unaccounted_us", "us"),
    ("workload.sporadic_us", "us"),
    ("core.online_us", "us"),
    ("baselines.mbkp_us", "us"),
    ("sim.meter_us", "us"),
    ("core.oracle_us", "us"),
    ("exec.resample_ratio", "ratio"),
    ("exec.runner.unaccounted_us", "us"),
    ("bench.trace_overhead_pct", "%"),
];

/// `core.solve.*` buckets, keyed by the response's `resolved` label.
const SOLVE_BUCKETS: [(&str, &str); 5] = [
    ("solve/online", "core.solve.online"),
    (
        "solve/common-release-overhead",
        "core.solve.common_release_overhead",
    ),
    ("solve/agreeable-overhead", "core.solve.agreeable_overhead"),
    ("solve/bounded-exact", "core.solve.bounded_exact"),
    ("solve/bounded-bnb", "core.solve.bounded_bnb"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Number of samples behind the value.
    pub samples: usize,
    /// How the value was formed, or why it is 0 when it is not a
    /// measurement.
    pub note: Option<String>,
    /// Whether the value is a measurement (not a stand-in 0).
    pub measured: bool,
}

impl Metric {
    /// A measured value.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            samples,
            note: None,
            measured: true,
        }
    }

    /// A count.
    pub fn count(name: impl Into<String>, n: u64) -> Self {
        Self::new(name, "count", n as f64, 1)
    }

    /// A 0 standing in for a value that was not measured, with the reason.
    pub fn absent(name: impl Into<String>, unit: &'static str, note: &str) -> Self {
        Self {
            note: Some(note.to_string()),
            measured: false,
            ..Self::new(name, unit, 0.0, 0)
        }
    }

    /// Median of `samples`.
    pub fn median(name: &str, unit: &'static str, samples: &Samples) -> Self {
        match samples.median() {
            Some(v) => Self::new(name, unit, v, samples.len()),
            None => Self::absent(name, unit, "no samples"),
        }
    }

    /// Mean of `samples`; 0 when the layer was never called.
    pub fn mean(name: impl Into<String>, unit: &'static str, samples: &Samples) -> Self {
        match samples.mean() {
            Some(v) => Self::new(name, unit, v, samples.len()),
            None => Self::absent(name, unit, "never called in this workload"),
        }
    }

    /// 99th percentile of `samples`; 0 when fewer than ten lie beyond it.
    pub fn p99(name: impl Into<String>, unit: &'static str, samples: &Samples) -> Self {
        match samples.percentile(99.0) {
            Some(v) => Self::new(name, unit, v, samples.len()),
            None => Self {
                samples: samples.len(),
                ..Self::absent(name, unit, "withheld: fewer than 10 samples beyond p99")
            },
        }
    }
}

/// An end-to-end percentile, steadied against the host's noise: every
/// round replays the same input, so operation `i` of one round does the
/// same work as operation `i` of any other. Each operation's time is its
/// median over the rounds, and the metric is the `p`-th percentile of
/// those over operations. It is withheld when fewer than ten operations
/// lie beyond it.
pub fn percentile_over_rounds(
    name: &str,
    unit: &'static str,
    rounds: &[Vec<f64>],
    p: f64,
) -> Metric {
    let typical = Samples::new(median_by_position(rounds));
    let total: usize = rounds.iter().map(Vec::len).sum();
    match typical.percentile(p) {
        Some(v) => Metric {
            note: Some(format!(
                "p{p} over {} operations, each the median of {} rounds",
                typical.len(),
                rounds.len()
            )),
            ..Metric::new(name, unit, v, total)
        },
        None => Metric {
            samples: total,
            ..Metric::absent(
                name,
                unit,
                &format!(
                    "withheld: {} operations leave fewer than 10 beyond p{p}",
                    typical.len()
                ),
            )
        },
    }
}

/// Operations per second, steadied like [`percentile_over_rounds`]:
/// `round_secs[r][i]` is how long window `i` of `window` operations took
/// in round `r`. Each window's time is its median over the rounds, and
/// the rate is the operations of all windows over the sum of those times.
pub fn throughput(name: &str, round_secs: &[Vec<f64>], window: usize) -> Metric {
    let typical = median_by_position(round_secs);
    let total: usize = round_secs.iter().map(Vec::len).sum::<usize>() * window;
    if typical.is_empty() {
        return Metric {
            samples: total,
            ..Metric::absent(name, "1/s", &format!("no full window of {window}"))
        };
    }
    let secs: f64 = typical.iter().sum();
    Metric {
        note: Some(format!(
            "{} windows of {window}, each the median of {} rounds",
            typical.len(),
            round_secs.len()
        )),
        ..Metric::new(name, "1/s", (typical.len() * window) as f64 / secs, total)
    }
}

/// VmHWM of this process, in MiB.
pub fn peak_rss() -> Metric {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        });
    match kb {
        Some(kb) => Metric::new("peak_rss_mb", "MB", kb / 1024.0, 1),
        None => Metric::absent("peak_rss_mb", "MB", "VmHWM unavailable"),
    }
}

/// Tracing overhead: traced wall time over untraced wall time of the
/// same work, as a percentage above 1.
pub fn overhead(untraced_s: f64, traced_s: f64) -> Metric {
    Metric::new(
        "bench.trace_overhead_pct",
        "%",
        (traced_s / untraced_s - 1.0) * 100.0,
        1,
    )
}

/// Run length: a workload keeps starting rounds while one more round,
/// as long as the last, still ends within its seconds.
pub struct Budget {
    start: Instant,
    last: Instant,
    seconds: f64,
}

impl Budget {
    /// A budget of `seconds` from now.
    pub fn new(seconds: f64) -> Self {
        let now = Instant::now();
        Self {
            start: now,
            last: now,
            seconds,
        }
    }

    /// Call after each round: whether another round fits.
    pub fn another(&mut self) -> bool {
        let now = Instant::now();
        let round = now.duration_since(self.last);
        self.last = now;
        (now.duration_since(self.start) + round).as_secs_f64() <= self.seconds
    }
}

/// A correctness check and whether it passed.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub what: String,
    /// Whether it held.
    pub ok: bool,
}

impl Check {
    /// A check result.
    pub fn new(what: impl Into<String>, ok: bool) -> Self {
        Self {
            what: what.into(),
            ok,
        }
    }
}

/// A layer's span durations, for the add-up table.
pub struct Layer {
    name: &'static str,
    samples: Samples,
}

impl Layer {
    /// A layer row from its span durations (µs).
    pub fn new(name: &'static str, samples: Samples) -> Self {
        Self { name, samples }
    }
}

/// Prints the table in which each layer's share of one operation plus
/// the unaccounted row add up to `e2e_us`, and returns the unaccounted
/// time. Layers that exceed the end-to-end time give a negative value
/// and a warning, never a silent 0.
pub fn add_up(table: &mut Vec<String>, layers: &[Layer], ops: u64, e2e_us: f64, e2e: &str) -> f64 {
    table.push(format!(
        "  {:<28} {:>9} {:>8} {:>11} {:>11} {:>11}",
        "layer", "calls", "per op", "mean us", "p99 us", "us per op"
    ));
    let mut shares = Vec::with_capacity(layers.len());
    for layer in layers {
        let share = layer.samples.sum() / ops as f64;
        shares.push(share);
        let p99 = layer
            .samples
            .percentile(99.0)
            .map_or("-".to_string(), |v| format!("{v:.3}"));
        table.push(format!(
            "  {:<28} {:>9} {:>8.3} {:>11.3} {:>11} {:>11.3}",
            layer.name,
            layer.samples.len(),
            layer.samples.len() as f64 / ops as f64,
            layer.samples.mean().unwrap_or(0.0),
            p99,
            share
        ));
    }
    let rest = match unaccounted(e2e_us, &shares) {
        Ok(rest) => rest,
        Err(over) => {
            eprintln!("warning: unaccounted time is negative: {over}");
            over.signed_us()
        }
    };
    table.push(format!("  {:<80} {:>11.3}", "unaccounted", rest));
    table.push(format!(
        "  {:<80} {:>11.3}",
        format!("= {e2e} ({ops} operations)"),
        e2e_us
    ));
    rest
}

/// Per-layer metrics of the serve request path, from its spans.
pub fn request_layer_metrics(tr: &Tracer) -> Vec<Metric> {
    let mut out = Vec::new();
    for name in [
        "serve.api.parse",
        "types.canonicalize",
        "serve.cache.get",
        "serve.api.render",
        "serve.cache.insert",
    ] {
        out.push(Metric::mean(
            format!("{name}_us"),
            "us",
            &tr.layer(name, None),
        ));
    }
    let mut with_tail = |prefix: &str, samples: Samples| {
        out.push(Metric::mean(format!("{prefix}_us"), "us", &samples));
        out.push(Metric::p99(format!("{prefix}_p99_us"), "us", &samples));
        out.push(Metric::count(
            format!("{prefix}_count"),
            samples.len() as u64,
        ));
    };
    with_tail("serve.api.execute", tr.layer("serve.api.execute", None));
    for (resolved, prefix) in SOLVE_BUCKETS {
        with_tail(prefix, tr.layer("serve.api.execute", Some(resolved)));
    }
    out
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics: the `BENCHMARK.json` set and `latency_p99_us`.
    pub e2e: Vec<Metric>,
    /// The same numbers under workload-specific names (`trials_per_s`,
    /// …), printed in the report only.
    pub native: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// The add-up table (traced runs).
    pub table: Vec<String>,
    /// Operations attempted (requests, trials or events).
    pub attempted: u64,
    /// Operations that failed: non-ok responses, shed, rejected, failed
    /// trials.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// The traced run's spans, written out at exit.
    pub spans: Option<Tracer>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The metrics the result line carries, in `BENCHMARK.json` order:
    /// end-to-end untraced, per-layer traced. Missing per-layer names read
    /// 0 with a note.
    pub fn result_metrics(&self, trace: bool) -> Vec<Metric> {
        let (wanted, have): (&[(&str, &str)], &[Metric]) = if trace {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.e2e)
        };
        wanted
            .iter()
            .map(|&(name, unit)| {
                have.iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| Metric::absent(name, unit, "not exercised by this workload"))
            })
            .collect()
    }
}

/// The last line of the output: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// One human-readable metric row.
pub fn metric_row(m: &Metric) -> String {
    let mut row = format!(
        "  {:<44} {:>16} {:<5} n={}",
        m.name, m.value, m.unit, m.samples
    );
    if let Some(note) = &m.note {
        let _ = write!(row, "  ({note})");
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_stops_when_another_round_would_overrun() {
        assert!(!Budget::new(0.0).another());
        let mut long = Budget::new(1e9);
        assert!(long.another() && long.another());
    }

    #[test]
    fn throughput_sums_each_windows_median_round() {
        // Two windows of 10 operations over three rounds; median times
        // 0.2 s and 0.3 s.
        let rounds = vec![vec![0.2, 0.3], vec![0.1, 0.9], vec![0.5, 0.25]];
        let m = throughput("throughput_rps", &rounds, 10);
        assert!((m.value - 40.0).abs() < 1e-9, "{}", m.value);
        assert_eq!(m.samples, 60);
        assert!(!throughput("throughput_rps", &[], 10).measured);
    }

    #[test]
    fn percentile_is_taken_over_each_operations_median_round() {
        // 40 operations over three rounds: one round 2 us slower than
        // the base and one 100 us slower, except on the first operation,
        // where that stalled round is the fastest.
        let base: Vec<f64> = (1..=40).map(f64::from).collect();
        let slow: Vec<f64> = base.iter().map(|v| v + 2.0).collect();
        let mut stall: Vec<f64> = base.iter().map(|v| v + 100.0).collect();
        stall[0] = 0.5;
        let m = percentile_over_rounds("latency_p50_us", "us", &[stall, base, slow], 50.0);
        // Medians: 1, 4, 5, …, 42; p50 is rank 20 → 22.
        assert_eq!((m.value, m.samples), (22.0, 120));
        // p90 of 40 operations has four beyond it: withheld.
        let one = [(1..=40).map(f64::from).collect::<Vec<_>>()];
        assert!(!percentile_over_rounds("p90", "us", &one, 90.0).measured);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", "s", 0.25, 5)]);
        let doc = sdem_obs::json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.25));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
    }

    #[test]
    fn missing_layers_read_zero_with_a_note() {
        let out = Outcome {
            layers: vec![Metric::new("core.online_us", "us", 12.5, 7)],
            ..Outcome::default()
        };
        let metrics = out.result_metrics(true);
        assert_eq!(metrics.len(), PER_LAYER.len());
        let online = metrics.iter().find(|m| m.name == "core.online_us").unwrap();
        assert_eq!(online.value, 12.5);
        let parse = metrics
            .iter()
            .find(|m| m.name == "serve.api.parse_us")
            .unwrap();
        assert_eq!((parse.value, parse.samples), (0.0, 0));
        assert!(parse.note.is_some());
    }

    #[test]
    fn add_up_closes_the_table_on_the_end_to_end_time() {
        let mut table = Vec::new();
        let layers = [
            Layer::new("a", Samples::new(vec![1.0, 3.0])),
            Layer::new("b", Samples::new(vec![4.0])),
        ];
        // Two operations: a contributes 2 us each, b 2 us each.
        assert_eq!(add_up(&mut table, &layers, 2, 5.0, "e2e"), 1.0);
        assert!(table.last().unwrap().contains("5.000"));
        // Over-accounted: the negative value is reported, not clamped.
        assert_eq!(add_up(&mut table, &layers, 2, 3.0, "e2e"), -1.0);
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = sdem_obs::json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }
}
