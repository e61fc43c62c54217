//! `sweep-fig7a`: the paper's Fig. 7a grid through `figures::fig7a_with`
//! on one oracle-checked sweep thread.
//!
//! The traced run replays the same grid through `SweepRunner` with the
//! trial body spelled out as calls to each layer's public functions, so
//! every layer gets a span; its cells must match `fig7a_with` bit for bit.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sdem_baselines::mbkp::{self, Assignment};
use sdem_bench::experiment::{mean, TrialError, TrialResult, MAX_ATTEMPTS_PER_TRIAL};
use sdem_bench::figures::{fig7a_with, Fig7Cell, FIG7A_GRID_SEED};
use sdem_core::online::schedule_online_in;
use sdem_core::{OracleError, OracleOptions, Solution};
use sdem_exec::{SweepRunner, SweepStats, TrialCtx};
use sdem_power::{MemoryPower, Platform};
use sdem_sim::{
    simulate_event_driven, simulate_with_options_in, EnergyReport, SimOptions, SleepPolicy,
};
use sdem_types::{Schedule, TaskSet, Time, Watts, Workspace};
use sdem_workload::paper;
use sdem_workload::synthetic::{sporadic, SyntheticConfig};

use crate::report::{self, Budget, Check, Layer, Metric, Outcome};
use crate::sink::window_secs;
use crate::spans::Tracer;
use crate::stats::Samples;

/// Tasks per trial: the `fig7a` binary's default.
const TASKS: usize = 60;
/// Replicates per grid point in one sweep (64 points).
const TRIALS_PER_POINT: usize = 50;

/// Trials per throughput window, a few tens of milliseconds of work.
/// Each window's time is its median over the sweeps of a run.
const WINDOW: usize = 100;

/// Completion instants, pushed by the progress observer.
type Stamps = Arc<Mutex<Vec<Instant>>>;

fn runner(stamps: &Stamps) -> SweepRunner {
    let stamps = Arc::clone(stamps);
    SweepRunner::new()
        .with_threads(1)
        .with_oracle(true)
        .with_progress(move |_| {
            stamps
                .lock()
                .expect("progress stamps poisoned")
                .push(Instant::now())
        })
}

/// Timing of one sweep, from its progress callbacks.
struct Timing {
    setup_s: f64,
    gaps_us: Vec<f64>,
    /// Seconds per [`WINDOW`] trials.
    window_secs: Vec<f64>,
    wall_s: f64,
}

fn timing(t0: Instant, stamps: &Stamps) -> Timing {
    let stamps = std::mem::take(&mut *stamps.lock().expect("progress stamps poisoned"));
    let (first, last) = (stamps[0], stamps[stamps.len() - 1]);
    Timing {
        setup_s: first.duration_since(t0).as_secs_f64(),
        gaps_us: stamps
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e6)
            .collect(),
        window_secs: window_secs(&stamps, WINDOW),
        wall_s: last.duration_since(t0).as_secs_f64(),
    }
}

/// One `fig7a_with` sweep; set-up is runner construction plus the first
/// trial.
fn sweep_round() -> (Timing, Vec<Fig7Cell>, SweepStats) {
    let stamps: Stamps = Arc::new(Mutex::new(Vec::with_capacity(64 * TRIALS_PER_POINT)));
    let t0 = Instant::now();
    let runner = runner(&stamps);
    let (cells, stats) = fig7a_with(TASKS, TRIALS_PER_POINT, &runner);
    (timing(t0, &stamps), cells, stats)
}

fn platform(alpha_m: f64) -> Platform {
    Platform::paper_defaults().with_memory(
        MemoryPower::new(Watts::new(alpha_m))
            .with_break_even(Time::from_millis(paper::DEFAULT_XI_M_MS)),
    )
}

/// One trial attempt, layer by layer: SDEM-ON, MBKP, four meters and the
/// sim-oracle, as the sweep's trial runs them.
fn trial(
    tasks: &TaskSet,
    platform: &Platform,
    tol: f64,
    ws: &mut Workspace,
    tr: &mut Tracer,
    parent: Option<usize>,
    req: u64,
) -> Result<TrialResult, TrialError> {
    let sdem = tr.time("core.online", parent, req, || {
        schedule_online_in(tasks, platform, ws)
    })?;
    let mbkp = tr
        .time("baselines.mbkp", parent, req, || {
            mbkp::schedule_online_in(
                tasks,
                platform,
                paper::NUM_CORES,
                Assignment::RoundRobin,
                ws,
            )
        })
        .map_err(|e| TrialError::Baseline(e.to_string()))?;

    let profit = SimOptions::uniform(SleepPolicy::WhenProfitable);
    let never = SimOptions {
        memory_policy: SleepPolicy::NeverSleep,
        ..profit
    };
    let always = SimOptions {
        memory_policy: SleepPolicy::AlwaysSleep,
        ..profit
    };
    let mut meter = |schedule, opts| {
        tr.time("sim.meter", parent, req, || {
            simulate_with_options_in(schedule, tasks, platform, opts, ws)
        })
    };
    let sdem_on = meter(&sdem, profit)?;
    let mbkp_report = meter(&mbkp, never)?;
    let mbkps = meter(&mbkp, profit)?;
    let mbkps_always = meter(&mbkp, always)?;

    let span = tr.open("core.oracle", parent, req);
    let checked = oracle(
        [
            (&sdem, profit, &sdem_on),
            (&mbkp, never, &mbkp_report),
            (&mbkp, profit, &mbkps),
        ],
        tasks,
        platform,
        tol,
        ws,
    );
    tr.close(span);
    checked?;

    let sdem_cores_used = {
        let mut cores = ws.take_core_ids();
        sdem.cores_into(&mut cores);
        let n = cores.len();
        ws.recycle_core_ids(cores);
        n
    };
    ws.recycle_schedule(sdem);
    ws.recycle_schedule(mbkp);
    let result = TrialResult {
        sdem_on,
        mbkp: mbkp_report,
        mbkps,
        mbkps_always,
        sdem_cores_used,
    };
    result.ensure_finite()?;
    Ok(result)
}

/// The sim-oracle: analytic accounting of the SDEM-ON schedule against
/// the interval meter, then the meter against the event-driven engine on
/// each metered schedule.
fn oracle(
    metered: [(&Schedule, SimOptions, &EnergyReport); 3],
    tasks: &TaskSet,
    platform: &Platform,
    tol: f64,
    ws: &mut Workspace,
) -> Result<(), TrialError> {
    let (sdem, profit, _) = metered[0];
    let analytic = Solution::from_schedule_in(sdem.clone(), platform, ws);
    let verdict = analytic.verify_against_meter(
        tasks,
        platform,
        OracleOptions::with_sim(profit).with_tolerance(tol),
    );
    sdem_core::recycle_report(analytic, ws);
    let divergence =
        |check: &str, predicted: f64, metered: f64, relative| TrialError::OracleDivergence {
            check: check.to_string(),
            predicted,
            metered,
            relative,
            tolerance: tol,
        };
    match verdict {
        Ok(_) => {}
        Err(OracleError::Schedule(e)) => return Err(TrialError::Simulation(e)),
        Err(OracleError::Mismatch {
            predicted,
            metered,
            relative,
            ..
        }) => {
            let (p, m) = (predicted.value(), metered.value());
            return Err(divergence("SDEM-ON analytic vs meter", p, m, relative));
        }
        Err(other) => {
            return Err(TrialError::SolverPanic {
                payload: format!("unknown oracle error: {other}"),
            })
        }
    }
    for (schedule, opts, report) in metered {
        let engine = simulate_event_driven(schedule, tasks, platform, opts)?;
        let (a, b) = (engine.total().value(), report.total().value());
        let scale = a.abs().max(b.abs());
        let relative = if scale == 0.0 {
            0.0
        } else {
            (a - b).abs() / scale
        };
        if relative > tol {
            return Err(divergence("event engine vs meter", a, b, relative));
        }
    }
    Ok(())
}

/// What the layer-by-layer replica of the sweep observed.
#[derive(Default)]
struct Replica {
    cells: Vec<f64>,
    seeds: u64,
    trials: u64,
    diverged: u64,
}

/// The Fig. 7a grid through `SweepRunner`, trial body spelled out; spans
/// are kept when `trace` is set.
fn replica(trace: bool) -> (Timing, Replica, Tracer) {
    let grid: Vec<(f64, f64)> = paper::ALPHA_M_POINTS_W
        .iter()
        .flat_map(|&a| paper::X_POINTS_MS.iter().map(move |&x| (a, x)))
        .collect();
    let state = Mutex::new((Tracer::new(trace), Replica::default()));
    let stamps: Stamps = Arc::new(Mutex::new(Vec::with_capacity(64 * TRIALS_PER_POINT)));
    let t0 = Instant::now();
    let runner = runner(&stamps);
    let outcome = runner.run_with_state(
        &grid,
        TRIALS_PER_POINT,
        FIG7A_GRID_SEED,
        Workspace::new,
        |&(alpha_m, x_ms), ctx: &TrialCtx, ws| {
            let mut guard = state.lock().expect("replica state poisoned");
            let (tr, rep) = &mut *guard;
            let platform = platform(alpha_m);
            let cfg = SyntheticConfig::paper(TASKS, Time::from_millis(x_ms));
            let tol = ctx
                .oracle_tolerance()
                .expect("the runner enables the oracle");
            let req = ctx.trial_index() as u64;
            rep.trials += 1;
            let root = tr.open("exec.trial", None, req);
            let result = ctx.seeds().take(MAX_ATTEMPTS_PER_TRIAL).find_map(|seed| {
                rep.seeds += 1;
                let tasks = tr.time("workload.sporadic", root, req, || sporadic(&cfg, seed));
                let result = trial(&tasks, &platform, tol, ws, tr, root, req);
                ws.recycle_tasks(tasks.into_tasks());
                if let Err(TrialError::OracleDivergence { .. }) = result {
                    rep.diverged += 1;
                }
                result.ok()
            });
            tr.close(root);
            result
        },
    );
    let timing = timing(t0, &stamps);
    let (tracer, mut rep) = state.into_inner().expect("replica state poisoned");
    rep.cells = outcome
        .per_point
        .iter()
        .map(|results| mean(results, TrialResult::sdem_improvement_over_mbkps))
        .collect();
    (timing, rep, tracer)
}

/// The sweep layers that add up to one trial.
const TRIAL_LAYERS: [&str; 5] = [
    "workload.sporadic",
    "core.online",
    "baselines.mbkp",
    "sim.meter",
    "core.oracle",
];

fn bits(cells: impl IntoIterator<Item = f64>) -> Vec<u64> {
    cells.into_iter().map(f64::to_bits).collect()
}

/// Runs the sweep workload for about `seconds` and reports it.
pub fn run(seconds: f64, trace: bool) -> Outcome {
    let mut budget = Budget::new(seconds);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut gaps = Vec::new();
    let mut secs = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    loop {
        let (timing, cells, stats) = sweep_round();
        setups.push(timing.setup_s);
        gaps.push(timing.gaps_us);
        secs.push(timing.window_secs);
        out.attempted += stats.trials as u64;
        out.failed += (stats.failures + stats.quarantined) as u64;
        let cells = bits(cells.iter().map(|c| c.improvement));
        let same = reference.get_or_insert_with(|| cells.clone()) == &cells;
        out.checks.push(Check::new(
            format!(
                "sweep {}: oracle on, {} trials, 0 failed, cells identical to the first sweep",
                secs.len(),
                stats.trials
            ),
            stats.failures == 0 && stats.quarantined == 0 && same,
        ));
        if trace || !budget.another() {
            break;
        }
    }
    let rate = report::throughput("throughput_rps", &secs, WINDOW);
    let p50 = report::percentile_over_rounds("latency_p50_us", "us", &gaps, 50.0);
    out.e2e = vec![
        rate.clone(),
        p50.clone(),
        report::percentile_over_rounds("latency_p99_us", "us", &gaps, 99.0),
        Metric::median("setup_s", "s", &Samples::new(setups)),
        report::peak_rss(),
    ];
    out.native = vec![
        Metric {
            name: "trials_per_s".to_string(),
            ..rate
        },
        Metric {
            name: "trial_p50_us".to_string(),
            ..p50
        },
    ];

    if trace {
        let reference = reference.expect("at least one sweep ran");
        let (plain, plain_rep, _) = replica(false);
        let (traced, rep, tracer) = replica(true);
        for (what, r) in [("untraced", &plain_rep), ("traced", &rep)] {
            out.checks.push(Check::new(
                format!("{what} layer-by-layer sweep: cells bit-identical to fig7a_with, no oracle divergence"),
                bits(r.cells.iter().copied()) == reference && r.diverged == 0,
            ));
        }
        let trials = rep.trials;
        let e2e_us = Samples::new(traced.gaps_us).mean().unwrap_or(0.0);
        let layers: Vec<Layer> = TRIAL_LAYERS
            .iter()
            .map(|&name| Layer::new(name, tracer.layer(name, None)))
            .collect();
        let unaccounted = report::add_up(
            &mut out.table,
            &layers,
            trials,
            e2e_us,
            "mean gap between progress callbacks, traced sweep",
        );
        out.layers = TRIAL_LAYERS
            .iter()
            .map(|&name| Metric::mean(format!("{name}_us"), "us", &tracer.layer(name, None)))
            .collect();
        out.layers.extend([
            Metric::new(
                "exec.resample_ratio",
                "ratio",
                rep.seeds as f64 / trials as f64,
                trials as usize,
            ),
            Metric::new(
                "exec.runner.unaccounted_us",
                "us",
                unaccounted,
                trials as usize,
            ),
            report::overhead(plain.wall_s, traced.wall_s),
        ]);
        out.spans = Some(tracer);
    }
    out
}
