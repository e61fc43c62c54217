//! Allocation microbenchmark: heap traffic per trial, before vs after the
//! arena-backed [`sdem_types::Workspace`] hot path.
//!
//! Requires the `alloc-count` feature, which swaps in a counting global
//! allocator (the only `unsafe` in the crate, confined to this target):
//!
//! ```text
//! cargo bench -p sdem-bench --bench alloc_per_trial --features alloc-count
//! ```
//!
//! Each case runs one warm-up trial (to populate the workspace pools and
//! any lazily-allocated globals), then measures the steady state over a
//! fixed number of trials and reports mean allocations and bytes per
//! trial. The analytic common-release solvers must reach **zero**
//! allocations per trial on the warmed path — that invariant is asserted
//! here, so a regression fails the bench run loudly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sdem_bench::experiment::{run_trial_with_oracle, run_trial_with_oracle_in};
use sdem_core::{solve, solve_in, Scheme};
use sdem_power::Platform;
use sdem_types::{TaskSet, Time, Workspace};
use sdem_workload::paper;
use sdem_workload::synthetic::{agreeable, sporadic, SyntheticConfig};

/// A [`System`]-backed allocator that counts calls and bytes.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counters are side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Mean allocations and bytes per call of `f` over `iters` calls.
fn count_per_iter(iters: u64, mut f: impl FnMut()) -> (f64, f64) {
    let a0 = ALLOCATIONS.load(Ordering::Relaxed);
    let b0 = BYTES.load(Ordering::Relaxed);
    for _ in 0..iters {
        f();
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - a0;
    let bytes = BYTES.load(Ordering::Relaxed) - b0;
    (allocs as f64 / iters as f64, bytes as f64 / iters as f64)
}

fn report(name: &str, (allocs, bytes): (f64, f64)) {
    println!("{name:<52} {allocs:>10.1} allocs/trial {bytes:>12.1} B/trial");
}

fn main() {
    const ITERS: u64 = 200;
    let platform = Platform::paper_defaults();

    // Common-release task set: all releases at 0 (the §4 analytic schemes
    // require it), deadlines staggered so the schedule is non-trivial.
    let common = {
        let cfg = SyntheticConfig::paper(24, Time::from_millis(400.0));
        let drawn = sporadic(&cfg, 7);
        TaskSet::new(
            drawn
                .iter()
                .map(|t| sdem_types::Task::new(t.id().0, Time::ZERO, t.deadline(), t.work()))
                .collect(),
        )
        .expect("non-empty set")
    };

    // Sporadic set for the full online trial (feasible seed found below).
    let cfg = SyntheticConfig::paper(24, Time::from_millis(400.0));
    let sporadic_set = (0..64)
        .map(|s| sporadic(&cfg, s))
        .find(|t| run_trial_with_oracle(t, &platform, paper::NUM_CORES, None).is_ok())
        .expect("a feasible seed exists");

    println!("allocation traffic per trial (mean of {ITERS} steady-state trials)");
    println!();

    for scheme in [
        Scheme::CommonReleaseAlphaNonzero,
        Scheme::CommonReleaseOverhead,
    ] {
        let name = format!("{scheme:?}");
        let before = count_per_iter(ITERS, || {
            std::hint::black_box(solve(&common, &platform, scheme).unwrap());
        });
        report(&format!("solve/{name} (allocating)"), before);

        let mut ws = Workspace::new();
        // Warm the pools over a few trials (pool take/recycle order can
        // shuffle buffers, so one pass may leave a short buffer that only
        // grows on a later trial), then measure the steady state.
        for _ in 0..8 {
            let warm = solve_in(&common, &platform, scheme, &mut ws).unwrap();
            ws.recycle_schedule(warm.into_schedule());
        }
        let after = count_per_iter(ITERS, || {
            let s = solve_in(&common, &platform, scheme, &mut ws).unwrap();
            std::hint::black_box(&s);
            ws.recycle_schedule(s.into_schedule());
        });
        report(&format!("solve_in/{name} (warmed workspace)"), after);
        assert_eq!(
            after.0, 0.0,
            "analytic scheme {name} must be allocation-free on the warmed \
             workspace path (got {} allocs/trial)",
            after.0
        );
        println!();
    }

    // The bounded tiers, one size class per tier: BoundedAuto routes the
    // small set to bounded-exact (served by the branch-and-bound within
    // the enumerator's limit), the middle one to the branch-and-bound and
    // the large one to LPT + refine. Each must be allocation-free on
    // the warmed workspace path, searches included.
    for (tier, n) in [("exact", 12usize), ("bnb", 18), ("refined", 200)] {
        let deadline = Time::from_millis(400.0);
        let bounded_set = TaskSet::new(
            (0..n)
                .map(|i| {
                    sdem_types::Task::new(
                        i,
                        Time::ZERO,
                        deadline,
                        sdem_types::Cycles::new(1.0e6 + (i % 7) as f64 * 1.0e6),
                    )
                })
                .collect(),
        )
        .expect("non-empty set");
        let scheme = Scheme::BoundedAuto(4);
        let mut ws = Workspace::new();
        for _ in 0..8 {
            let warm = solve_in(&bounded_set, &platform, scheme, &mut ws).unwrap();
            ws.recycle_schedule(warm.into_schedule());
        }
        let after = count_per_iter(ITERS, || {
            let s = solve_in(&bounded_set, &platform, scheme, &mut ws).unwrap();
            std::hint::black_box(&s);
            ws.recycle_schedule(s.into_schedule());
        });
        report(
            &format!("solve_in/BoundedAuto->{tier} n={n} (warmed workspace)"),
            after,
        );
        assert_eq!(
            after.0, 0.0,
            "bounded tier {tier} (n = {n}) must be allocation-free on the \
             warmed workspace path (got {} allocs/trial)",
            after.0
        );
    }
    println!();

    // The agreeable DP (§5, here its §7 overhead-aware entry with the
    // best-response block solver): block-task rows, bound terms, the
    // per-prefix table, cuts and runs all come from the workspace pools.
    {
        let agreeable_set = agreeable(&SyntheticConfig::paper(10, Time::from_millis(400.0)), 7);
        let scheme = Scheme::AgreeableOverhead;
        assert_eq!(scheme.resolve(&agreeable_set, &platform), scheme);
        let mut ws = Workspace::new();
        for _ in 0..8 {
            let warm = solve_in(&agreeable_set, &platform, scheme, &mut ws).unwrap();
            ws.recycle_schedule(warm.into_schedule());
        }
        let after = count_per_iter(ITERS, || {
            let s = solve_in(&agreeable_set, &platform, scheme, &mut ws).unwrap();
            std::hint::black_box(&s);
            ws.recycle_schedule(s.into_schedule());
        });
        report("solve_in/AgreeableOverhead n=10 (warmed workspace)", after);
        assert_eq!(
            after.0, 0.0,
            "the agreeable DP must be allocation-free on the warmed \
             workspace path (got {} allocs/trial)",
            after.0
        );
    }
    println!();

    // The federated DAG lean path: LPT packing, window chopping, one
    // analytic solve per busy core and the merged repricing, all through
    // the workspace pools. With one task per core the per-core solves
    // route to the (asserted-zero above) common-release scheme, so this
    // case pins the federated scaffolding itself at zero.
    {
        let deadline = Time::from_millis(400.0);
        let federated_set = |n: usize| {
            TaskSet::new(
                (0..n)
                    .map(|i| {
                        sdem_types::Task::new(
                            i,
                            Time::ZERO,
                            deadline,
                            sdem_types::Cycles::new(2.0e6 + (i % 5) as f64 * 1.0e6),
                        )
                    })
                    .collect(),
            )
            .expect("non-empty set")
        };
        let measure = |set: &TaskSet, cores: usize| {
            let scheme = Scheme::DagFederated(cores);
            let mut ws = Workspace::new();
            for _ in 0..8 {
                let warm = solve_in(set, &platform, scheme, &mut ws).unwrap();
                ws.recycle_schedule(warm.into_schedule());
            }
            count_per_iter(ITERS, || {
                let s = solve_in(set, &platform, scheme, &mut ws).unwrap();
                std::hint::black_box(&s);
                ws.recycle_schedule(s.into_schedule());
            })
        };
        let scaffold = measure(&federated_set(24), 24);
        report(
            "solve_in/DagFederated(24) n=24 (warmed workspace)",
            scaffold,
        );
        assert_eq!(
            scaffold.0, 0.0,
            "the federated scaffolding (pack + chop + merge + reprice) must \
             be allocation-free on the warmed workspace path (got {} \
             allocs/trial)",
            scaffold.0
        );
        // Multi-task cores chop sequential windows, which route the
        // per-core solves (through `Scheme::Auto`) to the agreeable DP.
        let chopped = measure(&federated_set(24), 4);
        report(
            "solve_in/DagFederated(4) n=24 (warmed, agreeable DP)",
            chopped,
        );
        assert_eq!(
            chopped.0, 0.0,
            "the federated path through the agreeable DP must be \
             allocation-free on the warmed workspace path (got {} \
             allocs/trial)",
            chopped.0
        );
    }
    println!();

    let before = count_per_iter(ITERS, || {
        std::hint::black_box(
            run_trial_with_oracle(&sporadic_set, &platform, paper::NUM_CORES, None).unwrap(),
        );
    });
    report("sweep_trial (allocating)", before);

    let mut ws = Workspace::new();
    for _ in 0..8 {
        let _ = run_trial_with_oracle_in(&sporadic_set, &platform, paper::NUM_CORES, None, &mut ws);
    }
    let after = count_per_iter(ITERS, || {
        std::hint::black_box(
            run_trial_with_oracle_in(&sporadic_set, &platform, paper::NUM_CORES, None, &mut ws)
                .unwrap(),
        );
    });
    report("sweep_trial (warmed workspace)", after);
    assert_eq!(
        after.0, 0.0,
        "the full sweep trial (SDEM-ON + MBKP + four meters + report) must \
         be allocation-free on the warmed workspace path (got {} \
         allocs/trial, {} B/trial)",
        after.0, after.1
    );

    // Every solver, meter and sweep path above is instrumented with
    // sdem-obs, so all the numbers measured so far already pin the
    // *disabled* path: one relaxed atomic load per site, no clock reads,
    // no heap traffic. Make that explicit, then show the armed metrics
    // registry adds zero allocations too — recording is atomics into
    // static slots (only the opt-in trace sink allocates, and it stays
    // off here).
    assert!(
        !sdem_obs::registry::enabled() && !sdem_obs::trace::enabled(),
        "the baseline cases must run with observability disabled"
    );
    sdem_obs::registry::reset();
    sdem_obs::registry::set_enabled(true);
    // One warm-up pass registers the histogram label slots.
    let _ = run_trial_with_oracle_in(&sporadic_set, &platform, paper::NUM_CORES, None, &mut ws);
    let metered = count_per_iter(ITERS, || {
        std::hint::black_box(
            run_trial_with_oracle_in(&sporadic_set, &platform, paper::NUM_CORES, None, &mut ws)
                .unwrap(),
        );
    });
    sdem_obs::registry::set_enabled(false);
    report("sweep_trial (warmed workspace, metrics armed)", metered);
    // The warmed baseline is exactly zero, so allow only noise headroom —
    // anything the registry allocated per record would overshoot this by
    // orders of magnitude (a trial records 4+ histogram samples and 10
    // counters).
    assert!(
        metered.0 <= after.0 + 0.5,
        "arming the metrics registry must not add heap traffic \
         ({} vs {} allocs/trial)",
        metered.0,
        after.0
    );
}
