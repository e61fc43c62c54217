//! Property suite for the bounded-core solver tiers (paper §3).
//!
//! Seeded SplitMix64 instance pools (220 task sets across the suite) pin
//! the contracts between the tiers:
//!
//! * the branch-and-bound is **bit-identical** to the exact enumerator on
//!   every instance both accept — same energy bits, same schedule;
//! * when the exact tier proves infeasibility, every tier agrees;
//! * on large instances the refined tier lands between the convexity
//!   lower bound and its own LPT starting point;
//! * LPT is a deterministic function of the (work, index) pairs even when
//!   works collide — the unstable sort's index tiebreak makes it equal to
//!   a stable sort by work alone;
//! * `Scheme::BoundedExact`, which the branch-and-bound serves, returns
//!   the enumerator's bits, errors and infeasibility witnesses, and keeps
//!   the enumerator's precondition order and size limit.

use sdem_core::bounded::{
    lower_bound, solve_bnb_in, solve_exact_in, solve_lpt_in, solve_refined_in, EXACT_LIMIT,
};
use sdem_core::{solve, solve_in, Scheme, SdemError, Solution};
use sdem_power::{CorePower, MemoryPower, Platform};
use sdem_prng::{Rng, SeedableRng, SplitMix64};
use sdem_types::{Cycles, Task, TaskSet, Time, Watts, Workspace};

fn platform(alpha_m: f64) -> Platform {
    Platform::new(
        CorePower::simple(0.0, 1.0, 3.0),
        MemoryPower::new(Watts::new(alpha_m)),
    )
}

/// Like [`platform`] but with a hard speed cap, so dense instances can
/// actually be infeasible (uncapped cores always catch up by sprinting).
fn capped_platform(alpha_m: f64, s_up: f64) -> Platform {
    Platform::new(
        CorePower::simple(0.0, 1.0, 3.0).with_max_speed(sdem_types::Speed::from_hz(s_up)),
        MemoryPower::new(Watts::new(alpha_m)),
    )
}

fn tset(works: &[f64], deadline: f64) -> TaskSet {
    TaskSet::new(
        works
            .iter()
            .enumerate()
            .map(|(i, &w)| Task::new(i, Time::ZERO, Time::from_secs(deadline), Cycles::new(w)))
            .collect(),
    )
    .expect("non-empty seeded set")
}

/// Seeded works with deliberate duplicates: halves in 0.5..8.0, so equal
/// works across different indices are common and the tie-break paths run.
fn seeded_works(n: usize, rng: &mut SplitMix64) -> Vec<f64> {
    (0..n)
        .map(|_| (rng.gen_range(1.0..16.0) as u64) as f64 * 0.5)
        .map(|w| w.max(0.5))
        .collect()
}

#[test]
fn bnb_is_bitwise_identical_to_exact_on_seeded_sets() {
    let mut rng = SplitMix64::seed_from_u64(0xB0B);
    let mut ws = Workspace::new();
    let mut feasible = 0usize;
    let mut infeasible = 0usize;
    for i in 0..100usize {
        let n = 2 + (rng.next_u64() % 8) as usize; // 2..=9 ≤ EXACT_LIMIT
        let works = seeded_works(n, &mut rng);
        // A mix of generous and tight windows: tight ones clamp Eq. 2 at
        // the deadline (exercising the clamped bound branch) and some are
        // outright infeasible.
        let deadline = rng.gen_range(2.0..50.0);
        let tasks = tset(&works, deadline);
        let p = capped_platform(if i % 5 == 0 { 0.0 } else { 4.0 }, 1.5);
        let cores = 1 + i % 3;
        let a = solve_exact_in(&tasks, &p, cores, &mut ws);
        let b = solve_bnb_in(&tasks, &p, cores, &mut ws);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                feasible += 1;
                assert_eq!(
                    a.predicted_energy().value().to_bits(),
                    b.predicted_energy().value().to_bits(),
                    "energy bits diverge: set {i}, works {works:?}, cores {cores}"
                );
                assert_eq!(
                    a.schedule(),
                    b.schedule(),
                    "schedules diverge: set {i}, works {works:?}, cores {cores}"
                );
            }
            (Err(ea), Err(eb)) => {
                infeasible += 1;
                assert_eq!(
                    ea, eb,
                    "error disagreement: set {i}, works {works:?}, cores {cores}"
                );
            }
            (a, b) => panic!(
                "feasibility disagreement: set {i}, works {works:?}, cores {cores}: \
                 exact {a:?} vs bnb {b:?}"
            ),
        }
    }
    // The pool must actually exercise both outcomes.
    assert!(feasible >= 30, "only {feasible} feasible sets drawn");
    assert!(infeasible >= 5, "only {infeasible} infeasible sets drawn");
}

#[test]
fn refined_brackets_between_lower_bound_and_lpt_on_large_sets() {
    let mut rng = SplitMix64::seed_from_u64(0x1A26E);
    let mut ws = Workspace::new();
    for i in 0..60usize {
        let n = 100 + (rng.next_u64() % 700) as usize;
        let works = seeded_works(n, &mut rng);
        let tasks = tset(&works, 1.0e4);
        let p = platform(4.0);
        let cores = if i % 2 == 0 { 8 } else { 16 };
        let lpt = solve_lpt_in(&tasks, &p, cores, &mut ws)
            .expect("generous window is feasible")
            .predicted_energy()
            .value();
        let refined = solve_refined_in(&tasks, &p, cores, &mut ws)
            .expect("generous window is feasible")
            .predicted_energy()
            .value();
        let lb = lower_bound(&tasks, &p, cores).value();
        assert!(
            refined >= lb * (1.0 - 1e-9),
            "set {i}: refined {refined} below the lower bound {lb}"
        );
        assert!(
            refined <= lpt * (1.0 + 1e-9),
            "set {i}: refined {refined} worse than its LPT start {lpt}"
        );
    }
}

#[test]
fn infeasibility_agreement_on_dense_sets() {
    // Dense instances around the capacity edge: whenever the enumerator
    // proves there is no feasible assignment, every other tier must fail
    // too (the heuristics may additionally fail on feasible instances,
    // but never the other way around for the exact pair).
    let mut rng = SplitMix64::seed_from_u64(0xDE5E);
    let mut ws = Workspace::new();
    let mut proved_infeasible = 0usize;
    for i in 0..40usize {
        let n = 3 + (rng.next_u64() % 6) as usize;
        let works = seeded_works(n, &mut rng);
        let total: f64 = works.iter().sum();
        let cores = 2;
        // Deadline near total/(cores·s_up): half the draws land under the
        // feasibility threshold even for a perfect split.
        let deadline = rng.gen_range(0.8..1.2) * total / (cores as f64 * 3.0);
        let tasks = tset(&works, deadline);
        let p = capped_platform(4.0, 3.0);
        if let Err(e) = solve_exact_in(&tasks, &p, cores, &mut ws) {
            assert!(matches!(e, SdemError::InfeasibleTask(_)), "set {i}: {e:?}");
            proved_infeasible += 1;
            for (tier, result) in [
                ("bnb", solve_bnb_in(&tasks, &p, cores, &mut ws)),
                ("lpt", solve_lpt_in(&tasks, &p, cores, &mut ws)),
                ("refined", solve_refined_in(&tasks, &p, cores, &mut ws)),
            ] {
                assert!(
                    matches!(result, Err(SdemError::InfeasibleTask(_))),
                    "set {i}: exact proved infeasibility but {tier} returned {result:?}"
                );
            }
        }
    }
    assert!(
        proved_infeasible >= 10,
        "only {proved_infeasible} infeasible sets drawn"
    );
}

#[test]
fn lpt_is_deterministic_under_duplicate_works() {
    // Satellite: LPT's sort is unstable, so without the index tiebreak
    // equal works could land in platform-dependent order. Pin the fixed
    // semantics: LPT equals the greedy driven by a *stable* sort on work
    // alone (stability supplies the same index-ascending tie order).
    let mut rng = SplitMix64::seed_from_u64(0xD0D5);
    let mut ws = Workspace::new();
    for i in 0..20usize {
        let n = 6 + (rng.next_u64() % 40) as usize;
        // Works drawn from three values only: ties everywhere.
        let works: Vec<f64> = (0..n)
            .map(|_| [1.0, 2.0, 4.0][(rng.next_u64() % 3) as usize])
            .collect();
        let tasks = tset(&works, 1.0e3);
        let p = platform(4.0);
        let cores = 2 + i % 3;
        let sol = solve_lpt_in(&tasks, &p, cores, &mut ws).expect("feasible");
        let again = solve_lpt_in(&tasks, &p, cores, &mut ws).expect("feasible");
        assert_eq!(sol.schedule(), again.schedule(), "set {i}: LPT not stable");
        assert_eq!(
            sol.predicted_energy().value().to_bits(),
            again.predicted_energy().value().to_bits()
        );

        // Reference greedy from a stable sort by descending work.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| works[b].total_cmp(&works[a]));
        let mut loads = vec![0.0f64; cores];
        let mut assignment = vec![0usize; n];
        for &k in &order {
            let c = (0..cores)
                .min_by(|&x, &y| loads[x].total_cmp(&loads[y]))
                .expect("cores > 0");
            assignment[k] = c;
            loads[c] += works[k];
        }
        // Same placement core per task id as the solver's schedule.
        for pl in sol.schedule().placements() {
            assert_eq!(
                pl.core().0,
                assignment[pl.task().0],
                "set {i}: task {} diverges from the stable-sort reference",
                pl.task().0
            );
        }
    }
}

#[test]
fn bnb_energy_extends_monotonically_past_the_exact_ceiling() {
    // Between EXACT_LIMIT and BNB_LIMIT the B&B is the only exact tier;
    // sanity-pin it against the bracket [lower_bound, LPT] there.
    let mut rng = SplitMix64::seed_from_u64(0xCE11);
    let mut ws = Workspace::new();
    for i in 0..8usize {
        let n = EXACT_LIMIT + 1 + (rng.next_u64() % 6) as usize;
        let works = seeded_works(n, &mut rng);
        let tasks = tset(&works, 200.0);
        let p = platform(4.0);
        let cores = 2 + i % 2;
        let bnb = solve_bnb_in(&tasks, &p, cores, &mut ws)
            .expect("generous window is feasible")
            .predicted_energy()
            .value();
        let lpt = solve_lpt_in(&tasks, &p, cores, &mut ws)
            .expect("generous window is feasible")
            .predicted_energy()
            .value();
        let lb = lower_bound(&tasks, &p, cores).value();
        assert!(bnb >= lb * (1.0 - 1e-9), "set {i}: bnb {bnb} below lb {lb}");
        assert!(
            bnb <= lpt * (1.0 + 1e-12),
            "set {i}: bnb {bnb} worse than LPT {lpt}"
        );
    }
}

/// The instances of the two seeded exact-range pools above, redrawn with
/// their draw sequences: the `0xB0B` bit-identity pool and the `0xDE5E`
/// dense pool. Returns `(tasks, platform, pool core count)`.
fn exact_range_pools() -> Vec<(TaskSet, Platform, usize)> {
    let mut pool = Vec::new();
    let mut rng = SplitMix64::seed_from_u64(0xB0B);
    for i in 0..100usize {
        let n = 2 + (rng.next_u64() % 8) as usize;
        let works = seeded_works(n, &mut rng);
        let deadline = rng.gen_range(2.0..50.0);
        let p = capped_platform(if i % 5 == 0 { 0.0 } else { 4.0 }, 1.5);
        pool.push((tset(&works, deadline), p, 1 + i % 3));
    }
    let mut rng = SplitMix64::seed_from_u64(0xDE5E);
    for _ in 0..40usize {
        let n = 3 + (rng.next_u64() % 6) as usize;
        let works = seeded_works(n, &mut rng);
        let total: f64 = works.iter().sum();
        let deadline = rng.gen_range(0.8..1.2) * total / (2.0 * 3.0);
        pool.push((tset(&works, deadline), capped_platform(4.0, 3.0), 2));
    }
    pool
}

/// Asserts two solutions are bitwise equal: energy, memory sleep, and
/// every placement's task, core and segment bits.
fn assert_bitwise_equal(a: &Solution, b: &Solution, ctx: &str) {
    assert_eq!(
        a.predicted_energy().value().to_bits(),
        b.predicted_energy().value().to_bits(),
        "energy bits: {ctx}"
    );
    assert_eq!(
        a.memory_sleep().value().to_bits(),
        b.memory_sleep().value().to_bits(),
        "memory sleep bits: {ctx}"
    );
    let (pa, pb) = (a.schedule().placements(), b.schedule().placements());
    assert_eq!(pa.len(), pb.len(), "placement count: {ctx}");
    for (x, y) in pa.iter().zip(pb) {
        assert_eq!(
            (x.task(), x.core()),
            (y.task(), y.core()),
            "placement: {ctx}"
        );
        let bits = |p: &sdem_types::Placement| -> Vec<[u64; 3]> {
            p.segments()
                .iter()
                .map(|s| {
                    [
                        s.start().as_secs().to_bits(),
                        s.end().as_secs().to_bits(),
                        s.speed().as_hz().to_bits(),
                    ]
                })
                .collect()
        };
        assert_eq!(bits(x), bits(y), "segments of {:?}: {ctx}", x.task());
    }
}

#[test]
fn bounded_exact_scheme_is_bitwise_the_enumerator() {
    let mut ws = Workspace::new();
    let mut warm = Workspace::new();
    let (mut feasible, mut infeasible) = (0usize, 0usize);
    for (i, (tasks, p, pool_cores)) in exact_range_pools().iter().enumerate() {
        let n = tasks.len();
        // One core, the pool's own count, exactly n and more than n.
        for cores in [1, *pool_cores, n, n + 3] {
            let ctx = format!("set {i}, n {n}, cores {cores}");
            let oracle = solve_exact_in(tasks, p, cores, &mut ws);
            let fresh = solve(tasks, p, Scheme::BoundedExact(cores));
            let reused = solve_in(tasks, p, Scheme::BoundedExact(cores), &mut warm);
            match (oracle, fresh, reused) {
                (Ok(a), Ok(b), Ok(c)) => {
                    feasible += 1;
                    assert_bitwise_equal(&a, &b, &ctx);
                    assert_bitwise_equal(&a, &c, &ctx);
                    warm.recycle_schedule(c.into_schedule());
                }
                (Err(a), Err(b), Err(c)) => {
                    infeasible += 1;
                    assert!(matches!(a, SdemError::InfeasibleTask(_)), "{ctx}: {a:?}");
                    assert_eq!(a, b, "error and witness: {ctx}");
                    assert_eq!(a, c, "error and witness: {ctx}");
                }
                (a, b, c) => panic!("outcomes differ: {ctx}: {a:?} / {b:?} / {c:?}"),
            }
        }
    }
    assert!(feasible >= 200, "only {feasible} feasible cases");
    assert!(infeasible >= 40, "only {infeasible} infeasible cases");
}

#[test]
fn bounded_exact_scheme_keeps_the_enumerator_preconditions() {
    let p = platform(4.0);
    let mut ws = Workspace::new();
    let at_limit = tset(&[1.0; EXACT_LIMIT], 100.0);
    let past_limit = tset(&[1.0; EXACT_LIMIT + 1], 100.0);
    let too_large = SdemError::TooLarge {
        tasks: EXACT_LIMIT + 1,
        limit: EXACT_LIMIT,
    };
    for (tasks, cores) in [(&at_limit, 0), (&past_limit, 0), (&past_limit, 4)] {
        assert_eq!(
            solve(tasks, &p, Scheme::BoundedExact(cores)).unwrap_err(),
            solve_exact_in(tasks, &p, cores, &mut ws).unwrap_err(),
            "n {}, cores {cores}",
            tasks.len()
        );
    }
    // No cores is checked before size, as in the enumerator.
    assert_eq!(
        solve(&past_limit, &p, Scheme::BoundedExact(0)).unwrap_err(),
        SdemError::NoCores
    );
    assert_eq!(
        solve(&past_limit, &p, Scheme::BoundedExact(4)).unwrap_err(),
        too_large
    );
    // Shape errors still come from the common-window check.
    let staggered = TaskSet::new(vec![
        Task::new(0, Time::ZERO, Time::from_secs(10.0), Cycles::new(1.0)),
        Task::new(
            1,
            Time::from_secs(1.0),
            Time::from_secs(10.0),
            Cycles::new(1.0),
        ),
    ])
    .unwrap();
    assert_eq!(
        solve(&staggered, &p, Scheme::BoundedExact(2)).unwrap_err(),
        solve_exact_in(&staggered, &p, 2, &mut ws).unwrap_err()
    );
    assert!(solve(&at_limit, &p, Scheme::BoundedExact(4)).is_ok());
}
