//! Bounded-core SDEM (paper §3, Theorem 1) — the tiered partition solver.
//!
//! With fewer cores than tasks, SDEM is NP-hard even for tasks sharing one
//! release time and one deadline, `α = 0` and `ξ_m = 0`: the reduction from
//! PARTITION shows the optimum is reached exactly at a workload-balanced
//! assignment. This module provides the machinery around that result as
//! three solver tiers over one shared [`sdem_types::Partition`] state:
//!
//! * closed forms — [`partition_energy`] (paper Eq. 2: the optimal shared
//!   busy-interval for a fixed assignment, clamped by the deadline and
//!   `s_up`), [`partition_min_energy`] (paper Eq. 3: the unclamped
//!   optimum) and the convexity [`lower_bound`];
//! * **exact** ([`solve_exact_in`], `n ≤` [`EXACT_LIMIT`]) — canonical
//!   enumeration of all assignments (restricted-growth strings), the
//!   reference oracle the other tiers are measured against (tests and
//!   benches call it; [`Scheme::BoundedExact`](crate::Scheme::BoundedExact)
//!   keeps its limit and errors but is served by the branch-and-bound);
//! * **branch-and-bound** ([`solve_bnb_in`], `n ≤` [`BNB_LIMIT`]) —
//!   best-first depth-first search seeded with the LPT incumbent and
//!   pruned by a water-filling relaxation of Eq. 3; bit-identical to the
//!   enumerator on every instance both accept, raising the practical
//!   exact ceiling;
//! * **LPT + refine** ([`solve_lpt_in`], [`solve_refined_in`], any `n`) —
//!   the polynomial heuristic tier: Longest-Processing-Time-first
//!   assignment, optionally polished by deterministic move/swap local
//!   search on the Σ W_c^λ objective.
//!
//! [`Scheme::BoundedAuto`](crate::Scheme::BoundedAuto) routes an instance
//! to the strongest tier its size admits: exact → B&B → LPT + refine.

use sdem_power::Platform;
use sdem_types::{
    CoreId, Joules, Placement, Schedule, Segment, Speed, Task, TaskId, TaskSet, Time, Workspace,
};

use crate::SdemError;

mod bnb;
mod exact;
mod lpt;
mod refine;

pub use bnb::solve_bnb_in;
pub use exact::solve_exact_in;
pub use lpt::solve_lpt_in;
pub use refine::solve_refined_in;

/// Largest task count [`solve_exact_in`] accepts (the enumeration is
/// exponential; this caps it at a few million assignments).
pub const EXACT_LIMIT: usize = 14;

/// Largest task count [`solve_bnb_in`] accepts. Past [`EXACT_LIMIT`] the
/// search is additionally bounded by a deterministic node budget, so the
/// extended range stays interactive (the incumbent — LPT, improved by
/// every completed subtree — is returned if the budget trips).
pub const BNB_LIMIT: usize = 24;

/// For a fixed partition of the total work into per-core loads `W_c`,
/// returns `(busy_interval, energy)` minimizing (paper Eq. 2)
///
/// ```text
/// E(|I_b|) = Σ_c β W_c^λ |I_b|^{1−λ} + α_m |I_b|
/// ```
///
/// subject to `|I_b| ≤ deadline` and `W_c / |I_b| ≤ s_up`.
///
/// Returns `None` when no feasible interval exists (a load would need more
/// than `s_up` even over the whole deadline).
pub fn partition_energy(
    loads: &[f64],
    platform: &Platform,
    deadline: Time,
) -> Option<(Time, Joules)> {
    let core = platform.core();
    let (beta, lambda) = (core.beta(), core.lambda());
    let alpha_m = platform.memory().alpha_m().value();
    let d = deadline.as_secs();
    let sum_wl: f64 = loads.iter().map(|w| w.powf(lambda)).sum();
    let w_max = loads.iter().cloned().fold(0.0f64, f64::max);
    let lo = w_max / core.max_speed().as_hz();
    if lo > d * (1.0 + 1e-12) {
        return None;
    }
    let interior = if alpha_m > 0.0 && sum_wl > 0.0 {
        (beta * (lambda - 1.0) * sum_wl / alpha_m).powf(1.0 / lambda)
    } else {
        d // free memory: stretch to the deadline
    };
    let t = interior.clamp(lo.min(d), d);
    let dynamic = if sum_wl == 0.0 {
        0.0
    } else {
        beta * sum_wl * t.powf(1.0 - lambda)
    };
    Some((Time::from_secs(t), Joules::new(dynamic + alpha_m * t)))
}

/// Paper Eq. 3 (generalized to any number of loads): the unclamped minimum
/// of Eq. 2,
///
/// ```text
/// E_min = α_m^{(λ−1)/λ} · β^{1/λ} · λ · (λ−1)^{(1−λ)/λ} · (Σ_c W_c^λ)^{1/λ}
/// ```
///
/// Valid when neither the deadline nor `s_up` clamps the interval.
pub fn partition_min_energy(loads: &[f64], platform: &Platform) -> Joules {
    let core = platform.core();
    let (beta, lambda) = (core.beta(), core.lambda());
    let alpha_m = platform.memory().alpha_m().value();
    let sum_wl: f64 = loads.iter().map(|w| w.powf(lambda)).sum();
    Joules::new(
        alpha_m.powf((lambda - 1.0) / lambda)
            * beta.powf(1.0 / lambda)
            * lambda
            * (lambda - 1.0).powf((1.0 - lambda) / lambda)
            * sum_wl.powf(1.0 / lambda),
    )
}

/// Lower bound on the bounded-core optimum: by convexity of `x^λ`, the
/// per-core load vector minimizing `Σ W_c^λ` is the perfectly balanced
/// one, so Eq. 3 at `W_c = W/C` bounds every assignment from below (it is
/// generally unattainable — that is exactly the PARTITION hardness).
pub fn lower_bound(tasks: &TaskSet, platform: &Platform, cores: usize) -> Joules {
    let total = tasks.total_work().value();
    let balanced = vec![total / cores as f64; cores];
    partition_min_energy(&balanced, platform)
}

/// Validates the Theorem 1 instance shape — every task shares one release
/// and one deadline — and returns `(release, deadline − release)`.
pub(crate) fn common_window(tasks: &TaskSet) -> Result<(Time, Time), SdemError> {
    let list = tasks.tasks();
    let r0 = list[0].release();
    let d0 = list[0].deadline();
    if !list.iter().all(|t| t.release() == r0 && t.deadline() == d0) {
        return Err(SdemError::NotCommonRelease);
    }
    Ok((r0, d0 - r0))
}

/// The heaviest task's id — the witness every tier reports when no
/// feasible assignment exists. `max_by` keeps the *last* maximal element,
/// pinning the historical choice of witness among duplicate works.
fn heaviest_task(list: &[Task]) -> TaskId {
    list.iter()
        .max_by(|a, b| a.work().value().total_cmp(&b.work().value()))
        .expect("non-empty")
        .id()
}

/// The LPT total order over task indices: decreasing work, increasing
/// index. The index tiebreak makes the comparator total, so the unstable
/// sort is a deterministic function of the works (equal to a stable sort
/// by work alone). The LPT greedy, the B&B branching order and the refine
/// tier's per-core member lists all use this one order.
pub(crate) fn lpt_order_into(works: &[f64], out: &mut Vec<usize>) {
    out.clear();
    out.extend(0..works.len());
    out.sort_unstable_by(|&a, &b| works[b].total_cmp(&works[a]).then(a.cmp(&b)));
}

/// Assembles the §3 schedule for a fixed assignment: each core runs its
/// tasks back-to-back over `[r0, r0 + interval]` at the shared speed
/// `loads[c] / interval`. `loads` must cover every core index appearing
/// in `assignment`; the caller chooses the accumulation (LPT keeps its
/// historical insertion-order sums, exact/B&B/refine pass canonical
/// index-order sums).
fn assemble_schedule(
    list: &[Task],
    assignment: &[usize],
    loads: &[f64],
    interval: Time,
    r0: Time,
    ws: &mut Workspace,
) -> Schedule {
    let mut cursor = ws.take_f64s();
    cursor.resize(loads.len(), 0.0);
    let mut placements = ws.take_placements();
    for (k, t) in list.iter().enumerate() {
        let c = assignment[k];
        let mut segments = ws.take_segments();
        let w = t.work().value();
        if w > 0.0 {
            let speed = loads[c] / interval.as_secs();
            let len = w / speed;
            let start = r0 + Time::from_secs(cursor[c]);
            cursor[c] += len;
            segments.push(Segment::new(
                start,
                start + Time::from_secs(len),
                Speed::from_hz(speed),
            ));
        }
        placements.push(Placement::new(t.id(), CoreId(c), segments));
    }
    ws.recycle_f64s(cursor);
    Schedule::new(placements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_power::{CorePower, MemoryPower};
    use sdem_sim::{simulate, SleepPolicy};
    use sdem_types::{Cycles, Task, Watts};

    fn sec(v: f64) -> Time {
        Time::from_secs(v)
    }

    fn platform(alpha_m: f64) -> Platform {
        Platform::new(
            CorePower::simple(0.0, 1.0, 3.0),
            MemoryPower::new(Watts::new(alpha_m)),
        )
    }

    fn tset(works: &[f64], d: f64) -> TaskSet {
        TaskSet::new(
            works
                .iter()
                .enumerate()
                .map(|(i, &w)| Task::new(i, sec(0.0), sec(d), Cycles::new(w)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn eq2_and_eq3_agree_at_the_unclamped_optimum() {
        let p = platform(4.0);
        let loads = [3.0, 2.5];
        let (t, e) = partition_energy(&loads, &p, sec(1.0e9)).unwrap();
        let closed = partition_min_energy(&loads, &p);
        assert!(
            (e.value() - closed.value()).abs() < 1e-9 * closed.value(),
            "Eq.2 at optimum {} vs Eq.3 {}",
            e.value(),
            closed.value()
        );
        // Eq. 2's interior optimum formula directly:
        let expected_t = (1.0f64 * 2.0 * (27.0 + 15.625) / 4.0).powf(1.0 / 3.0);
        assert!((t.as_secs() - expected_t).abs() < 1e-9);
    }

    #[test]
    fn deadline_clamps_the_interval() {
        let p = platform(1e-6); // nearly-free memory wants a huge interval
        let loads = [2.0, 2.0];
        let (t, _) = partition_energy(&loads, &p, sec(3.0)).unwrap();
        assert!((t.as_secs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn speed_cap_clamps_the_interval() {
        let core = CorePower::simple(0.0, 1.0, 3.0).with_max_speed(sdem_types::Speed::from_hz(2.0));
        let p = Platform::new(core, MemoryPower::new(Watts::new(1e9)));
        let loads = [6.0, 2.0];
        let (t, _) = partition_energy(&loads, &p, sec(10.0)).unwrap();
        assert!((t.as_secs() - 3.0).abs() < 1e-9, "lo = 6/2 = 3, got {t}");
        // Infeasible when even the deadline is too short.
        assert!(partition_energy(&loads, &p, sec(2.0)).is_none());
    }

    #[test]
    fn partition_instance_balances_loads() {
        // PARTITION instance {3, 2, 1, 2}: balanced split 4/4 must win.
        let p = platform(4.0);
        let tasks = tset(&[3.0, 2.0, 1.0, 2.0], 100.0);
        let sol = solve_exact_in(&tasks, &p, 2, &mut Workspace::new()).unwrap();
        sol.schedule().validate(&tasks).unwrap();
        // Recover the loads from the schedule.
        let mut loads = [0.0f64; 2];
        for pl in sol.schedule().placements() {
            loads[pl.core().0] += pl.executed_work().value();
        }
        loads.sort_by(f64::total_cmp);
        assert!(
            (loads[0] - 4.0).abs() < 1e-9 && (loads[1] - 4.0).abs() < 1e-9,
            "expected balanced 4/4, got {loads:?}"
        );
        // And the energy matches Eq. 3 for the balanced split.
        let closed = partition_min_energy(&[4.0, 4.0], &p);
        assert!((sol.predicted_energy().value() - closed.value()).abs() < 1e-9 * closed.value());
    }

    #[test]
    fn exact_matches_simulation() {
        let p = platform(2.0);
        let tasks = tset(&[3.0, 2.0, 1.5], 50.0);
        let sol = solve_exact_in(&tasks, &p, 2, &mut Workspace::new()).unwrap();
        let report = simulate(sol.schedule(), &tasks, &p, SleepPolicy::WhenProfitable).unwrap();
        assert!(
            (report.total().value() - sol.predicted_energy().value()).abs()
                < 1e-9 * sol.predicted_energy().value(),
            "sim {} vs predicted {}",
            report.total(),
            sol.predicted_energy()
        );
    }

    #[test]
    fn more_cores_never_hurt() {
        let p = platform(3.0);
        let tasks = tset(&[3.0, 2.0, 1.0, 1.0, 0.5], 100.0);
        let mut prev = f64::INFINITY;
        for cores in 1..=5 {
            let e = solve_exact_in(&tasks, &p, cores, &mut Workspace::new())
                .unwrap()
                .predicted_energy()
                .value();
            assert!(e <= prev * (1.0 + 1e-12), "cores {cores}: {e} > {prev}");
            prev = e;
        }
    }

    #[test]
    fn unbounded_cores_match_common_release_scheme() {
        // With cores ≥ n and a common deadline, the bounded solver must
        // agree with the §4.1 scheme (cut = singleton-per-core case).
        let p = platform(4.0);
        let tasks = tset(&[3.0, 2.0, 1.0], 100.0);
        let a = solve_exact_in(&tasks, &p, 3, &mut Workspace::new()).unwrap();
        let b = crate::common_release::schedule_alpha_zero_in(&tasks, &p, &mut Workspace::new())
            .unwrap();
        assert!(
            (a.predicted_energy().value() - b.predicted_energy().value()).abs()
                < 1e-9 * b.predicted_energy().value(),
            "bounded {} vs §4.1 {}",
            a.predicted_energy(),
            b.predicted_energy()
        );
    }

    #[test]
    fn guards() {
        let p = platform(1.0);
        let tasks = tset(&[1.0; 15], 10.0);
        assert!(matches!(
            solve_exact_in(&tasks, &p, 2, &mut Workspace::new()),
            Err(SdemError::TooLarge { tasks: 15, .. })
        ));
        let tasks = tset(&[1.0], 10.0);
        assert_eq!(
            solve_exact_in(&tasks, &p, 0, &mut Workspace::new()),
            Err(SdemError::NoCores)
        );
        let mixed = TaskSet::new(vec![
            Task::new(0, sec(0.0), sec(5.0), Cycles::new(1.0)),
            Task::new(1, sec(0.0), sec(6.0), Cycles::new(1.0)),
        ])
        .unwrap();
        assert_eq!(
            solve_exact_in(&mixed, &p, 2, &mut Workspace::new()),
            Err(SdemError::NotCommonRelease)
        );
    }

    #[test]
    fn bnb_guards() {
        let p = platform(1.0);
        let mut ws = Workspace::new();
        let tasks = tset(&[1.0; 25], 10.0);
        assert!(matches!(
            solve_bnb_in(&tasks, &p, 2, &mut ws),
            Err(SdemError::TooLarge { tasks: 25, .. })
        ));
        let tasks = tset(&[1.0], 10.0);
        assert_eq!(
            solve_bnb_in(&tasks, &p, 0, &mut ws),
            Err(SdemError::NoCores)
        );
        let mixed = TaskSet::new(vec![
            Task::new(0, sec(0.0), sec(5.0), Cycles::new(1.0)),
            Task::new(1, sec(0.0), sec(6.0), Cycles::new(1.0)),
        ])
        .unwrap();
        assert_eq!(
            solve_bnb_in(&mixed, &p, 2, &mut ws),
            Err(SdemError::NotCommonRelease)
        );
    }

    #[test]
    fn refine_guards() {
        let p = platform(1.0);
        let mut ws = Workspace::new();
        let tasks = tset(&[1.0], 10.0);
        assert_eq!(
            solve_refined_in(&tasks, &p, 0, &mut ws),
            Err(SdemError::NoCores)
        );
        let mixed = TaskSet::new(vec![
            Task::new(0, sec(0.0), sec(5.0), Cycles::new(1.0)),
            Task::new(1, sec(0.0), sec(6.0), Cycles::new(1.0)),
        ])
        .unwrap();
        assert_eq!(
            solve_refined_in(&mixed, &p, 2, &mut ws),
            Err(SdemError::NotCommonRelease)
        );
    }

    #[test]
    fn bnb_matches_exact_bitwise_on_shared_range() {
        let p = platform(4.0);
        let mut ws = Workspace::new();
        for works in [
            vec![3.0, 2.0, 1.0, 2.0],
            vec![5.0, 4.0, 3.0, 2.0, 1.0, 1.0],
            vec![1.0, 1.0, 1.0, 1.0, 1.0],
            vec![7.0, 1.0, 1.0, 1.0],
            vec![2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0],
        ] {
            let tasks = tset(&works, 500.0);
            for cores in [1usize, 2, 3] {
                let a = solve_exact_in(&tasks, &p, cores, &mut ws).unwrap();
                let b = solve_bnb_in(&tasks, &p, cores, &mut ws).unwrap();
                assert_eq!(
                    a.predicted_energy().value().to_bits(),
                    b.predicted_energy().value().to_bits(),
                    "energy bits diverge on {works:?} cores {cores}"
                );
                assert_eq!(
                    a.schedule(),
                    b.schedule(),
                    "schedules diverge on {works:?} cores {cores}"
                );
            }
        }
    }

    #[test]
    fn bnb_extends_past_the_exact_ceiling() {
        // 18 tasks: TooLarge for the enumerator, in range for the B&B.
        let p = platform(4.0);
        let mut ws = Workspace::new();
        let works: Vec<f64> = (0..18).map(|i| 1.0 + (i % 5) as f64).collect();
        let tasks = tset(&works, 500.0);
        assert!(matches!(
            solve_exact_in(&tasks, &p, 3, &mut ws),
            Err(SdemError::TooLarge { .. })
        ));
        let sol = solve_bnb_in(&tasks, &p, 3, &mut ws).unwrap();
        sol.schedule().validate(&tasks).unwrap();
        let lb = lower_bound(&tasks, &p, 3);
        let lpt = solve_lpt_in(&tasks, &p, 3, &mut ws).unwrap();
        assert!(sol.predicted_energy().value() >= lb.value() * (1.0 - 1e-9));
        assert!(
            sol.predicted_energy().value() <= lpt.predicted_energy().value() * (1.0 + 1e-12),
            "B&B worse than its own LPT incumbent"
        );
    }

    #[test]
    fn refine_never_worse_than_lpt() {
        let p = platform(3.0);
        let mut ws = Workspace::new();
        // An adversarial LPT instance: works {3, 3, 2, 2, 2} on 2 cores.
        // LPT stacks 7/5; swapping a 3 against a 2 reaches the optimal
        // 6/6 balance, so refine must strictly improve here.
        let tasks = tset(&[3.0, 3.0, 2.0, 2.0, 2.0], 500.0);
        let lpt = solve_lpt_in(&tasks, &p, 2, &mut ws).unwrap();
        let refined = solve_refined_in(&tasks, &p, 2, &mut ws).unwrap();
        refined.schedule().validate(&tasks).unwrap();
        assert!(
            refined.predicted_energy().value() < lpt.predicted_energy().value(),
            "refine failed to improve LPT: {} vs {}",
            refined.predicted_energy(),
            lpt.predicted_energy()
        );
        // The swap neighborhood finds the perfect 6/6 balance.
        let exact = solve_exact_in(&tasks, &p, 2, &mut ws).unwrap();
        assert!(
            (refined.predicted_energy().value() - exact.predicted_energy().value()).abs()
                < 1e-9 * exact.predicted_energy().value(),
            "refined {} vs exact {}",
            refined.predicted_energy(),
            exact.predicted_energy()
        );
    }

    #[test]
    fn lpt_brackets_between_exact_and_lower_bound() {
        let p = platform(3.0);
        for works in [
            vec![3.0, 2.0, 1.0, 2.0],
            vec![5.0, 4.0, 3.0, 2.0, 1.0, 1.0],
            vec![1.0, 1.0, 1.0, 1.0, 1.0],
            vec![7.0, 1.0, 1.0, 1.0],
        ] {
            let tasks = tset(&works, 500.0);
            for cores in [2usize, 3] {
                let exact = solve_exact_in(&tasks, &p, cores, &mut Workspace::new())
                    .unwrap()
                    .predicted_energy();
                let lpt = solve_lpt_in(&tasks, &p, cores, &mut Workspace::new()).unwrap();
                lpt.schedule().validate(&tasks).unwrap();
                let lb = lower_bound(&tasks, &p, cores);
                assert!(
                    lpt.predicted_energy().value() >= exact.value() * (1.0 - 1e-9),
                    "LPT beat the exact optimum on {works:?}"
                );
                assert!(
                    exact.value() >= lb.value() * (1.0 - 1e-9),
                    "exact below the convexity lower bound on {works:?}"
                );
                // LPT's load imbalance is mild: within 20% of exact here.
                assert!(
                    lpt.predicted_energy().value() <= exact.value() * 1.2,
                    "LPT unexpectedly poor on {works:?}: {} vs {}",
                    lpt.predicted_energy().value(),
                    exact.value()
                );
            }
        }
    }

    #[test]
    fn lpt_matches_exact_on_partitionable_instances() {
        // {3,3,2,2,1,1} splits 6/6 and LPT finds it.
        let p = platform(4.0);
        let tasks = tset(&[3.0, 3.0, 2.0, 2.0, 1.0, 1.0], 500.0);
        let exact = solve_exact_in(&tasks, &p, 2, &mut Workspace::new())
            .unwrap()
            .predicted_energy();
        let lpt = solve_lpt_in(&tasks, &p, 2, &mut Workspace::new())
            .unwrap()
            .predicted_energy();
        assert!((exact.value() - lpt.value()).abs() < 1e-9 * exact.value());
    }

    #[test]
    fn lpt_guards() {
        let p = platform(1.0);
        let tasks = tset(&[1.0], 10.0);
        assert_eq!(
            solve_lpt_in(&tasks, &p, 0, &mut Workspace::new()),
            Err(SdemError::NoCores)
        );
        let mixed = TaskSet::new(vec![
            Task::new(0, sec(0.0), sec(5.0), Cycles::new(1.0)),
            Task::new(1, sec(0.0), sec(6.0), Cycles::new(1.0)),
        ])
        .unwrap();
        assert_eq!(
            solve_lpt_in(&mixed, &p, 2, &mut Workspace::new()),
            Err(SdemError::NotCommonRelease)
        );
    }

    #[test]
    fn infeasible_when_too_dense() {
        let core = CorePower::simple(0.0, 1.0, 3.0).with_max_speed(sdem_types::Speed::from_hz(1.0));
        let p = Platform::new(core, MemoryPower::new(Watts::new(1.0)));
        // Two cores, three unit tasks, deadline 1: some core gets ≥ 2 work.
        let tasks = tset(&[1.0, 1.0, 1.0], 1.0);
        assert!(matches!(
            solve_exact_in(&tasks, &p, 2, &mut Workspace::new()),
            Err(SdemError::InfeasibleTask(_))
        ));
        // Every tier agrees the instance is hopeless.
        let mut ws = Workspace::new();
        assert!(matches!(
            solve_bnb_in(&tasks, &p, 2, &mut ws),
            Err(SdemError::InfeasibleTask(_))
        ));
        assert!(matches!(
            solve_refined_in(&tasks, &p, 2, &mut ws),
            Err(SdemError::InfeasibleTask(_))
        ));
        assert!(matches!(
            solve_lpt_in(&tasks, &p, 2, &mut ws),
            Err(SdemError::InfeasibleTask(_))
        ));
    }
}
