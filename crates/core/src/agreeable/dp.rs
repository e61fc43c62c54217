//! Dynamic programming over deadline-ordered blocks (§5.1.2 / §5.2.2).
//!
//! Lemma 4: some optimal solution never schedules an earlier-deadline task
//! in a later block, so blocks are *contiguous ranges* of the
//! deadline-sorted task list and
//!
//! ```text
//! OPT(T_q) = min_{p ≤ q} { OPT(T_p) + E_min(T_{p+1} … T_q) (+ α_m·ξ_m) }
//! ```
//!
//! The transition charge `α_m·ξ_m` prices the memory sleep/wake round trip
//! between consecutive blocks (§7's revised DP); it is applied per *gap*
//! (one less than the paper's per-block count — a constant offset that
//! cannot change the argmin; see the `sdem-sim` crate docs). With
//! `ξ_m = 0` (the §5 assumption) the recurrence is exactly the paper's.

use sdem_power::Platform;
use sdem_types::{CoreId, Joules, Placement, Schedule, Segment, Speed, TaskSet, Time, Workspace};

use super::block::BlockSolution;
use super::{algorithm1, block, lemma3, prepare_in, BlockTask, PowerParams};
use crate::{SdemError, Solution};

/// Which block solver backs the DP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockSolverKind {
    /// The jointly-convex best-response minimization (production default).
    #[default]
    BestResponse,
    /// The paper's `(i, j)`-cell decomposition with the five-step iterative
    /// scheme of Algorithm 1 (§5.2.1). Slower; kept for fidelity and as an
    /// ablation baseline.
    PaperIterative,
    /// The §5.1.1 closed forms (Lemma 3, first-order conditions by
    /// bisection). Only valid for the `α = 0` model.
    PaperClosedForm,
}

/// The agreeable-deadline optimal scheme (generic over `α`): DP over blocks
/// with the default block solver. This is both §5.1 and §5.2:
///
/// * with `platform.core().alpha() == 0` (§5.1, negligible core static
///   power) the block objective reduces exactly to Eq. 12–14 of the paper;
/// * with `α ≠ 0` (§5.2, core sleeping) the block objective is the
///   best-response envelope whose flat region corresponds to the paper's
///   *Type-I* tasks running at the critical speed `s₀`.
///
/// DP scratch and the returned schedule's arenas come from `ws`. The O(n²)
/// table of per-range block solutions still allocates (each
/// `BlockSolution` owns its run list); only the fixed-shape buffers are
/// pooled. [`Scheme::Agreeable`](crate::Scheme::Agreeable) dispatches here.
///
/// # Errors
///
/// [`SdemError::NotAgreeable`] for non-agreeable task sets,
/// [`SdemError::InfeasibleTask`] when a task exceeds `s_up`.
///
/// # Examples
///
/// ```
/// use sdem_core::{solve, Scheme};
/// use sdem_power::Platform;
/// use sdem_types::{Task, TaskSet, Time, Cycles};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::paper_defaults();
/// let tasks = TaskSet::new(vec![
///     Task::new(0, Time::ZERO, Time::from_millis(30.0), Cycles::new(6.0e6)),
///     Task::new(1, Time::from_millis(50.0), Time::from_millis(110.0), Cycles::new(9.0e6)),
/// ])?;
/// let sol = solve(&tasks, &platform, Scheme::Agreeable)?;
/// sol.schedule().validate(&tasks)?;
/// # Ok(())
/// # }
/// ```
pub fn schedule_in(
    tasks: &TaskSet,
    platform: &Platform,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    schedule_impl(tasks, platform, BlockSolverKind::BestResponse, false, ws)
}

/// The agreeable DP with an explicit block-solver choice.
///
/// # Errors
///
/// Same as [`schedule_in`].
pub fn schedule_with_solver(
    tasks: &TaskSet,
    platform: &Platform,
    solver: BlockSolverKind,
) -> Result<Solution, SdemError> {
    schedule_impl(tasks, platform, solver, false, &mut Workspace::new())
}

/// In-place [`schedule_with_solver`].
///
/// # Errors
///
/// Same as [`schedule_in`].
pub fn schedule_with_solver_in(
    tasks: &TaskSet,
    platform: &Platform,
    solver: BlockSolverKind,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    schedule_impl(tasks, platform, solver, false, ws)
}

/// The agreeable DP with a *strictness repair*: if the (paper-faithful)
/// recurrence ever selects consecutive blocks whose busy intervals
/// overlap in time — the published DP does not forbid this, see DESIGN.md
/// deviation 3 — the offending neighbours are merged into one block and
/// the energy recomputed, until all blocks are disjoint and ordered. The
/// result is never reported cheaper than it simulates.
///
/// On instances where the paper's DP already yields disjoint blocks (all
/// we have ever observed for optimal solutions), this is identical to
/// [`schedule_in`].
/// [`Scheme::AgreeableStrict`](crate::Scheme::AgreeableStrict) dispatches
/// here.
///
/// # Errors
///
/// Same as [`schedule_in`].
pub fn schedule_strict_in(
    tasks: &TaskSet,
    platform: &Platform,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    schedule_impl(tasks, platform, BlockSolverKind::BestResponse, true, ws)
}

fn schedule_impl(
    tasks: &TaskSet,
    platform: &Platform,
    solver: BlockSolverKind,
    strict: bool,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    if solver == BlockSolverKind::PaperClosedForm && !platform.core().is_alpha_zero() {
        return Err(SdemError::UnsupportedModel(
            "the Lemma-3 closed-form block solver requires α = 0",
        ));
    }
    let sorted = prepare_in(tasks, platform, ws)?;
    let pw = PowerParams::of(platform);
    let n = sorted.len();
    let bts: Vec<BlockTask> = sorted
        .iter()
        .enumerate()
        .map(|(index, t)| BlockTask {
            index,
            r: t.release().as_secs(),
            d: t.deadline().as_secs(),
            w: t.work().value(),
        })
        .collect();

    let solve_block = |range: &[BlockTask]| -> BlockSolution {
        match solver {
            BlockSolverKind::BestResponse => block::solve(range, &pw),
            BlockSolverKind::PaperIterative => algorithm1::solve(range, &pw),
            BlockSolverKind::PaperClosedForm => lemma3::solve_block(range, &pw),
        }
    };

    // Block energies for every contiguous range [p, q).
    let mut block_sol: Vec<Vec<Option<BlockSolution>>> = vec![vec![None; n + 1]; n];
    for p in 0..n {
        for q in (p + 1)..=n {
            block_sol[p][q] = Some(solve_block(&bts[p..q]));
        }
    }

    // DP over prefixes. A memory round trip is charged per inter-block gap.
    let transition = platform.memory().transition_energy().value();
    let mut opt = ws.take_f64s();
    opt.resize(n + 1, f64::INFINITY);
    let mut cut_from = ws.take_usizes();
    cut_from.resize(n + 1, 0);
    opt[0] = 0.0;
    for q in 1..=n {
        for p in 0..q {
            let blk = block_sol[p][q].as_ref().expect("filled above");
            let trans = if p == 0 { 0.0 } else { transition };
            let cand = opt[p] + blk.energy + trans;
            if cand < opt[q] {
                opt[q] = cand;
                cut_from[q] = p;
            }
        }
    }

    // Reconstruct the partition.
    let mut cuts = ws.take_usizes();
    cuts.push(n);
    while *cuts.last().expect("non-empty") > 0 {
        let q = *cuts.last().expect("non-empty");
        cuts.push(cut_from[q]);
    }
    cuts.reverse();

    // Strictness repair: merge any consecutive blocks whose busy intervals
    // overlap, then recompute the total energy from the (precomputed)
    // merged-block solutions.
    let mut total_energy = opt[n];
    if strict {
        loop {
            let mut merged_any = false;
            let mut i = 0;
            while i + 2 < cuts.len() {
                let a = block_sol[cuts[i]][cuts[i + 1]].as_ref().expect("filled");
                let b = block_sol[cuts[i + 1]][cuts[i + 2]]
                    .as_ref()
                    .expect("filled");
                if b.s < a.e - 1e-12 * a.e.abs().max(1.0) {
                    cuts.remove(i + 1);
                    merged_any = true;
                } else {
                    i += 1;
                }
            }
            if !merged_any {
                break;
            }
        }
        total_energy = cuts
            .windows(2)
            .map(|pq| block_sol[pq[0]][pq[1]].as_ref().expect("filled").energy)
            .sum::<f64>()
            + transition * (cuts.len().saturating_sub(2)) as f64;
    }

    // Assemble the schedule: one core per task (unbounded model).
    let mut placements: Vec<Placement> = ws.take_placements();
    let mut sleep_time = 0.0f64;
    let mut prev_end: Option<f64> = None;
    for pq in cuts.windows(2) {
        let (p, q) = (pq[0], pq[1]);
        let blk = block_sol[p][q].as_ref().expect("filled above");
        if let Some(pe) = prev_end {
            // The DP assumes disjoint, ordered blocks; overlap would mean
            // the partition was suboptimal (see DESIGN.md §4, deviation 3).
            debug_assert!(
                blk.s >= pe - 1e-9,
                "blocks overlap: previous ends {pe}, next starts {}",
                blk.s
            );
            sleep_time += (blk.s - pe).max(0.0);
        }
        prev_end = Some(blk.e.max(prev_end.unwrap_or(f64::NEG_INFINITY)));
        for (t, &(start, len)) in bts[p..q].iter().zip(&blk.runs) {
            let task = &sorted[t.index];
            let mut segments = ws.take_segments();
            if t.w > 0.0 && len > 0.0 {
                segments.push(Segment::new(
                    Time::from_secs(start),
                    Time::from_secs(start + len),
                    Speed::from_hz(t.w / len),
                ));
            }
            placements.push(Placement::new(task.id(), CoreId(t.index), segments));
        }
    }

    ws.recycle_f64s(opt);
    ws.recycle_usizes(cut_from);
    ws.recycle_usizes(cuts);
    ws.recycle_tasks(sorted);
    Ok(Solution::new(
        Schedule::new(placements),
        Joules::new(total_energy),
        Time::from_secs(sleep_time),
    ))
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

    fn platform(alpha: f64, alpha_m: f64) -> Platform {
        Platform::new(
            CorePower::simple(alpha, 1.0, 3.0),
            MemoryPower::new(Watts::new(alpha_m)),
        )
    }

    fn tset(specs: &[(f64, f64, f64)]) -> TaskSet {
        TaskSet::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, &(r, d, w))| Task::new(i, sec(r), sec(d), Cycles::new(w)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn far_apart_tasks_split_into_blocks() {
        let p = platform(0.0, 4.0);
        let tasks = tset(&[(0.0, 2.0, 1.0), (50.0, 52.0, 1.0)]);
        let sol = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        sol.schedule().validate(&tasks).unwrap();
        // Two separate busy blocks with a long sleep between them.
        assert_eq!(sol.schedule().memory_busy_intervals().len(), 2);
        assert!(sol.memory_sleep().as_secs() > 40.0);
    }

    #[test]
    fn overlapping_windows_merge_into_one_block() {
        let p = platform(0.0, 4.0);
        let tasks = tset(&[(0.0, 6.0, 2.0), (1.0, 8.0, 2.0), (2.0, 9.0, 2.0)]);
        let sol = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        sol.schedule().validate(&tasks).unwrap();
        assert_eq!(sol.schedule().memory_busy_intervals().len(), 1);
    }

    #[test]
    fn predicted_energy_close_to_simulation_alpha_zero() {
        let p = platform(0.0, 3.0);
        let tasks = tset(&[(0.0, 5.0, 2.0), (1.0, 7.0, 1.5), (10.0, 18.0, 3.0)]);
        let sol = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let report = simulate(sol.schedule(), &tasks, &p, SleepPolicy::WhenProfitable).unwrap();
        let predicted = sol.predicted_energy().value();
        // Simulation may only be cheaper (coverage holes inside a block).
        assert!(
            report.total().value() <= predicted * (1.0 + 1e-9),
            "sim {} vs predicted {predicted}",
            report.total()
        );
        assert!(
            report.total().value() >= predicted * 0.95,
            "sim {} unexpectedly far below predicted {predicted}",
            report.total()
        );
    }

    #[test]
    fn predicted_energy_close_to_simulation_alpha_nonzero() {
        let p = platform(4.0, 6.0);
        let tasks = tset(&[(0.0, 5.0, 2.0), (1.0, 7.0, 1.5), (20.0, 32.0, 3.0)]);
        let sol = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let report = simulate(sol.schedule(), &tasks, &p, SleepPolicy::WhenProfitable).unwrap();
        let predicted = sol.predicted_energy().value();
        assert!(
            report.total().value() <= predicted * (1.0 + 1e-9),
            "sim {} vs predicted {predicted}",
            report.total()
        );
    }

    #[test]
    fn closed_form_solver_matches_on_alpha_zero_dp() {
        let p = platform(0.0, 4.0);
        let tasks = tset(&[(0.0, 5.0, 2.0), (1.0, 7.0, 1.5), (10.0, 18.0, 3.0)]);
        let a = schedule_with_solver(&tasks, &p, BlockSolverKind::BestResponse).unwrap();
        let c = schedule_with_solver(&tasks, &p, BlockSolverKind::PaperClosedForm).unwrap();
        c.schedule().validate(&tasks).unwrap();
        let (ea, ec) = (a.predicted_energy().value(), c.predicted_energy().value());
        assert!((ea - ec).abs() <= 1e-5 * ea.max(1.0), "{ea} vs {ec}");
        // And it refuses α ≠ 0.
        let p4 = platform(4.0, 4.0);
        assert!(matches!(
            schedule_with_solver(&tasks, &p4, BlockSolverKind::PaperClosedForm),
            Err(SdemError::UnsupportedModel(_))
        ));
    }

    #[test]
    fn both_solvers_agree_on_dp_optimum() {
        let p = platform(4.0, 6.0);
        let tasks = tset(&[
            (0.0, 5.0, 2.0),
            (1.0, 7.0, 1.5),
            (3.0, 11.0, 2.5),
            (20.0, 32.0, 3.0),
        ]);
        let a = schedule_with_solver(&tasks, &p, BlockSolverKind::BestResponse).unwrap();
        let b = schedule_with_solver(&tasks, &p, BlockSolverKind::PaperIterative).unwrap();
        let (ea, eb) = (a.predicted_energy().value(), b.predicted_energy().value());
        assert!(
            (ea - eb).abs() <= 1e-5 * ea.max(1.0),
            "solver disagreement: {ea} vs {eb}"
        );
    }

    #[test]
    fn dp_beats_single_block_and_all_singletons() {
        let p = platform(0.0, 4.0);
        let tasks = tset(&[(0.0, 4.0, 2.0), (6.0, 14.0, 3.0), (7.0, 16.0, 1.0)]);
        let sol = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let pw = PowerParams::of(&p);
        let bts: Vec<BlockTask> = tasks
            .sorted_by_deadline()
            .iter()
            .enumerate()
            .map(|(index, t)| BlockTask {
                index,
                r: t.release().as_secs(),
                d: t.deadline().as_secs(),
                w: t.work().value(),
            })
            .collect();
        let single = block::solve(&bts, &pw).energy;
        let singletons: f64 = bts.iter().map(|t| block::solve(&[*t], &pw).energy).sum();
        let e = sol.predicted_energy().value();
        assert!(
            e <= single * (1.0 + 1e-9),
            "DP {e} worse than one block {single}"
        );
        assert!(
            e <= singletons * (1.0 + 1e-9),
            "DP {e} worse than singleton split {singletons}"
        );
    }

    #[test]
    fn dp_matches_brute_force_partitions_small_n() {
        let p = platform(4.0, 5.0);
        let tasks = tset(&[
            (0.0, 4.0, 1.5),
            (2.0, 9.0, 2.0),
            (8.0, 15.0, 1.0),
            (9.0, 20.0, 2.5),
        ]);
        let sol = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let pw = PowerParams::of(&p);
        let bts: Vec<BlockTask> = tasks
            .sorted_by_deadline()
            .iter()
            .enumerate()
            .map(|(index, t)| BlockTask {
                index,
                r: t.release().as_secs(),
                d: t.deadline().as_secs(),
                w: t.work().value(),
            })
            .collect();
        // Enumerate all 2^{n−1} contiguous partitions.
        let n = bts.len();
        let mut best = f64::INFINITY;
        for mask in 0..(1u32 << (n - 1)) {
            let mut cuts = vec![0usize];
            for b in 0..n - 1 {
                if mask & (1 << b) != 0 {
                    cuts.push(b + 1);
                }
            }
            cuts.push(n);
            let mut total = 0.0;
            for w in cuts.windows(2) {
                total += block::solve(&bts[w[0]..w[1]], &pw).energy;
            }
            best = best.min(total);
        }
        let e = sol.predicted_energy().value();
        assert!(
            (e - best).abs() <= 1e-6 * best.max(1.0),
            "DP {e} vs brute-force partitions {best}"
        );
    }

    #[test]
    fn strict_matches_plain_dp_when_blocks_are_disjoint() {
        let p = platform(4.0, 6.0);
        let tasks = tset(&[(0.0, 5.0, 2.0), (1.0, 7.0, 1.5), (20.0, 32.0, 3.0)]);
        let plain = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let strict = schedule_strict_in(&tasks, &p, &mut Workspace::new()).unwrap();
        assert!(
            (plain.predicted_energy().value() - strict.predicted_energy().value()).abs()
                <= 1e-9 * plain.predicted_energy().value(),
            "strict {} vs plain {}",
            strict.predicted_energy().value(),
            plain.predicted_energy().value()
        );
        strict.schedule().validate(&tasks).unwrap();
    }

    #[test]
    fn strict_never_reports_cheaper_than_simulation() {
        let p = platform(2.0, 5.0);
        for seed_shift in 0..6 {
            let specs: Vec<(f64, f64, f64)> = (0..5)
                .map(|i| {
                    let f = (i + seed_shift) as f64;
                    (
                        f * 1.7,
                        f * 1.7 + 3.0 + (f * 0.9) % 2.0,
                        1.0 + (f * 1.3) % 2.5,
                    )
                })
                .collect();
            let tasks = tset(&specs);
            let strict = schedule_strict_in(&tasks, &p, &mut Workspace::new()).unwrap();
            let sim = simulate(strict.schedule(), &tasks, &p, SleepPolicy::WhenProfitable)
                .unwrap()
                .total()
                .value();
            assert!(
                sim <= strict.predicted_energy().value() * (1.0 + 1e-9),
                "strict under-reports: sim {sim} vs predicted {}",
                strict.predicted_energy().value()
            );
        }
    }

    #[test]
    fn rejects_non_agreeable() {
        let p = platform(0.0, 1.0);
        let tasks = tset(&[(0.0, 100.0, 1.0), (10.0, 50.0, 1.0)]);
        assert_eq!(
            schedule_in(&tasks, &p, &mut Workspace::new()),
            Err(SdemError::NotAgreeable)
        );
    }

    #[test]
    fn common_release_is_a_special_case() {
        // Agreeable DP on a common-release set must match the §4 scheme.
        let p = platform(0.0, 4.0);
        let tasks = tset(&[(0.0, 3.0, 2.0), (0.0, 5.0, 1.0), (0.0, 9.0, 4.0)]);
        let dp = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let cr = crate::common_release::schedule_alpha_zero_in(&tasks, &p, &mut Workspace::new())
            .unwrap();
        let (ea, eb) = (dp.predicted_energy().value(), cr.predicted_energy().value());
        assert!(
            (ea - eb).abs() <= 1e-6 * eb.max(1.0),
            "agreeable {ea} vs common-release {eb}"
        );
    }

    #[test]
    fn transition_overhead_discourages_splitting() {
        // Two tasks with a small gap: with a huge ξ_m the DP should prefer
        // one merged block over two blocks + round trip.
        let mem = MemoryPower::new(Watts::new(4.0)).with_break_even(sec(100.0));
        let p = Platform::new(CorePower::simple(0.0, 1.0, 3.0), mem);
        let tasks = tset(&[(0.0, 3.0, 1.0), (4.0, 8.0, 1.0)]);
        let sol = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        // A merged block means the DP planned no inter-block sleep at all
        // (the hole between the two windows stays inside one busy interval).
        assert!(
            sol.memory_sleep().as_secs().abs() < 1e-9,
            "expected merged block under huge transition overhead, sleep = {}",
            sol.memory_sleep()
        );

        // With ξ_m = 0 the same instance must split.
        let p0 = Platform::new(
            CorePower::simple(0.0, 1.0, 3.0),
            MemoryPower::new(Watts::new(4.0)),
        );
        let sol0 = schedule_in(&tasks, &p0, &mut Workspace::new()).unwrap();
        assert!(sol0.memory_sleep().as_secs() > 0.0, "expected split blocks");
    }
}
