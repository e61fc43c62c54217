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
//!
//! # Cost
//!
//! The recurrence has O(n²) candidate blocks, but only the ones that can
//! change the answer are solved. For each prefix end `q` two seeds are
//! solved first — the whole prefix and the block that won `q − 1`
//! extended by one task — and every other candidate `[p, q)` is skipped
//! when a cheap lower bound (`OPT(T_p)`, the transition, each task's
//! isolated optimum `E*_k(d_k − r_k)` and memory for the shortest busy
//! interval that fits every task at `s_up`) already exceeds the best
//! candidate for `q` by a relative `1e-9`. Skipped blocks can neither win
//! nor tie, and ties resolve to the smallest `p`, so the result is
//! bit-identical to solving every block. Only `(s, e, energy)` of each prefix's winning
//! block is kept (O(n) memory); runs are computed for the chosen blocks
//! only, and strict-mode merges solve their merged blocks on demand.
//! With the best-response solver a warmed [`Workspace`] makes the whole
//! DP allocation-free.

use sdem_power::Platform;
use sdem_types::{CoreId, Joules, Placement, Schedule, Segment, Speed, TaskSet, Time, Workspace};

use super::block::BlockSolution;
use super::{algorithm1, block, block_rows_into, lemma3, prepare_in, BlockTask, PowerParams};
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
/// DP scratch (block-task rows, the per-prefix table, cuts and runs) and
/// the returned schedule's arenas come from `ws`, so a warmed workspace
/// solves allocation-free.
/// [`Scheme::Agreeable`](crate::Scheme::Agreeable) dispatches here.
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

impl BlockSolverKind {
    /// Busy interval and energy of the block `tasks`.
    pub(super) fn solve_block(self, tasks: &[BlockTask], pw: &PowerParams) -> BlockSolution {
        match self {
            BlockSolverKind::BestResponse => block::solve(tasks, pw),
            BlockSolverKind::PaperIterative => algorithm1::solve(tasks, pw),
            BlockSolverKind::PaperClosedForm => lemma3::solve_block(tasks, pw),
        }
    }

    /// Per-task `(start, length)` runs of the solved block `blk` of
    /// `tasks`, written into `out`.
    fn runs_into(
        self,
        tasks: &[BlockTask],
        blk: &BlockSolution,
        pw: &PowerParams,
        out: &mut Vec<(f64, f64)>,
    ) {
        match self {
            BlockSolverKind::BestResponse => block::runs_into(tasks, blk, pw, out),
            BlockSolverKind::PaperIterative => {
                algorithm1::solve_into(tasks, pw, out);
            }
            BlockSolverKind::PaperClosedForm => lemma3::runs_into(tasks, blk, pw, out),
        }
    }
}

/// Relative slack of the block-skip test: a candidate is skipped only when
/// its lower bound exceeds the incumbent by more than this, so rounding in
/// the bound (and the solvers' `1e-12` window tolerance) can never skip a
/// block that could win or tie.
const SKIP_SLACK: f64 = 1e-9;

/// Lower bound on the energy of a block, built up one task at a time.
///
/// For a busy interval `[s, e]` every task's window is at most its own
/// `d_k − r_k`, and `E*_k` is non-increasing, so each task costs at least
/// its isolated optimum `E*_k(d_k − r_k)`. The interval must also hold
/// every task with work at `s_up`: `e − s ≥ w_k/s_up`, `e ≥ r_k + w_k/s_up`
/// and `s ≤ d_k − w_k/s_up`. Tasks with zero work need not lie inside the
/// block, so they are left out of the span term.
#[derive(Debug, Clone, Copy)]
struct BlockBound {
    isolated: f64,
    max_len: f64,
    latest_finish: f64,
    earliest_start: f64,
}

impl BlockBound {
    const EMPTY: Self = Self {
        isolated: 0.0,
        max_len: 0.0,
        latest_finish: f64::NEG_INFINITY,
        earliest_start: f64::INFINITY,
    };

    /// Adds task `t`.
    fn extend(&mut self, t: &BlockTask, pw: &PowerParams) {
        let l_min = t.w / pw.s_up;
        self.isolated += block::task_best_energy(t.w, t.d - t.r, pw);
        self.max_len = self.max_len.max(l_min);
        if t.w > 0.0 {
            self.latest_finish = self.latest_finish.max(t.r + l_min);
            self.earliest_start = self.earliest_start.min(t.d - l_min);
        }
    }

    /// The bound: isolated optima plus memory for the shortest interval.
    fn value(&self, alpha_m: f64) -> f64 {
        let span = self.max_len.max(self.latest_finish - self.earliest_start);
        self.isolated + alpha_m * span
    }
}

fn schedule_impl(
    tasks: &TaskSet,
    platform: &Platform,
    solver: BlockSolverKind,
    strict: bool,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    let (solution, cuts, _) = solve_dp(tasks, platform, solver, strict, ws)?;
    ws.recycle_usizes(cuts);
    Ok(solution)
}

/// The DP proper. Returns the solution, the chosen cuts (block
/// boundaries, `0` first and `n` last) and the recurrence's `OPT(T_n)`.
fn solve_dp(
    tasks: &TaskSet,
    platform: &Platform,
    solver: BlockSolverKind,
    strict: bool,
    ws: &mut Workspace,
) -> Result<(Solution, Vec<usize>, f64), SdemError> {
    if solver == BlockSolverKind::PaperClosedForm && !platform.core().is_alpha_zero() {
        return Err(SdemError::UnsupportedModel(
            "the Lemma-3 closed-form block solver requires α = 0",
        ));
    }
    let sorted = prepare_in(tasks, platform, ws)?;
    let pw = PowerParams::of(platform);
    let n = sorted.len();
    let mut bts = ws.take_block_tasks();
    block_rows_into(&sorted, &mut bts);

    // DP over prefixes. A memory round trip is charged per inter-block
    // gap. For each prefix end q two seed candidates are solved first: the
    // whole prefix (p = 0) and the block that won q − 1, extended by task
    // q − 1. Then p descends from q − 1, so the bound of block [p, q)
    // grows by one task per step, and a candidate whose bound already
    // exceeds the incumbent is skipped unsolved: it can neither win nor
    // tie. Ties go to the smallest p whatever the order, so the result is
    // the ascending-p strict-`<` argmin. Only the winning block of each
    // prefix end is kept: `win[q]` is its busy interval, `win_energy[q]`
    // its energy.
    let transition = platform.memory().transition_energy().value();
    let mut opt = ws.take_f64s();
    opt.resize(n + 1, f64::INFINITY);
    let mut cut_from = ws.take_usizes();
    cut_from.resize(n + 1, 0);
    let mut win = ws.take_pairs();
    win.resize(n + 1, (0.0, 0.0));
    let mut win_energy = ws.take_f64s();
    win_energy.resize(n + 1, 0.0);
    let (mut solved, mut pruned) = (0u64, 0u64);
    opt[0] = 0.0;
    for q in 1..=n {
        let seed = if q >= 2 { cut_from[q - 1] } else { 0 };
        let candidates = std::iter::once((0, true))
            .chain((seed > 0).then_some((seed, true)))
            .chain((1..q).rev().map(|p| (p, false)));
        let mut bound = BlockBound::EMPTY;
        for (p, is_seed) in candidates {
            let trans = if p == 0 { 0.0 } else { transition };
            if !is_seed {
                bound.extend(&bts[p], &pw);
                if p == seed {
                    continue;
                }
                let lb = opt[p] + trans + bound.value(pw.alpha_m);
                if lb * (1.0 - SKIP_SLACK) > opt[q] {
                    pruned += 1;
                    continue;
                }
            }
            let blk = solver.solve_block(&bts[p..q], &pw);
            solved += 1;
            let cand = opt[p] + blk.energy + trans;
            if cand < opt[q] || (cand == opt[q] && p < cut_from[q]) {
                opt[q] = cand;
                cut_from[q] = p;
                win[q] = (blk.s, blk.e);
                win_energy[q] = blk.energy;
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
    // overlap, solving each merged block on demand, then recompute the
    // total energy. `win[q]` always describes the current block ending at
    // cut `q`.
    let mut total_energy = opt[n];
    if strict {
        loop {
            let mut merged_any = false;
            let mut i = 0;
            while i + 2 < cuts.len() {
                let a_e = win[cuts[i + 1]].1;
                let b_s = win[cuts[i + 2]].0;
                if b_s < a_e - 1e-12 * a_e.abs().max(1.0) {
                    cuts.remove(i + 1);
                    let (p, q) = (cuts[i], cuts[i + 1]);
                    let blk = solver.solve_block(&bts[p..q], &pw);
                    solved += 1;
                    win[q] = (blk.s, blk.e);
                    win_energy[q] = blk.energy;
                    merged_any = true;
                } else {
                    i += 1;
                }
            }
            if !merged_any {
                break;
            }
        }
        total_energy = cuts.windows(2).map(|pq| win_energy[pq[1]]).sum::<f64>()
            + transition * (cuts.len().saturating_sub(2)) as f64;
    }
    sdem_obs::registry::add(sdem_obs::registry::Counter::AgreeableBlocksSolved, solved);
    sdem_obs::registry::add(sdem_obs::registry::Counter::AgreeableBlocksPruned, pruned);

    // Assemble the schedule: one core per task (unbounded model). Runs are
    // computed only for the chosen blocks.
    let mut placements: Vec<Placement> = ws.take_placements();
    let mut runs = ws.take_pairs();
    let mut sleep_time = 0.0f64;
    let mut prev_end: Option<f64> = None;
    for pq in cuts.windows(2) {
        let (p, q) = (pq[0], pq[1]);
        let (s, e) = win[q];
        if let Some(pe) = prev_end {
            // The DP assumes disjoint, ordered blocks; overlap would mean
            // the partition was suboptimal (see DESIGN.md §4, deviation 3).
            debug_assert!(
                s >= pe - 1e-9,
                "blocks overlap: previous ends {pe}, next starts {s}"
            );
            sleep_time += (s - pe).max(0.0);
        }
        prev_end = Some(e.max(prev_end.unwrap_or(f64::NEG_INFINITY)));
        let blk = BlockSolution {
            s,
            e,
            energy: win_energy[q],
        };
        solver.runs_into(&bts[p..q], &blk, &pw, &mut runs);
        for (t, &(start, len)) in bts[p..q].iter().zip(&runs) {
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

    let opt_n = opt[n];
    ws.recycle_pairs(runs);
    ws.recycle_pairs(win);
    ws.recycle_f64s(win_energy);
    ws.recycle_f64s(opt);
    ws.recycle_usizes(cut_from);
    ws.recycle_block_tasks(bts);
    ws.recycle_tasks(sorted);
    let solution = Solution::new(
        Schedule::new(placements),
        Joules::new(total_energy),
        Time::from_secs(sleep_time),
    );
    Ok((solution, cuts, opt_n))
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

    /// The eager DP the pruned one replaced, kept as its reference: every
    /// block `[p, q)` is solved and its runs kept up front, the argmin is
    /// the ascending-`p` strict-`<` one, and strict mode merges from the
    /// eager table. Returns what [`solve_dp`] returns, non-strict first,
    /// then strict (one table serves both).
    fn eager_reference(
        tasks: &TaskSet,
        platform: &Platform,
        solver: BlockSolverKind,
    ) -> Result<[(Solution, Vec<usize>, f64); 2], SdemError> {
        if solver == BlockSolverKind::PaperClosedForm && !platform.core().is_alpha_zero() {
            return Err(SdemError::UnsupportedModel(
                "the Lemma-3 closed-form block solver requires α = 0",
            ));
        }
        let sorted = super::super::prepare(tasks, platform)?;
        let pw = PowerParams::of(platform);
        let n = sorted.len();
        let mut bts = Vec::new();
        block_rows_into(&sorted, &mut bts);

        type Solved = (BlockSolution, Vec<(f64, f64)>);
        let mut block_sol: Vec<Vec<Option<Solved>>> = vec![vec![None; n + 1]; n];
        for p in 0..n {
            for q in (p + 1)..=n {
                let mut runs = Vec::new();
                let blk = if solver == BlockSolverKind::PaperIterative {
                    algorithm1::solve_into(&bts[p..q], &pw, &mut runs)
                } else {
                    let blk = solver.solve_block(&bts[p..q], &pw);
                    solver.runs_into(&bts[p..q], &blk, &pw, &mut runs);
                    blk
                };
                block_sol[p][q] = Some((blk, runs));
            }
        }
        let sol = |p: usize, q: usize| &block_sol[p][q].as_ref().expect("filled above").0;

        let transition = platform.memory().transition_energy().value();
        let mut opt = vec![f64::INFINITY; n + 1];
        let mut cut_from = vec![0usize; n + 1];
        opt[0] = 0.0;
        for q in 1..=n {
            for p in 0..q {
                let trans = if p == 0 { 0.0 } else { transition };
                let cand = opt[p] + sol(p, q).energy + trans;
                if cand < opt[q] {
                    opt[q] = cand;
                    cut_from[q] = p;
                }
            }
        }
        let mut dp_cuts = vec![n];
        while *dp_cuts.last().expect("non-empty") > 0 {
            let q = *dp_cuts.last().expect("non-empty");
            dp_cuts.push(cut_from[q]);
        }
        dp_cuts.reverse();

        let outcome = |strict: bool| {
            let mut cuts = dp_cuts.clone();
            let mut total_energy = opt[n];
            if strict {
                loop {
                    let mut merged_any = false;
                    let mut i = 0;
                    while i + 2 < cuts.len() {
                        let a = sol(cuts[i], cuts[i + 1]);
                        let b = sol(cuts[i + 1], cuts[i + 2]);
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
                    .map(|pq| sol(pq[0], pq[1]).energy)
                    .sum::<f64>()
                    + transition * (cuts.len().saturating_sub(2)) as f64;
            }

            let mut placements = Vec::new();
            let mut sleep_time = 0.0f64;
            let mut prev_end: Option<f64> = None;
            for pq in cuts.windows(2) {
                let (p, q) = (pq[0], pq[1]);
                let (blk, runs) = block_sol[p][q].as_ref().expect("filled above");
                if let Some(pe) = prev_end {
                    sleep_time += (blk.s - pe).max(0.0);
                }
                prev_end = Some(blk.e.max(prev_end.unwrap_or(f64::NEG_INFINITY)));
                for (t, &(start, len)) in bts[p..q].iter().zip(runs) {
                    let mut segments = Vec::new();
                    if t.w > 0.0 && len > 0.0 {
                        segments.push(Segment::new(
                            Time::from_secs(start),
                            Time::from_secs(start + len),
                            Speed::from_hz(t.w / len),
                        ));
                    }
                    placements.push(Placement::new(
                        sorted[t.index].id(),
                        CoreId(t.index),
                        segments,
                    ));
                }
            }
            let solution = Solution::new(
                Schedule::new(placements),
                Joules::new(total_energy),
                Time::from_secs(sleep_time),
            );
            (solution, cuts, opt[n])
        };
        Ok([outcome(false), outcome(true)])
    }

    /// The seeded pool of the bit-identity harness: `(shape, tasks)`.
    ///
    /// Shapes rotate through clustered releases (all within the first
    /// time unit, windows 2–10), spread releases (over `3n`), a third of
    /// the tasks with zero work, and a third exactly at `s_up` over their
    /// whole window. Releases are sorted and deadlines non-decreasing, so
    /// every set is agreeable.
    fn harness_pool(count: usize, s_up: f64) -> Vec<(&'static str, TaskSet)> {
        use sdem_prng::{Rng, SeedableRng, SplitMix64};
        let mut rng = SplitMix64::seed_from_u64(0xA9EE_AB1E);
        (0..count)
            .map(|i| {
                let n = 1 + (rng.next_u64() % 9) as usize;
                let shape = ["clustered", "spread", "zero-work", "at-s_up"][(i / 4) % 4];
                let span = if shape == "clustered" {
                    1.0
                } else {
                    3.0 * n as f64
                };
                let mut releases: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..span)).collect();
                releases.sort_by(f64::total_cmp);
                let mut last_d = 0.0f64;
                let specs: Vec<(f64, f64, f64)> = releases
                    .iter()
                    .enumerate()
                    .map(|(k, &r)| {
                        let d = (r + rng.gen_range(2.0..10.0)).max(last_d);
                        last_d = d;
                        let w = match shape {
                            "zero-work" if k % 3 == 1 => 0.0,
                            "at-s_up" if k % 3 == 1 => s_up * (d - r),
                            _ => rng.gen_range(0.5..3.0f64).min(0.9 * s_up * (d - r)),
                        };
                        (r, d, w)
                    })
                    .collect();
                (shape, tset(&specs))
            })
            .collect()
    }

    /// The harness platforms, by set index: `α = 0` with and without a
    /// memory break-even (`ξ_m > 0` prices inter-block transitions),
    /// `α ≠ 0` with and without one. All cap speed at `s_up = 3`.
    fn harness_platform(i: usize) -> Platform {
        let alpha = if i.is_multiple_of(2) { 0.0 } else { 2.0 };
        let mut mem = MemoryPower::new(Watts::new(5.0));
        if (i / 2) % 2 == 1 {
            mem = mem.with_break_even(sec(0.5));
        }
        Platform::new(
            CorePower::simple(alpha, 1.0, 3.0).with_max_speed(Speed::from_hz(3.0)),
            mem,
        )
    }

    const KINDS: [BlockSolverKind; 3] = [
        BlockSolverKind::BestResponse,
        BlockSolverKind::PaperIterative,
        BlockSolverKind::PaperClosedForm,
    ];

    #[test]
    fn pruned_dp_is_bit_identical_to_the_eager_reference() {
        let mut ws = Workspace::new();
        let (mut compared, mut multi_block) = (0usize, 0usize);
        for (i, (shape, tasks)) in harness_pool(320, 3.0).iter().enumerate() {
            let p = harness_platform(i);
            assert!(p.memory().transition_energy().value() >= 0.0);
            for solver in KINDS {
                let reference = eager_reference(tasks, &p, solver);
                for strict in [false, true] {
                    let got = solve_dp(tasks, &p, solver, strict, &mut ws);
                    let want = match &reference {
                        Ok(both) => Ok(both[usize::from(strict)].clone()),
                        Err(e) => Err(e.clone()),
                    };
                    let ctx = format!("set {i} ({shape}), {solver:?}, strict {strict}");
                    match (got, want) {
                        (Ok((a, a_cuts, a_opt)), Ok((b, b_cuts, b_opt))) => {
                            assert_eq!(a_opt.to_bits(), b_opt.to_bits(), "opt[n]: {ctx}");
                            assert_eq!(a_cuts, b_cuts, "cuts: {ctx}");
                            assert_eq!(
                                a.predicted_energy().value().to_bits(),
                                b.predicted_energy().value().to_bits(),
                                "energy: {ctx}"
                            );
                            assert_eq!(
                                a.memory_sleep().value().to_bits(),
                                b.memory_sleep().value().to_bits(),
                                "memory sleep: {ctx}"
                            );
                            assert_eq!(a.schedule(), b.schedule(), "schedule: {ctx}");
                            compared += 1;
                            multi_block += usize::from(a_cuts.len() > 2);
                            ws.recycle_usizes(a_cuts);
                            ws.recycle_schedule(a.into_schedule());
                        }
                        (Err(a), Err(b)) => assert_eq!(a, b, "error: {ctx}"),
                        (a, b) => panic!("outcome differs: {ctx}: {a:?} vs {b:?}"),
                    }
                }
            }
        }
        // The pool must exercise real partitions, not just single blocks.
        assert!(compared >= 1500, "only {compared} solved comparisons");
        assert!(multi_block >= 300, "only {multi_block} multi-block optima");
    }

    #[test]
    fn block_bound_never_exceeds_the_block_optimum() {
        // Where the bound is tight (a task exactly at `s_up`, say) it can
        // land an ulp or so above the solved energy, because the two sum
        // the same terms in different orders; the DP's skip test allows
        // `SKIP_SLACK` for that. Pin both the test's property and that the
        // worst excess is rounding, far inside the slack.
        let mut worst_excess = 0.0f64;
        for (i, (shape, tasks)) in harness_pool(320, 3.0).iter().enumerate() {
            let p = harness_platform(i);
            let pw = PowerParams::of(&p);
            let sorted = super::super::prepare(tasks, &p).unwrap();
            let mut bts = Vec::new();
            block_rows_into(&sorted, &mut bts);
            for solver in KINDS {
                if solver == BlockSolverKind::PaperClosedForm && !p.core().is_alpha_zero() {
                    continue;
                }
                for q in 1..=bts.len() {
                    // Built exactly as the DP builds it: p descending from q − 1.
                    let mut bound = BlockBound::EMPTY;
                    for start in (0..q).rev() {
                        bound.extend(&bts[start], &pw);
                        let lb = bound.value(pw.alpha_m);
                        let energy = solver.solve_block(&bts[start..q], &pw).energy;
                        assert!(
                            lb * (1.0 - SKIP_SLACK) <= energy,
                            "set {i} ({shape}), {solver:?}, block {start}..{q}: \
                             bound {lb} above block energy {energy}"
                        );
                        worst_excess = worst_excess.max((lb - energy) / energy);
                    }
                }
            }
        }
        assert!(
            worst_excess <= 1e-12,
            "bound exceeds a block optimum by {worst_excess} (relative)"
        );
    }
}
