//! The exact reference: canonical enumeration of every task→core
//! assignment.
//!
//! Assignments are walked as restricted-growth strings (task 0 on core 0;
//! task `k` may open at most one new core), so each set partition is
//! visited exactly once and the lexicographically-smallest canonical
//! string among energy-optimal assignments wins. This is the reference
//! semantics the branch-and-bound tier reproduces bit-for-bit, and the
//! oracle its tests and the `bounded_tiers` bench compare against. No
//! [`Scheme`](crate::Scheme) dispatches here: `bounded-exact` requests are
//! served by the branch-and-bound, which returns the same bits.

use sdem_power::Platform;
use sdem_types::{TaskSet, Time, Workspace};

use super::{assemble_schedule, common_window, heaviest_task, partition_energy, EXACT_LIMIT};
use crate::{SdemError, Solution};

/// Exact bounded-core optimum by enumerating all canonical assignments of
/// `n` tasks to at most `cores` cores. Tasks must share one release time
/// and one deadline (the Theorem 1 model); core static power is taken as
/// negligible (`α = 0` model — `platform.core().alpha()` is ignored).
///
/// Enumeration scratch (the assignment vector, the per-leaf load
/// accumulator, the incumbent best assignment) and the returned schedule's
/// arenas come from `ws`. This is the oracle behind
/// [`Scheme::BoundedExact`](crate::Scheme::BoundedExact), which returns
/// the same result through [`solve_bnb_in`](super::solve_bnb_in).
///
/// # Errors
///
/// * [`SdemError::TooLarge`] if `tasks.len() > EXACT_LIMIT`;
/// * [`SdemError::NoCores`] if `cores == 0`;
/// * [`SdemError::NotCommonRelease`] unless all releases and deadlines
///   coincide;
/// * [`SdemError::InfeasibleTask`] when even the fastest schedule misses
///   the deadline.
///
/// # Examples
///
/// ```
/// use sdem_core::{solve, Scheme};
/// use sdem_power::{CorePower, MemoryPower, Platform};
/// use sdem_types::{Task, TaskSet, Time, Cycles, Watts};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::new(
///     CorePower::simple(0.0, 1.0, 3.0),
///     MemoryPower::new(Watts::new(4.0)),
/// );
/// let tasks = TaskSet::new(vec![
///     Task::new(0, Time::ZERO, Time::from_secs(10.0), Cycles::new(3.0)),
///     Task::new(1, Time::ZERO, Time::from_secs(10.0), Cycles::new(2.0)),
///     Task::new(2, Time::ZERO, Time::from_secs(10.0), Cycles::new(1.0)),
/// ])?;
/// let sol = solve(&tasks, &platform, Scheme::BoundedExact(2))?;
/// sol.schedule().validate(&tasks)?;
/// // PARTITION structure: {3} vs {2, 1} balances the loads.
/// assert_eq!(sol.schedule().cores_used(), 2);
/// # Ok(())
/// # }
/// ```
pub fn solve_exact_in(
    tasks: &TaskSet,
    platform: &Platform,
    cores: usize,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    if cores == 0 {
        return Err(SdemError::NoCores);
    }
    let n = tasks.len();
    if n > EXACT_LIMIT {
        return Err(SdemError::TooLarge {
            tasks: n,
            limit: EXACT_LIMIT,
        });
    }
    let list = tasks.tasks();
    let (r0, deadline) = common_window(tasks)?;
    let mut works = ws.take_f64s();
    works.extend(list.iter().map(|t| t.work().value()));

    // Canonical enumeration: task 0 on core 0; task k may use cores
    // 0..=min(max_used+1, cores−1).
    let mut assign = ws.take_usizes();
    assign.resize(n, 0);
    let mut best_assign = ws.take_usizes();
    let mut leaf_loads = ws.take_f64s();
    let mut best: Option<(Time, f64)> = None;
    enumerate(
        &works,
        platform,
        deadline,
        cores,
        1,
        0,
        &mut assign,
        &mut leaf_loads,
        &mut best_assign,
        &mut best,
    );
    ws.recycle_f64s(leaf_loads);
    ws.recycle_usizes(assign);
    let Some((interval, energy)) = best else {
        ws.recycle_f64s(works);
        ws.recycle_usizes(best_assign);
        // No feasible assignment: the heaviest single task cannot fit.
        return Err(SdemError::InfeasibleTask(heaviest_task(list)));
    };
    let assignment = best_assign;

    // Build the schedule: each core runs its tasks back-to-back over
    // [r0, r0 + |I_b|] at the shared speed W_c / |I_b|.
    let mut core_loads = ws.take_f64s();
    core_loads.resize(cores, 0.0);
    for (k, &c) in assignment.iter().enumerate() {
        core_loads[c] += works[k];
    }
    let schedule = assemble_schedule(list, &assignment, &core_loads, interval, r0, ws);
    ws.recycle_f64s(works);
    ws.recycle_f64s(core_loads);
    ws.recycle_usizes(assignment);
    Ok(Solution::new(
        schedule,
        sdem_types::Joules::new(energy),
        deadline - interval,
    ))
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    works: &[f64],
    platform: &Platform,
    deadline: Time,
    cores: usize,
    k: usize,
    max_used: usize,
    assign: &mut Vec<usize>,
    leaf_loads: &mut Vec<f64>,
    best_assign: &mut Vec<usize>,
    best: &mut Option<(Time, f64)>,
) {
    if k == works.len() {
        leaf_loads.clear();
        leaf_loads.resize(max_used + 1, 0.0);
        for (i, &c) in assign.iter().enumerate() {
            leaf_loads[c] += works[i];
        }
        if let Some((t, e)) = partition_energy(leaf_loads, platform, deadline) {
            if best.as_ref().is_none_or(|b| e.value() < b.1) {
                best_assign.clear();
                best_assign.extend_from_slice(assign);
                *best = Some((t, e.value()));
            }
        }
        return;
    }
    let limit = (max_used + 1).min(cores - 1);
    for c in 0..=limit {
        assign[k] = c;
        enumerate(
            works,
            platform,
            deadline,
            cores,
            k + 1,
            max_used.max(c),
            assign,
            leaf_loads,
            best_assign,
            best,
        );
    }
    assign[k] = 0;
}
