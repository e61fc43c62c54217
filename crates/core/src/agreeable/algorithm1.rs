//! The paper's block solver: `(i, j)` pairs + the five-step iterative
//! scheme (§5.1.1 for `α = 0`, Algorithm 1 of §5.2.1 for `α ≠ 0`).
//!
//! The busy-interval start `s'` is localized between consecutive releases
//! (`s' ∈ (r_i, r_{i+1}]`) and the end `e'` between consecutive deadlines —
//! a *cell*. Within a cell every task's window is an affine function of
//! `(s', e')`, classified into the paper's four processing cases:
//!
//! 1. `[s', d_k]` — released before the block starts, ends at its deadline;
//! 2. `[r_k, d_k]` — interior, the whole feasible region;
//! 3. `[s', e']` — spans the block;
//! 4. `[r_k, e']` — starts at release, ends with the block.
//!
//! For `α = 0` the cell minimization of Eq. 12–14 is the whole story (no
//! eviction: speeds can never fall below the filled speed). For `α ≠ 0`
//! Algorithm 1 iterates: minimize Eq. 15 with all tasks aligned (Step 1),
//! pin tasks that would run slower than their critical speed `s₀` to `s₀`
//! and evict them (Steps 2–3), then re-solve for tasks still faster than
//! the memory-associated critical speed `s₁`, prolonging the rest
//! (Steps 4–5), until the two-type classification of Theorem 4 stabilizes.
//!
//! The production solver in [`crate::agreeable::block`] computes the same
//! optimum via a single convex minimization; tests assert both agree
//! (Theorem 4), and an ablation bench compares their cost.

use sdem_types::numeric::minimize_unimodal;

use super::block::BlockSolution;
use super::{BlockTask, PowerParams};

const REL: f64 = 1e-9;

/// Per-cell fixed classification of one task.
#[derive(Debug, Clone, Copy)]
struct CellTask {
    /// Index into the block's task slice.
    k: usize,
    /// Window start is the block start `s` (cases 1 and 3).
    starts_at_s: bool,
    /// Window end is the block end `e` (cases 3 and 4).
    ends_at_e: bool,
    r: f64,
    d: f64,
    w: f64,
    /// Run length this task is pinned to once evicted (`w / s₀`).
    crit_len: f64,
    /// Thresholds: evict below `s0`, re-solve above `s1`.
    s0: f64,
    s1: f64,
}

impl CellTask {
    fn window(&self, s: f64, e: f64) -> f64 {
        let start = if self.starts_at_s { s } else { self.r };
        let end = if self.ends_at_e { e } else { self.d };
        end - start
    }

    fn speed(&self, s: f64, e: f64) -> f64 {
        self.w / self.window(s, e)
    }

    /// `true` if the window depends on `(s, e)` at all — case-2 tasks are
    /// constants and can never be "prolonged" by moving the block.
    fn adjustable(&self) -> bool {
        self.starts_at_s || self.ends_at_e
    }
}

/// Aligned (Eq. 15) energy of a subset of cell tasks, plus the memory term.
fn aligned_energy(subset: &[CellTask], s: f64, e: f64, pw: &PowerParams) -> f64 {
    let mut total = pw.alpha_m * (e - s);
    for t in subset {
        let l = t.window(s, e);
        if l <= 0.0 || l < t.w / pw.s_up * (1.0 - 1e-12) {
            return f64::INFINITY;
        }
        total += pw.beta * t.w.powf(pw.lambda) * l.powf(1.0 - pw.lambda) + pw.alpha * l;
    }
    total
}

/// Minimizes the aligned energy of `subset` over the cell, subject to the
/// window capacity of *every* task in `all` (active ones need `w/s_up`,
/// evicted ones `w/s₀`). Returns `None` when the cell is infeasible.
fn minimize_in_cell(
    subset: &[CellTask],
    all_caps: &[(CellTask, f64)],
    cell: (f64, f64, f64, f64),
    pw: &PowerParams,
) -> Option<(f64, f64)> {
    let (sa, sb, ea, eb) = cell;
    let (mut s, mut e) = (sa, eb);
    if e <= s {
        return None;
    }
    let f = |s: f64, e: f64| aligned_energy(subset, s, e, pw);
    let cap_ok = |s: f64, e: f64| {
        all_caps
            .iter()
            .all(|(t, l_req)| t.window(s, e) >= l_req * (1.0 - 1e-12))
    };
    if !cap_ok(s, e) || !f(s, e).is_finite() {
        return None;
    }
    let mut best = f(s, e);
    for _ in 0..60 {
        let (ps, pe) = (s, e);
        // s-step caps: for start-at-s tasks, s ≤ end(e) − l_req.
        let s_hi = all_caps
            .iter()
            .filter(|(t, _)| t.starts_at_s)
            .map(|(t, l_req)| (if t.ends_at_e { e } else { t.d }) - l_req)
            .fold(sb.min(e - 1e-15), f64::min);
        if s_hi > sa {
            let (xs, fx) = minimize_unimodal(|x| f(x, e), sa, s_hi.min(sb), 1e-13);
            if fx <= best {
                s = xs;
                best = fx;
            }
        }
        // e-step caps: for end-at-e tasks, e ≥ start(s) + l_req.
        let e_lo = all_caps
            .iter()
            .filter(|(t, _)| t.ends_at_e)
            .map(|(t, l_req)| (if t.starts_at_s { s } else { t.r }) + l_req)
            .fold(ea.max(s + 1e-15), f64::max);
        if e_lo < eb {
            let (xe, fx) = minimize_unimodal(|x| f(s, x), e_lo.max(ea), eb, 1e-13);
            if fx <= best {
                e = xe;
                best = fx;
            }
        }
        if (ps - s).abs() + (pe - e).abs() <= 1e-12 * (eb - sa).max(1.0) {
            break;
        }
    }
    Some((s, e))
}

/// Runs the five-step scheme in one cell; returns the local candidate.
fn solve_cell(
    tasks: &[CellTask],
    cell: (f64, f64, f64, f64),
    pw: &PowerParams,
) -> Option<(f64, f64, Vec<bool>, f64)> {
    let n = tasks.len();
    // `true` = evicted (Type-I at s₀); `false` = aligned (Type-II).
    let mut evicted = vec![false; n];
    let caps = |evicted: &Vec<bool>| -> Vec<(CellTask, f64)> {
        tasks
            .iter()
            .enumerate()
            .map(|(k, t)| {
                let l_req = if evicted[k] {
                    t.crit_len
                } else {
                    t.w / pw.s_up
                };
                (*t, l_req)
            })
            .collect()
    };
    let active_set = |evicted: &Vec<bool>| -> Vec<CellTask> {
        tasks
            .iter()
            .enumerate()
            .filter(|(k, _)| !evicted[*k])
            .map(|(_, t)| *t)
            .collect()
    };

    // Steps 1–3: minimize over the active set, evict anything below s₀.
    let mut sol = minimize_in_cell(&active_set(&evicted), &caps(&evicted), cell, pw)?;
    for _ in 0..n + 1 {
        let mut changed = false;
        for (k, t) in tasks.iter().enumerate() {
            if !evicted[k] && t.speed(sol.0, sol.1) < t.s0 * (1.0 - REL) {
                evicted[k] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        sol = minimize_in_cell(&active_set(&evicted), &caps(&evicted), cell, pw)?;
    }

    // Steps 4–5: re-solve for the too-fast tasks, prolonging the rest.
    // Caps keep the classification stable: evicted tasks keep their s₀
    // runs, non-fast actives may not be squeezed above s₁ (Lemma 5: the
    // busy interval may only grow), fast tasks are bounded by s_up.
    const FAST_REL: f64 = 1e-6;
    for _ in 0..n + 1 {
        let fast_mask: Vec<bool> = tasks
            .iter()
            .enumerate()
            .map(|(k, t)| {
                !evicted[k] && t.adjustable() && t.speed(sol.0, sol.1) > t.s1 * (1.0 + FAST_REL)
            })
            .collect();
        let fast: Vec<CellTask> = tasks
            .iter()
            .enumerate()
            .filter(|(k, _)| fast_mask[*k])
            .map(|(_, t)| *t)
            .collect();
        if fast.is_empty() {
            break;
        }
        let phase2_caps: Vec<(CellTask, f64)> = tasks
            .iter()
            .enumerate()
            .map(|(k, t)| {
                let l_req = if evicted[k] {
                    t.crit_len
                } else if fast_mask[k] {
                    t.w / pw.s_up
                } else {
                    t.w / t.s1
                };
                (*t, l_req)
            })
            .collect();
        let new_sol = minimize_in_cell(&fast, &phase2_caps, cell, pw)?;
        let moved = (new_sol.0 - sol.0).abs() + (new_sol.1 - sol.1).abs()
            > 1e-12 * (cell.3 - cell.0).max(1.0);
        sol = new_sol;
        // Prolonging may push other actives below s₀: evict them.
        for (k, t) in tasks.iter().enumerate() {
            if !evicted[k] && t.speed(sol.0, sol.1) < t.s0 * (1.0 - REL) {
                evicted[k] = true;
            }
        }
        if !moved {
            break;
        }
    }

    // Total cell energy: aligned actives + critical-speed evictees.
    let (s, e) = sol;
    let mut energy = pw.alpha_m * (e - s);
    for (k, t) in tasks.iter().enumerate() {
        if evicted[k] {
            energy += pw.beta * t.w.powf(pw.lambda) * t.crit_len.powf(1.0 - pw.lambda)
                + pw.alpha * t.crit_len;
        } else {
            let l = t.window(s, e);
            if l < t.w / pw.s_up * (1.0 - 1e-9) {
                return None;
            }
            energy += pw.beta * t.w.powf(pw.lambda) * l.powf(1.0 - pw.lambda) + pw.alpha * l;
        }
    }
    Some((s, e, evicted, energy))
}

/// The paper-faithful block solver: enumerates all `(i, j)` cells, runs the
/// five-step scheme in each, and returns the best candidate (Theorem 4).
pub(crate) fn solve(tasks: &[BlockTask], pw: &PowerParams) -> BlockSolution {
    solve_into(tasks, pw, &mut Vec::new())
}

/// [`solve`], also writing the per-task `(start, length)` runs into `runs`
/// (cleared first, parallel to `tasks`). The runs depend on which tasks
/// the winning cell evicted, so they come from the search itself; the
/// search is deterministic, so a re-solve reproduces them exactly.
pub(crate) fn solve_into(
    tasks: &[BlockTask],
    pw: &PowerParams,
    runs: &mut Vec<(f64, f64)>,
) -> BlockSolution {
    runs.clear();
    let live: Vec<&BlockTask> = tasks.iter().filter(|t| t.w > 0.0).collect();
    if live.is_empty() {
        let s = tasks.first().map_or(0.0, |t| t.r);
        runs.extend(tasks.iter().map(|t| (t.r, 0.0)));
        return BlockSolution {
            s,
            e: s,
            energy: 0.0,
        };
    }
    let r1 = live[0].r;
    let d1 = live.iter().map(|t| t.d).fold(f64::INFINITY, f64::min);
    let rn = live.iter().map(|t| t.r).fold(f64::NEG_INFINITY, f64::max);
    let dn = live.last().expect("non-empty").d;

    // Cell breakpoints.
    let mut s_bps: Vec<f64> = live.iter().map(|t| t.r).chain([d1]).collect();
    s_bps.retain(|x| (r1..=d1).contains(x));
    s_bps.sort_by(f64::total_cmp);
    s_bps.dedup();
    let mut e_bps: Vec<f64> = live.iter().map(|t| t.d).chain([rn]).collect();
    e_bps.retain(|x| (rn..=dn).contains(x));
    e_bps.sort_by(f64::total_cmp);
    e_bps.dedup();

    let cell_tasks = |sa: f64, eb: f64| -> Vec<CellTask> {
        live.iter()
            .enumerate()
            .map(|(k, t)| {
                let s_f = t.w / (t.d - t.r);
                let s0 = s_f.max(pw.s_m).min(pw.s_up);
                let s1 = s_f.max(pw.s_cm).min(pw.s_up);
                CellTask {
                    k,
                    starts_at_s: t.r <= sa + 1e-15,
                    ends_at_e: t.d >= eb - 1e-15,
                    r: t.r,
                    d: t.d,
                    w: t.w,
                    crit_len: t.w / s0,
                    s0,
                    s1,
                }
            })
            .collect()
    };

    // Cells: consecutive breakpoint pairs; a single breakpoint (possible
    // only in degenerate inputs) becomes a point cell.
    let cells = |bps: &[f64]| -> Vec<(f64, f64)> {
        if bps.len() >= 2 {
            bps.windows(2).map(|w| (w[0], w[1])).collect()
        } else {
            vec![(bps[0], bps[0])]
        }
    };

    let mut best: Option<(f64, f64, Vec<bool>, f64)> = None;
    for &(sa, sb) in &cells(&s_bps) {
        for &(ea, eb) in &cells(&e_bps) {
            if eb <= sa {
                continue;
            }
            let cts = cell_tasks(sa, eb);
            if let Some(cand) = solve_cell(&cts, (sa, sb, ea, eb), pw) {
                if best.as_ref().is_none_or(|b| cand.3 < b.3) {
                    best = Some(cand);
                }
            }
        }
    }

    let (s, e, evicted, energy) = best.expect("the full-interval cell is feasible");
    let cts = cell_tasks(s, e);
    runs.resize(tasks.len(), (0.0, 0.0));
    for t in tasks {
        runs[index_of(tasks, t)] = (t.r.max(s), 0.0);
    }
    for (pos, ct) in cts.iter().enumerate() {
        let global = live[ct.k].index;
        let slot = tasks
            .iter()
            .position(|t| t.index == global)
            .expect("live task present");
        let start = if ct.starts_at_s { s } else { ct.r };
        let len = if evicted[pos] {
            ct.crit_len
        } else {
            ct.window(s, e)
        };
        runs[slot] = (start, len);
    }
    BlockSolution { s, e, energy }
}

fn index_of(tasks: &[BlockTask], t: &BlockTask) -> usize {
    tasks
        .iter()
        .position(|x| x.index == t.index)
        .expect("task belongs to slice")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agreeable::block;
    use sdem_power::{CorePower, MemoryPower, Platform};
    use sdem_types::Watts;

    fn pw(alpha: f64, alpha_m: f64) -> PowerParams {
        PowerParams::of(&Platform::new(
            CorePower::simple(alpha, 1.0, 3.0),
            MemoryPower::new(Watts::new(alpha_m)),
        ))
    }

    fn bt(index: usize, r: f64, d: f64, w: f64) -> BlockTask {
        BlockTask { index, r, d, w }
    }

    #[test]
    fn agrees_with_best_response_alpha_zero() {
        let p = pw(0.0, 4.0);
        let cases: Vec<Vec<BlockTask>> = vec![
            vec![bt(0, 0.0, 10.0, 2.0)],
            vec![bt(0, 0.0, 6.0, 2.0), bt(1, 1.0, 9.0, 3.0)],
            vec![
                bt(0, 0.0, 5.0, 2.0),
                bt(1, 2.0, 8.0, 1.0),
                bt(2, 3.0, 12.0, 4.0),
            ],
        ];
        for tasks in cases {
            let a = solve(&tasks, &p);
            let b = block::solve(&tasks, &p);
            assert!(
                (a.energy - b.energy).abs() <= 1e-6 * b.energy.max(1.0),
                "α=0 mismatch: iterative {} vs best-response {}",
                a.energy,
                b.energy
            );
        }
    }

    #[test]
    fn agrees_with_best_response_alpha_nonzero() {
        let p = pw(4.0, 6.0);
        let cases: Vec<Vec<BlockTask>> = vec![
            vec![bt(0, 0.0, 50.0, 2.0)],
            vec![bt(0, 0.0, 6.0, 2.0), bt(1, 1.0, 9.0, 3.0)],
            vec![
                bt(0, 0.0, 5.0, 2.0),
                bt(1, 2.0, 8.0, 1.0),
                bt(2, 3.0, 12.0, 4.0),
            ],
            vec![bt(0, 0.0, 30.0, 1.0), bt(1, 10.0, 40.0, 8.0)],
        ];
        for tasks in cases {
            let a = solve(&tasks, &p);
            let b = block::solve(&tasks, &p);
            assert!(
                (a.energy - b.energy).abs() <= 1e-5 * b.energy.max(1.0),
                "α≠0 mismatch on {tasks:?}: iterative {} vs best-response {}",
                a.energy,
                b.energy
            );
        }
    }

    #[test]
    fn type_classification_matches_critical_speeds() {
        // A tight task (must run fast) plus a loose one (should be Type-I
        // at s₀ when it cannot align cheaply).
        let p = pw(4.0, 1.0);
        let tasks = vec![bt(0, 0.0, 2.0, 3.8), bt(1, 0.0, 40.0, 1.0)];
        let mut runs = Vec::new();
        solve_into(&tasks, &p, &mut runs);
        // The loose task's run should be close to w/s₀ = 1/2^{1/3}.
        let crit = 1.0 / 2.0f64.powf(1.0 / 3.0);
        let run1 = runs[1].1;
        assert!(
            (run1 - crit).abs() < 1e-3 || run1 >= crit,
            "loose task run {run1} vs critical {crit}"
        );
    }

    #[test]
    fn zero_work_block_is_trivial() {
        let p = pw(4.0, 1.0);
        let mut runs = Vec::new();
        let sol = solve_into(&[bt(0, 1.0, 2.0, 0.0)], &p, &mut runs);
        assert_eq!(sol.energy, 0.0);
        assert_eq!(runs[0].1, 0.0);
    }

    #[test]
    fn common_release_cell_degeneracy() {
        // All releases equal ⇒ a single s-breakpoint would exist were it not
        // for the d₁ breakpoint; make sure the solver still works.
        let p = pw(0.0, 4.0);
        let tasks = vec![bt(0, 0.0, 4.0, 1.0), bt(1, 0.0, 8.0, 2.0)];
        let a = solve(&tasks, &p);
        let b = block::solve(&tasks, &p);
        assert!((a.energy - b.energy).abs() <= 1e-6 * b.energy.max(1.0));
    }
}
