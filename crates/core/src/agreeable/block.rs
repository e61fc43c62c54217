//! Best-response block solver.
//!
//! For a fixed busy interval `[s, e]`, the cores decouple: task `k` with
//! window `L_k(s,e) = min(e, d_k) − max(s, r_k)` independently picks its run
//! length `l ∈ [w_k/s_up, L_k]` minimizing `β w^λ l^{1−λ} + α l`, whose
//! unclamped optimum is `w_k / s_m`. Substituting the per-task optimum gives
//! the *best-response energy*
//!
//! ```text
//! F(s, e) = α_m (e − s) + Σ_k E*_k( L_k(s, e) )
//! ```
//!
//! with `E*_k(L) = β w^λ l*^{1−λ} + α l*`, `l* = clamp(w/s_m, w/s_up, L)`.
//!
//! **Convexity.** `E*_k` is convex and non-increasing in `L` (strictly
//! decreasing below `w/s_m`, constant above — its flat region corresponds
//! exactly to the paper's Type-I tasks running at the critical speed `s₀`).
//! `L_k(s,e)` is concave (min of affine minus max of affine). A convex
//! non-increasing function of a concave argument is convex, so `F` is
//! jointly convex in `(s, e)` over the convex feasible region
//! `{ L_k(s,e) ≥ w_k/s_up ∀k }`. One coordinate-descent run (plus a
//! diagonal polish against corner stalls) therefore finds the block
//! optimum — the quantity the paper's `(i, j)` enumeration computes
//! piecewise. Tests verify agreement with [`crate::agreeable::algorithm1`]
//! and with a dense grid oracle.

use sdem_types::numeric::minimize_unimodal;

use super::{BlockTask, PowerParams};

/// Tolerance (relative) for the coordinate-descent stopping rule.
const DESCENT_TOL: f64 = 1e-12;
const MAX_SWEEPS: usize = 80;

/// The optimum of one block: its busy interval and energy. The per-task
/// runs follow from it (see [`runs_into`]) and are only materialized for
/// the blocks a schedule actually uses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockSolution {
    /// Busy interval start (absolute seconds).
    pub s: f64,
    /// Busy interval end (absolute seconds).
    pub e: f64,
    /// Block energy: `α_m (e − s)` + per-task optimal run energies.
    pub energy: f64,
}

/// Per-task best-response energy for a window of length `window`.
///
/// Returns `f64::INFINITY` when the window cannot accommodate the task even
/// at `s_up`.
pub(crate) fn task_best_energy(w: f64, window: f64, pw: &PowerParams) -> f64 {
    if w == 0.0 {
        return 0.0;
    }
    let l_min = w / pw.s_up;
    if window < l_min * (1.0 - 1e-12) {
        return f64::INFINITY;
    }
    let l = best_run_length(w, window, pw);
    pw.beta * w.powf(pw.lambda) * l.powf(1.0 - pw.lambda) + pw.alpha * l
}

/// The per-task optimal run length inside a window of length `window`:
/// `clamp(w/s_m, w/s_up, window)`. With `α = 0` (`s_m = 0`) this fills the
/// window; otherwise it is the §4.2 critical-speed run, clamped.
pub(crate) fn best_run_length(w: f64, window: f64, pw: &PowerParams) -> f64 {
    let l_min = w / pw.s_up;
    let l_crit = if pw.s_m > 0.0 {
        w / pw.s_m
    } else {
        f64::INFINITY
    };
    l_crit.clamp(l_min, window.max(l_min))
}

/// Window length of task `k` for busy interval `[s, e]`.
#[inline]
pub(crate) fn window(t: &BlockTask, s: f64, e: f64) -> f64 {
    e.min(t.d) - s.max(t.r)
}

/// The best-response block objective `F(s, e)`.
pub(crate) fn objective(tasks: &[BlockTask], s: f64, e: f64, pw: &PowerParams) -> f64 {
    let mut total = pw.alpha_m * (e - s);
    for t in tasks {
        total += task_best_energy(t.w, window(t, s, e), pw);
        if !total.is_finite() {
            return f64::INFINITY;
        }
    }
    total
}

/// Solves one block to its optimal busy interval.
///
/// `tasks` must be non-empty, deadline-sorted and agreeable (releases also
/// sorted); every task must satisfy `w/(d−r) ≤ s_up`.
pub(crate) fn solve(tasks: &[BlockTask], pw: &PowerParams) -> BlockSolution {
    debug_assert!(!tasks.is_empty());
    let r1 = tasks[0].r;
    let d1 = tasks.iter().map(|t| t.d).fold(f64::INFINITY, f64::min);
    let rn = tasks.iter().map(|t| t.r).fold(f64::NEG_INFINITY, f64::max);
    let dn = tasks.last().expect("non-empty").d;

    // Start from the full interval — always feasible.
    let (mut s, mut e) = (r1, dn);
    let mut best_f = objective(tasks, s, e, pw);
    debug_assert!(best_f.is_finite(), "full interval must be feasible");

    for _ in 0..MAX_SWEEPS {
        let (ps, pe, pf) = (s, e, best_f);

        // s-step: s ∈ [r1, s_hi(e)] with s_hi from the window constraints.
        let s_hi = tasks
            .iter()
            .filter(|t| t.w > 0.0)
            .map(|t| e.min(t.d) - t.w / pw.s_up)
            .fold(d1.min(e), f64::min);
        if s_hi > r1 {
            let (xs, fx) = minimize_unimodal(|x| objective(tasks, x, e, pw), r1, s_hi, 1e-13);
            if fx <= best_f {
                s = xs;
                best_f = fx;
            }
        }

        // e-step: e ∈ [e_lo(s), dn].
        let e_lo = tasks
            .iter()
            .filter(|t| t.w > 0.0)
            .map(|t| s.max(t.r) + t.w / pw.s_up)
            .fold(rn.max(s), f64::max);
        if e_lo < dn {
            let (xe, fx) = minimize_unimodal(|x| objective(tasks, s, x, pw), e_lo, dn, 1e-13);
            if fx <= best_f {
                e = xe;
                best_f = fx;
            }
        }

        // Diagonal polish: slide the whole interval (guards against
        // coordinate-descent stalls on the coupled constraint corner).
        let width = e - s;
        let t_lo = r1 - s;
        let t_hi = dn - e;
        if t_hi > t_lo {
            let (t, ft) =
                minimize_unimodal(|t| objective(tasks, s + t, e + t, pw), t_lo, t_hi, 1e-13);
            if ft < best_f {
                s += t;
                e = s + width;
                best_f = ft;
            }
        }
        let scale = best_f.abs().max(1.0);
        if (pf - best_f).abs() <= DESCENT_TOL * scale
            && (ps - s).abs() + (pe - e).abs() <= 1e-11 * (dn - r1).max(1.0)
        {
            break;
        }
    }

    BlockSolution {
        s,
        e,
        energy: best_f,
    }
}

/// Writes the per-task `(start, length)` runs of `blk` into `out`
/// (cleared first), parallel to `tasks`: each task starts at
/// `max(s, r_k)` and runs its best-response length. Zero-work tasks get
/// `(start, 0)`.
pub(crate) fn runs_into(
    tasks: &[BlockTask],
    blk: &BlockSolution,
    pw: &PowerParams,
    out: &mut Vec<(f64, f64)>,
) {
    let (s, e) = (blk.s, blk.e);
    out.clear();
    out.extend(tasks.iter().map(|t| {
        if t.w == 0.0 {
            return (s.max(t.r), 0.0);
        }
        let win = window(t, s, e);
        let l = best_run_length(t.w, win, pw);
        (s.max(t.r), l)
    }));
}

/// Dense grid oracle for one block: sweeps `(s, e)` over a `grid × grid`
/// lattice of the feasible rectangle. Used by tests and ablation benches.
pub(crate) fn grid_oracle(tasks: &[BlockTask], pw: &PowerParams, grid: usize) -> f64 {
    let r1 = tasks[0].r;
    let d1 = tasks.iter().map(|t| t.d).fold(f64::INFINITY, f64::min);
    let rn = tasks.iter().map(|t| t.r).fold(f64::NEG_INFINITY, f64::max);
    let dn = tasks.last().expect("non-empty").d;
    let mut best = f64::INFINITY;
    for a in 0..grid {
        let s = r1 + (d1 - r1) * (a as f64) / ((grid - 1) as f64);
        for b in 0..grid {
            let e = rn.max(s) + (dn - rn.max(s)) * (b as f64) / ((grid - 1) as f64);
            if e <= s {
                continue;
            }
            let f = objective(tasks, s, e, pw);
            if f < best {
                best = f;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn task_best_energy_flat_beyond_critical() {
        // α = 4, β = 1, λ = 3 ⇒ s_m = 2^{1/3}, critical run = w / s_m.
        let p = pw(4.0, 1.0);
        let w = 2.0;
        let l_crit = w / p.s_m;
        let e1 = task_best_energy(w, l_crit, &p);
        let e2 = task_best_energy(w, l_crit * 3.0, &p);
        assert!((e1 - e2).abs() < 1e-12, "flat region broken: {e1} vs {e2}");
        // Shorter windows cost more.
        assert!(task_best_energy(w, l_crit * 0.5, &p) > e1);
    }

    #[test]
    fn task_best_energy_infeasible_window() {
        let mut p = pw(0.0, 1.0);
        p.s_up = 1.0;
        assert_eq!(task_best_energy(3.0, 2.0, &p), f64::INFINITY);
        assert!(task_best_energy(3.0, 3.0, &p).is_finite());
    }

    #[test]
    fn single_task_block_matches_common_release() {
        // One task [0, 10], w = 2; α = 0, α_m = 4. The optimal busy interval
        // must end at T with α_m − 2βw³T^{−3} = 0 ⇒ T = (2·8/4)^{1/3}.
        let p = pw(0.0, 4.0);
        let tasks = [bt(0, 0.0, 10.0, 2.0)];
        let sol = solve(&tasks, &p);
        let t_star = (2.0f64 * 8.0 / 4.0).powf(1.0 / 3.0);
        // The busy-interval position is not unique for a single interior
        // task; only its width is determined.
        assert!(
            ((sol.e - sol.s) - t_star).abs() < 1e-6,
            "width {} vs {t_star}",
            sol.e - sol.s
        );
    }

    #[test]
    fn single_task_block_alpha_nonzero_uses_joint_speed() {
        // α = 4, α_m = 12 ⇒ joint speed s_cm = (16/2)^{1/3} = 2; the block
        // should shrink to w/s_cm = 1 s and the task runs at speed 2.
        let p = pw(4.0, 12.0);
        let tasks = [bt(0, 0.0, 50.0, 2.0)];
        let sol = solve(&tasks, &p);
        assert!(
            ((sol.e - sol.s) - 1.0).abs() < 1e-6,
            "block {}..{}",
            sol.s,
            sol.e
        );
        let mut runs = Vec::new();
        runs_into(&tasks, &sol, &p, &mut runs);
        let (start, len) = runs[0];
        assert!((len - 1.0).abs() < 1e-6);
        assert!(start >= sol.s - 1e-9);
    }

    #[test]
    fn solve_matches_grid_oracle() {
        let cases: Vec<(f64, f64, Vec<BlockTask>)> = vec![
            (0.0, 4.0, vec![bt(0, 0.0, 6.0, 2.0), bt(1, 1.0, 9.0, 3.0)]),
            (
                4.0,
                6.0,
                vec![
                    bt(0, 0.0, 5.0, 2.0),
                    bt(1, 2.0, 8.0, 1.0),
                    bt(2, 3.0, 12.0, 4.0),
                ],
            ),
            (1.0, 0.5, vec![bt(0, 0.0, 4.0, 1.0), bt(1, 0.5, 6.0, 2.0)]),
        ];
        for (alpha, alpha_m, tasks) in cases {
            let p = pw(alpha, alpha_m);
            let sol = solve(&tasks, &p);
            let oracle = grid_oracle(&tasks, &p, 300);
            assert!(
                sol.energy <= oracle * (1.0 + 1e-6),
                "α={alpha} αm={alpha_m}: solver {} > oracle {oracle}",
                sol.energy
            );
            assert!(
                sol.energy >= oracle * (1.0 - 2e-2),
                "α={alpha} αm={alpha_m}: solver {} ≪ oracle {oracle}",
                sol.energy
            );
        }
    }

    #[test]
    fn runs_fit_their_windows() {
        let p = pw(4.0, 6.0);
        let tasks = [
            bt(0, 0.0, 5.0, 2.0),
            bt(1, 2.0, 8.0, 1.0),
            bt(2, 3.0, 12.0, 4.0),
        ];
        let sol = solve(&tasks, &p);
        let mut runs = Vec::new();
        runs_into(&tasks, &sol, &p, &mut runs);
        for (t, &(start, len)) in tasks.iter().zip(&runs) {
            assert!(start >= t.r - 1e-9);
            assert!(start + len <= t.d + 1e-9);
            assert!(start >= sol.s - 1e-9);
            assert!(start + len <= sol.e + 1e-9, "run leaves block");
            let speed = t.w / len;
            assert!(speed <= p.s_up * (1.0 + 1e-9));
        }
    }

    #[test]
    fn speed_cap_binds() {
        let mut p = pw(0.0, 1e9);
        p.s_up = 2.0;
        // Huge memory power wants a tiny block, but s_up = 2 limits it.
        let tasks = [bt(0, 0.0, 10.0, 4.0), bt(1, 0.0, 10.0, 6.0)];
        let sol = solve(&tasks, &p);
        // Fastest possible block: max(w)/s_up = 3.
        assert!(
            (sol.e - sol.s - 3.0).abs() < 1e-6,
            "block {}",
            sol.e - sol.s
        );
    }

    #[test]
    fn zero_work_tasks_are_free() {
        let p = pw(0.0, 4.0);
        let both = [bt(0, 0.0, 10.0, 2.0), bt(1, 0.0, 10.0, 0.0)];
        let with = solve(&both, &p);
        let without = solve(&[bt(0, 0.0, 10.0, 2.0)], &p);
        assert!((with.energy - without.energy).abs() < 1e-9);
        let mut runs = Vec::new();
        runs_into(&both, &with, &p, &mut runs);
        assert_eq!(runs[1].1, 0.0);
    }

    #[test]
    fn objective_is_infinite_when_infeasible() {
        let mut p = pw(0.0, 1.0);
        p.s_up = 1.0;
        let tasks = [bt(0, 0.0, 10.0, 5.0)];
        assert_eq!(objective(&tasks, 0.0, 2.0, &p), f64::INFINITY);
        assert!(objective(&tasks, 0.0, 6.0, &p).is_finite());
    }
}
