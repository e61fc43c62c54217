//! The unified scheduling API: a [`Scheme`] value names one of the paper's
//! schemes, and [`solve`]/[`solve_in`] run it, routing [`Scheme::Auto`]
//! from the task-set shape (common release → §4/§7, agreeable → §5,
//! general → §6).
//!
//! Each scheme has exactly one implementation — an `_in` function in its
//! module that draws scratch and output buffers from a [`Workspace`] (for
//! example [`common_release::schedule_alpha_zero_in`]) — and
//! [`Scheme::solve_into`] calls it directly. The one exception is
//! [`Scheme::BoundedExact`]: it keeps the enumerator's size limit and
//! error order but is served by the branch-and-bound, which returns the
//! same bits far faster; the enumerator [`bounded::solve_exact_in`] stays
//! as the test oracle, like [`common_release::reference_optimum`]. The
//! [`Scheduler`] trait is the object-safe seam over that dispatch, so
//! harness layers such as [`crate::solve_or_fallback_with`] can take any
//! solver (a `Scheme`, or a test double) as `&dyn Scheduler`.
//!
//! # Examples
//!
//! ```
//! use sdem_core::{solve, Scheme, Scheduler};
//! use sdem_power::Platform;
//! use sdem_types::{Cycles, Task, TaskSet, Time};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::paper_defaults();
//! let tasks = TaskSet::new(vec![
//!     Task::new(0, Time::ZERO, Time::from_millis(30.0), Cycles::new(6.0e6)),
//!     Task::new(1, Time::ZERO, Time::from_millis(80.0), Cycles::new(9.0e6)),
//! ])?;
//! // Auto picks the overhead-aware common-release scheme here.
//! let solution = solve(&tasks, &platform, Scheme::Auto)?;
//! assert!(solution.predicted_energy().value() > 0.0);
//! // Scheme values are also schedulers themselves:
//! let same = Scheme::CommonReleaseOverhead.solve(&tasks, &platform)?;
//! assert_eq!(solution.predicted_energy(), same.predicted_energy());
//! # Ok(())
//! # }
//! ```

use sdem_power::Platform;
use sdem_types::{TaskSet, Workspace};

use crate::{agreeable, bounded, common_release, online, overhead, SdemError, Solution};

/// The object-safe solver interface: [`Scheme`] implements it, and so can
/// any wrapper that harness layers should treat like a scheme.
///
/// A scheduler maps an instance (task set + platform) to a [`Solution`]:
/// the explicit schedule plus the scheme's analytic energy. Schedulers are
/// stateless values, so trait objects (`&dyn Scheduler`) are cheap to pass
/// through harness layers.
pub trait Scheduler {
    /// Solves the instance.
    ///
    /// The default implementation delegates to [`Scheduler::solve_into`]
    /// with a throwaway [`Workspace`], so every scheme has exactly one
    /// code path and the two entry points are bit-identical.
    ///
    /// # Errors
    ///
    /// Scheme-specific [`SdemError`]s: shape mismatches
    /// ([`SdemError::NotCommonRelease`], [`SdemError::NotAgreeable`]),
    /// infeasibility, or size limits of exact solvers.
    fn solve(&self, tasks: &TaskSet, platform: &Platform) -> Result<Solution, SdemError> {
        self.solve_into(tasks, platform, &mut Workspace::new())
    }

    /// Solves the instance drawing all scratch and output buffers from
    /// `ws`. Repeated calls with the same warmed workspace are
    /// allocation-free on the analytic (common-release) schemes; recycle
    /// each solution's schedule back via [`Workspace::recycle_schedule`]
    /// to keep the arena primed.
    ///
    /// # Errors
    ///
    /// Same as [`Scheduler::solve`].
    fn solve_into(
        &self,
        tasks: &TaskSet,
        platform: &Platform,
        ws: &mut Workspace,
    ) -> Result<Solution, SdemError>;
}

/// Scheme selector for [`solve`]: every paper scheme as a value, plus
/// [`Scheme::Auto`] and [`Scheme::BoundedAuto`] routing. Each resolved
/// variant runs exactly the `_in` function its doc names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum Scheme {
    /// Route from the task-set shape and the platform (see [`solve`]).
    #[default]
    Auto,
    /// §4.1 optimal scheme — common release, `α = 0`
    /// ([`common_release::schedule_alpha_zero_in`]).
    CommonReleaseAlphaZero,
    /// §4.2 optimal scheme — common release, `α ≠ 0`
    /// ([`common_release::schedule_alpha_nonzero_in`]).
    CommonReleaseAlphaNonzero,
    /// §7 overhead-aware common-release scheme, Table 3
    /// ([`overhead::schedule_common_release_in`]).
    CommonReleaseOverhead,
    /// §5 agreeable-deadline DP with the block best-response solver
    /// ([`agreeable::schedule_in`]).
    Agreeable,
    /// Overlap-free variant of the agreeable DP, DESIGN.md deviation 3
    /// ([`agreeable::schedule_strict_in`]).
    AgreeableStrict,
    /// §7 overhead-aware agreeable scheme
    /// ([`overhead::schedule_agreeable_in`]).
    AgreeableOverhead,
    /// §6 online heuristic SDEM-ON on an unbounded core pool
    /// ([`online::schedule_online_in`]).
    Online,
    /// §6 online heuristic with the given hard core budget
    /// ([`online::schedule_online_bounded_in`]).
    OnlineBounded(usize),
    /// §3 bounded-core LPT heuristic with the given core count
    /// ([`bounded::solve_lpt_in`]).
    BoundedLpt(usize),
    /// §3 bounded-core exact optimum with the given core count, up to
    /// [`bounded::EXACT_LIMIT`] tasks. Served by the branch-and-bound
    /// ([`bounded::solve_bnb_in`], unbudgeted on that range), which is
    /// bit-identical to the enumeration oracle
    /// [`bounded::solve_exact_in`]; errors keep the enumerator's order
    /// and limit.
    BoundedExact(usize),
    /// §3 bounded-core branch-and-bound with the given core count — exact
    /// results, bit-identical to [`Scheme::BoundedExact`] on instances
    /// both accept, up to [`bounded::BNB_LIMIT`] tasks
    /// ([`bounded::solve_bnb_in`]).
    BoundedBnb(usize),
    /// §3 bounded-core LPT + local-search refinement with the given core
    /// count, any instance size ([`bounded::solve_refined_in`]).
    BoundedRefined(usize),
    /// Size-routed bounded-core tiering with the given core count:
    /// [`Scheme::resolve`] picks the strongest tier the instance size
    /// admits — exact (`n ≤` [`bounded::EXACT_LIMIT`]), branch-and-bound
    /// (`n ≤` [`bounded::BNB_LIMIT`]), else LPT + refine.
    BoundedAuto(usize),
    /// Federated decomposition onto the given core budget: tasks are packed
    /// LPT-style onto cores, chopped into sequential per-core windows, and
    /// each core's window sequence is energy-minimized by the routed paper
    /// solvers ([`crate::dag::solve_federated_in`]).
    DagFederated(usize),
}

impl Scheme {
    /// Observability label for a resolved scheme's solve site
    /// (`"solve/<scheme-name>"`), usable with `sdem-obs`'s
    /// `&'static str`-labeled histogram and span registries.
    pub fn solve_label(self) -> &'static str {
        match self {
            Scheme::Auto => "solve/auto",
            Scheme::CommonReleaseAlphaZero => "solve/common-release-alpha-zero",
            Scheme::CommonReleaseAlphaNonzero => "solve/common-release-alpha-nonzero",
            Scheme::CommonReleaseOverhead => "solve/common-release-overhead",
            Scheme::Agreeable => "solve/agreeable",
            Scheme::AgreeableStrict => "solve/agreeable-strict",
            Scheme::AgreeableOverhead => "solve/agreeable-overhead",
            Scheme::Online => "solve/online",
            Scheme::OnlineBounded(_) => "solve/online-bounded",
            Scheme::BoundedLpt(_) => "solve/bounded-lpt",
            Scheme::BoundedExact(_) => "solve/bounded-exact",
            Scheme::BoundedBnb(_) => "solve/bounded-bnb",
            Scheme::BoundedRefined(_) => "solve/bounded-refined",
            Scheme::BoundedAuto(_) => "solve/bounded-auto",
            Scheme::DagFederated(_) => "solve/dag-federated",
        }
    }

    /// Resolves [`Scheme::Auto`] against a concrete instance: common
    /// release → §7 when any break-even is positive, else the §4 scheme
    /// matching `α`; agreeable deadlines → the §5 DP (overhead-aware when
    /// break-evens are positive); anything else → SDEM-ON.
    pub fn resolve(self, tasks: &TaskSet, platform: &Platform) -> Scheme {
        self.resolve_in(tasks, platform, &mut Workspace::new())
    }

    /// In-place [`Scheme::resolve`]: the agreeability check sorts in a
    /// task buffer drawn from `ws`.
    fn resolve_in(self, tasks: &TaskSet, platform: &Platform, ws: &mut Workspace) -> Scheme {
        if let Scheme::BoundedAuto(cores) = self {
            // Strongest tier the size admits: exact → B&B → LPT + refine.
            let n = tasks.len();
            return if n <= bounded::EXACT_LIMIT {
                Scheme::BoundedExact(cores)
            } else if n <= bounded::BNB_LIMIT {
                Scheme::BoundedBnb(cores)
            } else {
                Scheme::BoundedRefined(cores)
            };
        }
        if self != Scheme::Auto {
            return self;
        }
        let has_overhead = platform.core().break_even().value() > 0.0
            || platform.memory().break_even().value() > 0.0;
        if tasks.is_common_release() {
            if has_overhead {
                Scheme::CommonReleaseOverhead
            } else if platform.core().is_alpha_zero() {
                Scheme::CommonReleaseAlphaZero
            } else {
                Scheme::CommonReleaseAlphaNonzero
            }
        } else if agreeable_in(tasks, ws) {
            if has_overhead {
                Scheme::AgreeableOverhead
            } else {
                Scheme::Agreeable
            }
        } else {
            Scheme::Online
        }
    }
}

impl Scheduler for Scheme {
    fn solve_into(
        &self,
        tasks: &TaskSet,
        platform: &Platform,
        ws: &mut Workspace,
    ) -> Result<Solution, SdemError> {
        let resolved = self.resolve_in(tasks, platform, ws);
        // One relaxed load each when observability is off; the labeled
        // histogram sample and span are recorded only when enabled.
        let label = resolved.solve_label();
        let clock = sdem_obs::registry::maybe_start();
        let _span = sdem_obs::trace::span(label);
        let result = match resolved {
            Scheme::Auto => unreachable!("resolve never returns Auto"),
            Scheme::BoundedAuto(_) => unreachable!("resolve never returns BoundedAuto"),
            Scheme::CommonReleaseAlphaZero => {
                common_release::schedule_alpha_zero_in(tasks, platform, ws)
            }
            Scheme::CommonReleaseAlphaNonzero => {
                common_release::schedule_alpha_nonzero_in(tasks, platform, ws)
            }
            Scheme::CommonReleaseOverhead => {
                overhead::schedule_common_release_in(tasks, platform, ws)
            }
            Scheme::Agreeable => agreeable::schedule_in(tasks, platform, ws),
            Scheme::AgreeableStrict => agreeable::schedule_strict_in(tasks, platform, ws),
            Scheme::AgreeableOverhead => overhead::schedule_agreeable_in(tasks, platform, ws),
            Scheme::Online => online::schedule_online_in(tasks, platform, ws)
                .map(|schedule| Solution::from_schedule_in(schedule, platform, ws)),
            Scheme::OnlineBounded(n) => online::schedule_online_bounded_in(tasks, platform, n, ws)
                .map(|schedule| Solution::from_schedule_in(schedule, platform, ws)),
            Scheme::BoundedLpt(n) => bounded::solve_lpt_in(tasks, platform, n, ws),
            Scheme::BoundedExact(n) => bounded_exact_in(tasks, platform, n, ws),
            Scheme::BoundedBnb(n) => bounded::solve_bnb_in(tasks, platform, n, ws),
            Scheme::BoundedRefined(n) => bounded::solve_refined_in(tasks, platform, n, ws),
            Scheme::DagFederated(n) => crate::dag::solve_federated_in(tasks, platform, n, ws),
        };
        sdem_obs::registry::record_elapsed(label, clock);
        result
    }
}

/// [`TaskSet::is_agreeable`] with its sort buffer drawn from `ws`.
fn agreeable_in(tasks: &TaskSet, ws: &mut Workspace) -> bool {
    let mut scratch = ws.take_tasks();
    let agreeable = tasks.is_agreeable_in(&mut scratch);
    ws.recycle_tasks(scratch);
    agreeable
}

/// [`Scheme::BoundedExact`]: the enumerator's contract served by the
/// branch-and-bound. The preconditions are checked in the enumerator's
/// order (no cores, then its size limit); within that limit the search is
/// unbudgeted and bit-identical to [`bounded::solve_exact_in`] — energy,
/// schedule, tie-break and infeasibility witness.
fn bounded_exact_in(
    tasks: &TaskSet,
    platform: &Platform,
    cores: usize,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    if cores == 0 {
        return Err(SdemError::NoCores);
    }
    if tasks.len() > bounded::EXACT_LIMIT {
        return Err(SdemError::TooLarge {
            tasks: tasks.len(),
            limit: bounded::EXACT_LIMIT,
        });
    }
    bounded::solve_bnb_in(tasks, platform, cores, ws)
}

/// Solves `tasks` on `platform` with the selected [`Scheme`] — the single
/// entry point the CLI and the sweep harness use.
///
/// # Errors
///
/// Whatever the routed scheme returns; see [`Scheduler::solve`].
pub fn solve(tasks: &TaskSet, platform: &Platform, scheme: Scheme) -> Result<Solution, SdemError> {
    scheme.solve(tasks, platform)
}

/// In-place [`solve`]: scratch and output buffers come from `ws`. With a
/// warmed workspace, repeated trials on the analytic schemes allocate
/// nothing; recycle each solution's schedule back via
/// [`Workspace::recycle_schedule`] between trials.
///
/// # Errors
///
/// Whatever the routed scheme returns; see [`Scheduler::solve`].
pub fn solve_in(
    tasks: &TaskSet,
    platform: &Platform,
    scheme: Scheme,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    scheme.solve_into(tasks, platform, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_types::{Cycles, Task, Time};

    fn common_release_set() -> TaskSet {
        TaskSet::new(vec![
            Task::new(0, Time::ZERO, Time::from_millis(30.0), Cycles::new(6.0e6)),
            Task::new(1, Time::ZERO, Time::from_millis(80.0), Cycles::new(9.0e6)),
        ])
        .unwrap()
    }

    fn general_set() -> TaskSet {
        TaskSet::new(vec![
            Task::new(0, Time::ZERO, Time::from_millis(90.0), Cycles::new(6.0e6)),
            Task::new(
                1,
                Time::from_millis(10.0),
                Time::from_millis(60.0),
                Cycles::new(9.0e6),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn auto_routes_common_release_with_overheads() {
        let platform = Platform::paper_defaults();
        let tasks = common_release_set();
        assert_eq!(
            Scheme::Auto.resolve(&tasks, &platform),
            Scheme::CommonReleaseOverhead
        );
        let auto = solve(&tasks, &platform, Scheme::Auto).unwrap();
        let direct =
            overhead::schedule_common_release_in(&tasks, &platform, &mut Workspace::new()).unwrap();
        assert_eq!(auto.predicted_energy(), direct.predicted_energy());
    }

    #[test]
    fn auto_routes_general_sets_to_online() {
        let platform = Platform::paper_defaults();
        let tasks = general_set();
        assert_eq!(Scheme::Auto.resolve(&tasks, &platform), Scheme::Online);
        let solution = solve(&tasks, &platform, Scheme::Auto).unwrap();
        solution.schedule().validate(&tasks).unwrap();
        assert!(solution.predicted_energy().value() > 0.0);
    }

    #[test]
    fn schedulers_are_object_safe() {
        let platform = Platform::paper_defaults();
        // The §3 bounded solvers need one shared (release, deadline) pair.
        let tasks = TaskSet::new(vec![
            Task::new(0, Time::ZERO, Time::from_millis(80.0), Cycles::new(6.0e6)),
            Task::new(1, Time::ZERO, Time::from_millis(80.0), Cycles::new(9.0e6)),
        ])
        .unwrap();
        let zoo: Vec<Box<dyn Scheduler>> = vec![
            Box::new(Scheme::CommonReleaseOverhead),
            Box::new(Scheme::Online),
            Box::new(Scheme::OnlineBounded(4)),
            Box::new(Scheme::BoundedLpt(4)),
            Box::new(Scheme::Auto),
        ];
        for s in &zoo {
            let sol = s.solve(&tasks, &platform).unwrap();
            assert!(sol.predicted_energy().value() > 0.0);
        }
    }

    #[test]
    fn bounded_auto_routes_by_size() {
        let platform = Platform::paper_defaults();
        let sized = |n: usize| {
            TaskSet::new(
                (0..n)
                    .map(|i| Task::new(i, Time::ZERO, Time::from_millis(80.0), Cycles::new(1.0e6)))
                    .collect(),
            )
            .unwrap()
        };
        let small = sized(bounded::EXACT_LIMIT);
        let medium = sized(bounded::EXACT_LIMIT + 1);
        let large = sized(bounded::BNB_LIMIT + 1);
        assert_eq!(
            Scheme::BoundedAuto(4).resolve(&small, &platform),
            Scheme::BoundedExact(4)
        );
        assert_eq!(
            Scheme::BoundedAuto(4).resolve(&medium, &platform),
            Scheme::BoundedBnb(4)
        );
        assert_eq!(
            Scheme::BoundedAuto(4).resolve(&large, &platform),
            Scheme::BoundedRefined(4)
        );
        // The routed solve agrees with calling the tier directly.
        for tasks in [small, medium, large] {
            let auto = solve(&tasks, &platform, Scheme::BoundedAuto(4)).unwrap();
            let direct = solve(
                &tasks,
                &platform,
                Scheme::BoundedAuto(4).resolve(&tasks, &platform),
            )
            .unwrap();
            assert_eq!(
                auto.predicted_energy().value().to_bits(),
                direct.predicted_energy().value().to_bits()
            );
        }
    }

    #[test]
    fn bounded_tier_schedulers_are_object_safe() {
        let platform = Platform::paper_defaults();
        let tasks = TaskSet::new(vec![
            Task::new(0, Time::ZERO, Time::from_millis(80.0), Cycles::new(6.0e6)),
            Task::new(1, Time::ZERO, Time::from_millis(80.0), Cycles::new(9.0e6)),
        ])
        .unwrap();
        let zoo: Vec<Box<dyn Scheduler>> = vec![
            Box::new(Scheme::BoundedBnb(2)),
            Box::new(Scheme::BoundedRefined(2)),
            Box::new(Scheme::BoundedAuto(2)),
        ];
        for s in &zoo {
            let sol = s.solve(&tasks, &platform).unwrap();
            sol.schedule().validate(&tasks).unwrap();
        }
    }

    #[test]
    fn online_solution_energy_accounts_memory_sleep() {
        let platform = Platform::paper_defaults();
        // Two far-apart arrivals: the gap between their busy intervals
        // exceeds ξ_m = 40 ms, so the wrapper must record memory sleep.
        let tasks = TaskSet::new(vec![
            Task::new(0, Time::ZERO, Time::from_millis(20.0), Cycles::new(6.0e6)),
            Task::new(
                1,
                Time::from_millis(500.0),
                Time::from_millis(520.0),
                Cycles::new(6.0e6),
            ),
        ])
        .unwrap();
        let sol = Scheme::Online.solve(&tasks, &platform).unwrap();
        assert!(
            sol.memory_sleep().value() > 0.0,
            "expected a sleeping gap, got {:?}",
            sol.memory_sleep()
        );
    }
}
