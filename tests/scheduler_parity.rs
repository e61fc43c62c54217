//! The `Scheme` dispatch must be a pure re-routing layer: every variant's
//! predicted energy and memory sleep must be bit-identical to the `_in`
//! function it names, `Scheme::Auto` must pick the same scheme the shape
//! analysis dictates, and the common-release schemes must stay within
//! tolerance of the independent grid oracle.

use sdem::core::{agreeable, common_release, online, overhead, solve, Scheme, Solution};
use sdem::power::{CorePower, MemoryPower, Platform, PlatformBuilder};
use sdem::types::{Cycles, Task, TaskSet, Time, Watts, Workspace};

/// Bit-for-bit equality of the analytic outputs of two solves.
fn assert_same_bits(a: &Solution, b: &Solution, what: &str) {
    assert_eq!(
        a.predicted_energy().value().to_bits(),
        b.predicted_energy().value().to_bits(),
        "{what}: energy {} vs {}",
        a.predicted_energy().value(),
        b.predicted_energy().value()
    );
    assert_eq!(
        a.memory_sleep().value().to_bits(),
        b.memory_sleep().value().to_bits(),
        "{what}: memory sleep {:?} vs {:?}",
        a.memory_sleep(),
        b.memory_sleep()
    );
}

/// The scheme's energy is within the grid oracle's resolution: never above
/// the sampled minimum, and not below it by more than the grid step allows.
fn assert_within_oracle(sol: &Solution, tasks: &TaskSet, platform: &Platform, what: &str) {
    let oracle = common_release::reference_optimum(tasks, platform, 5000)
        .unwrap()
        .value();
    let e = sol.predicted_energy().value();
    assert!(
        e <= oracle * (1.0 + 1e-9),
        "{what}: scheme {e} > oracle {oracle}"
    );
    assert!(
        e >= oracle * (1.0 - 5e-3),
        "{what}: scheme {e} below oracle {oracle} by too much"
    );
}

fn common_release_set() -> TaskSet {
    TaskSet::new(vec![
        Task::new(0, Time::ZERO, Time::from_millis(40.0), Cycles::new(8.0e6)),
        Task::new(1, Time::ZERO, Time::from_millis(70.0), Cycles::new(12.0e6)),
        Task::new(2, Time::ZERO, Time::from_millis(110.0), Cycles::new(20.0e6)),
    ])
    .unwrap()
}

fn agreeable_set() -> TaskSet {
    TaskSet::new(vec![
        Task::new(0, Time::ZERO, Time::from_millis(50.0), Cycles::new(6.0e6)),
        Task::new(
            1,
            Time::from_millis(20.0),
            Time::from_millis(90.0),
            Cycles::new(9.0e6),
        ),
        Task::new(
            2,
            Time::from_millis(60.0),
            Time::from_millis(150.0),
            Cycles::new(14.0e6),
        ),
    ])
    .unwrap()
}

fn general_set() -> TaskSet {
    // Neither common-release nor agreeable: the second task's window nests
    // inside the first's.
    TaskSet::new(vec![
        Task::new(0, Time::ZERO, Time::from_millis(120.0), Cycles::new(10.0e6)),
        Task::new(
            1,
            Time::from_millis(20.0),
            Time::from_millis(60.0),
            Cycles::new(6.0e6),
        ),
        Task::new(
            2,
            Time::from_millis(80.0),
            Time::from_millis(200.0),
            Cycles::new(12.0e6),
        ),
    ])
    .unwrap()
}

/// A zero-break-even platform so the non-overhead schemes apply.
fn free_transition_platform() -> Platform {
    Platform::new(
        CorePower::from_paper_units(310.0, 2.53e-7, 3.0, 700.0, 1900.0),
        MemoryPower::new(Watts::new(4.0)),
    )
}

#[test]
fn common_release_schemes_match_free_functions() {
    let tasks = common_release_set();
    let p = free_transition_platform();
    let via_scheme = solve(&tasks, &p, Scheme::CommonReleaseAlphaNonzero).unwrap();
    let direct =
        common_release::schedule_alpha_nonzero_in(&tasks, &p, &mut Workspace::new()).unwrap();
    assert_same_bits(&via_scheme, &direct, "§4.2 via Scheme");
    assert_within_oracle(&via_scheme, &tasks, &p, "§4.2 vs grid oracle");

    let alpha_zero = Platform::new(
        CorePower::from_paper_units(0.0, 2.53e-7, 3.0, 700.0, 1900.0),
        MemoryPower::new(Watts::new(4.0)),
    );
    let via_scheme = solve(&tasks, &alpha_zero, Scheme::CommonReleaseAlphaZero).unwrap();
    let direct =
        common_release::schedule_alpha_zero_in(&tasks, &alpha_zero, &mut Workspace::new()).unwrap();
    assert_same_bits(&via_scheme, &direct, "§4.1 via Scheme");
    assert_within_oracle(&via_scheme, &tasks, &alpha_zero, "§4.1 vs grid oracle");

    // With ξ = ξ_m = 0 the §7 scheme prices exactly the oracle's model.
    let free_overhead = solve(&tasks, &p, Scheme::CommonReleaseOverhead).unwrap();
    assert_within_oracle(&free_overhead, &tasks, &p, "§7 (ξ = 0) vs grid oracle");

    let overhead_p = PlatformBuilder::new()
        .core_break_even(Time::from_millis(2.0))
        .memory_break_even(Time::from_millis(40.0))
        .build()
        .unwrap();
    let direct =
        overhead::schedule_common_release_in(&tasks, &overhead_p, &mut Workspace::new()).unwrap();
    assert_same_bits(
        &solve(&tasks, &overhead_p, Scheme::CommonReleaseOverhead).unwrap(),
        &direct,
        "§7 via Scheme",
    );
    // Auto on a common-release set with positive break-evens routes to §7.
    assert_same_bits(
        &solve(&tasks, &overhead_p, Scheme::Auto).unwrap(),
        &direct,
        "Auto → §7",
    );
}

#[test]
fn agreeable_schemes_match_free_functions() {
    let tasks = agreeable_set();
    let p = free_transition_platform();
    let direct = agreeable::schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
    assert_same_bits(
        &solve(&tasks, &p, Scheme::Agreeable).unwrap(),
        &direct,
        "§5 DP via Scheme",
    );
    assert_same_bits(
        &solve(&tasks, &p, Scheme::AgreeableStrict).unwrap(),
        &agreeable::schedule_strict_in(&tasks, &p, &mut Workspace::new()).unwrap(),
        "strict DP via Scheme",
    );
    assert_same_bits(
        &solve(&tasks, &p, Scheme::AgreeableOverhead).unwrap(),
        &overhead::schedule_agreeable_in(&tasks, &p, &mut Workspace::new()).unwrap(),
        "§7 agreeable via Scheme",
    );
    assert_same_bits(
        &solve(&tasks, &p, Scheme::Auto).unwrap(),
        &direct,
        "Auto → §5 DP",
    );
}

#[test]
fn online_scheme_matches_free_function() {
    let tasks = general_set();
    let p = free_transition_platform();
    let via_scheme = solve(&tasks, &p, Scheme::Online).unwrap();
    let mut ws = Workspace::new();
    let free = online::schedule_online_in(&tasks, &p, &mut ws).unwrap();
    // The free function returns a bare schedule; the Scheme wraps it with
    // the analytic meter, so compare schedule shape plus metered energy.
    assert_eq!(
        via_scheme.schedule().placements().len(),
        free.placements().len()
    );
    let priced = Solution::from_schedule_in(free, &p, &mut ws);
    assert_same_bits(&via_scheme, &priced, "SDEM-ON via Scheme");
    let auto = solve(&tasks, &p, Scheme::Auto).unwrap();
    assert_same_bits(&auto, &via_scheme, "Auto → SDEM-ON on a general set");
}
