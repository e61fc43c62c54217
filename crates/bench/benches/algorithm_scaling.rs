//! Runtime scaling of every SDEM scheme against the task count, matching
//! the complexity claims of the paper's Table 1: §4.1 `O(n log n)`, §4.2
//! `O(n²)`, the agreeable DP `O(n⁴)`/`O(n⁵)`, and the per-arrival cost of
//! SDEM-ON.

use sdem_bench::microbench::bench;
use sdem_core::discrete::{quantize_schedule, SpeedLevels};
use sdem_core::{agreeable, solve, Scheme};
use sdem_power::Platform;
use sdem_types::Time;
use sdem_workload::synthetic::{self, SyntheticConfig};

fn cfg(n: usize) -> SyntheticConfig {
    SyntheticConfig::paper(n, Time::from_millis(200.0))
}

fn bench_common_release(platform: &Platform) {
    for n in [8usize, 32, 128, 512] {
        let tasks = synthetic::common_release(&cfg(n), 11);
        bench(&format!("common_release/alpha_zero_4_1/{n}"), || {
            solve(&tasks, platform, Scheme::CommonReleaseAlphaZero).unwrap()
        });
        bench(&format!("common_release/alpha_nonzero_4_2/{n}"), || {
            solve(&tasks, platform, Scheme::CommonReleaseAlphaNonzero).unwrap()
        });
        bench(&format!("common_release/overhead_7/{n}"), || {
            solve(&tasks, platform, Scheme::CommonReleaseOverhead).unwrap()
        });
    }
}

fn bench_agreeable(platform: &Platform) {
    for n in [4usize, 8, 16, 24] {
        let tasks = synthetic::agreeable(&cfg(n), 23);
        bench(&format!("agreeable_dp/best_response/{n}"), || {
            agreeable::schedule_with_solver(
                &tasks,
                platform,
                agreeable::BlockSolverKind::BestResponse,
            )
            .unwrap()
        });
    }
}

fn bench_online(platform: &Platform) {
    for n in [16usize, 64, 256] {
        let tasks = synthetic::sporadic(&cfg(n), 31);
        bench(&format!("online_sdem_on/schedule_online/{n}"), || {
            solve(&tasks, platform, Scheme::Online).unwrap()
        });
    }
}

fn bench_extensions(platform: &Platform) {
    // Discrete quantization of an online schedule.
    let tasks = synthetic::sporadic(&cfg(64), 5);
    let sched = solve(&tasks, platform, Scheme::Online)
        .unwrap()
        .into_schedule();
    let table = SpeedLevels::evenly_spaced(platform.core(), 16);
    bench("extensions/quantize_64_tasks_16_levels", || {
        quantize_schedule(&sched, &table).unwrap()
    });

    // Bounded-core: the exact tier (served by the branch-and-bound) vs LPT.
    let small = synthetic::common_release(&cfg(10), 9);
    let common_deadline = sdem_types::TaskSet::new(
        small
            .iter()
            .map(|t| {
                sdem_types::Task::new(t.id().0, Time::ZERO, Time::from_millis(200.0), t.work())
            })
            .collect(),
    )
    .unwrap();
    bench("extensions/bounded_exact_n10_c3", || {
        solve(&common_deadline, platform, Scheme::BoundedExact(3)).unwrap()
    });
    bench("extensions/bounded_lpt_n10_c3", || {
        solve(&common_deadline, platform, Scheme::BoundedLpt(3)).unwrap()
    });
}

fn main() {
    let platform = Platform::paper_defaults();
    bench_common_release(&platform);
    bench_agreeable(&platform);
    bench_online(&platform);
    bench_extensions(&platform);
}
