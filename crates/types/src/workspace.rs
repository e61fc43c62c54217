//! Reusable per-trial scratch buffers.
//!
//! A Monte-Carlo sweep runs millions of structurally identical trials; with
//! fresh `Vec`s per trial the hot path is dominated by allocator traffic
//! rather than the scheme math. [`Workspace`] owns pools of every scratch
//! buffer a trial needs — interval sets, numeric scratch, task/segment/
//! placement arenas — so a sweep worker can run its whole trial stream on
//! one warmed-up arena with zero steady-state allocations.
//!
//! # Reuse contract
//!
//! * `take_*` hands out an **empty** buffer (contents cleared) whose
//!   capacity is whatever a previous user grew it to.
//! * `recycle_*` returns a buffer to the pool, **keeping its capacity** and
//!   clearing its contents eagerly so stale data can never leak into the
//!   next trial.
//! * Forgetting to recycle is safe — the buffer is simply dropped and the
//!   pool re-grows on the next take (one allocation, then steady state
//!   again).
//! * A `Workspace` is deliberately `!Sync`-by-use: each worker thread owns
//!   its own instance; nothing is shared.

use crate::{
    BlockTask, CoreId, Cycles, IntervalSet, Partition, Placement, Schedule, Segment, Task, TaskRow,
    TaskSoa, Time,
};

/// Pools of per-trial scratch buffers (see module docs for the contract).
///
/// # Examples
///
/// ```
/// use sdem_types::{IntervalSet, Time, Workspace};
///
/// let s = |x: f64| Time::from_secs(x);
/// let mut ws = Workspace::new();
/// let mut gaps = ws.take_intervals();
/// let busy = IntervalSet::from_spans(vec![(s(0.0), s(1.0)), (s(3.0), s(4.0))]);
/// busy.gaps_into(None, &mut gaps);
/// assert_eq!(gaps.as_slice(), &[(s(1.0), s(3.0))]);
/// ws.recycle_intervals(gaps);
/// // The next take reuses the same allocation, handed back empty.
/// assert!(ws.take_intervals().is_empty());
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    intervals: Vec<IntervalSet>,
    f64s: Vec<Vec<f64>>,
    usizes: Vec<Vec<usize>>,
    keyed: Vec<Vec<(f64, usize)>>,
    bools: Vec<Vec<bool>>,
    tasks: Vec<Vec<Task>>,
    segments: Vec<Vec<Segment>>,
    placements: Vec<Vec<Placement>>,
    core_ids: Vec<Vec<CoreId>>,
    spans: Vec<Vec<(Time, Time)>>,
    rows: Vec<Vec<TaskRow>>,
    block_tasks: Vec<Vec<BlockTask>>,
    pairs: Vec<Vec<(f64, f64)>>,
    soas: Vec<TaskSoa>,
    partitions: Vec<Partition>,
    interval_lists: Vec<Vec<IntervalSet>>,
    cycles: Vec<Vec<Cycles>>,
    task_lists: Vec<Vec<Vec<Task>>>,
}

macro_rules! pool {
    ($take:ident, $recycle:ident, $field:ident, $ty:ty, $what:expr) => {
        #[doc = concat!("Takes an empty ", $what, " buffer from the pool.")]
        pub fn $take(&mut self) -> $ty {
            self.$field.pop().unwrap_or_default()
        }

        #[doc = concat!("Returns a ", $what, " buffer to the pool, keeping its capacity.")]
        pub fn $recycle(&mut self, mut buf: $ty) {
            buf.clear();
            self.$field.push(buf);
        }
    };
}

impl Workspace {
    /// Creates an empty workspace; buffers are allocated lazily on first
    /// use and retained across trials.
    pub fn new() -> Self {
        Self::default()
    }

    pool!(
        take_intervals,
        recycle_intervals,
        intervals,
        IntervalSet,
        "interval-set"
    );
    pool!(take_f64s, recycle_f64s, f64s, Vec<f64>, "`f64` scratch");
    pool!(
        take_usizes,
        recycle_usizes,
        usizes,
        Vec<usize>,
        "index scratch"
    );
    pool!(
        take_keyed,
        recycle_keyed,
        keyed,
        Vec<(f64, usize)>,
        "`(key, index)` sort scratch"
    );
    pool!(take_bools, recycle_bools, bools, Vec<bool>, "flag scratch");
    pool!(take_tasks, recycle_tasks, tasks, Vec<Task>, "task arena");
    pool!(
        take_segments,
        recycle_segments,
        segments,
        Vec<Segment>,
        "segment arena"
    );
    pool!(
        take_placements,
        recycle_placements,
        placements,
        Vec<Placement>,
        "placement arena"
    );
    pool!(
        take_core_ids,
        recycle_core_ids,
        core_ids,
        Vec<CoreId>,
        "core-id scratch"
    );
    pool!(
        take_spans,
        recycle_spans,
        spans,
        Vec<(Time, Time)>,
        "raw span scratch"
    );
    pool!(
        take_rows,
        recycle_rows,
        rows,
        Vec<TaskRow>,
        "`(id, f64, f64, f64)` task-row scratch"
    );
    pool!(
        take_block_tasks,
        recycle_block_tasks,
        block_tasks,
        Vec<BlockTask>,
        "agreeable block-task row"
    );
    pool!(
        take_pairs,
        recycle_pairs,
        pairs,
        Vec<(f64, f64)>,
        "`(f64, f64)` span scratch"
    );
    pool!(
        take_soa,
        recycle_soa,
        soas,
        TaskSoa,
        "structure-of-arrays task view"
    );
    pool!(
        take_partition,
        recycle_partition,
        partitions,
        Partition,
        "task→core partition"
    );

    pool!(
        take_cycles,
        recycle_cycles,
        cycles,
        Vec<Cycles>,
        "cycle-count scratch (DAG layer/core loads)"
    );

    /// Takes an empty list-of-task-lists buffer from the pool (the DAG
    /// pipeline's per-core window arenas).
    ///
    /// The outer `Vec` comes back empty; populate it by pushing arenas
    /// taken with [`take_tasks`](Self::take_tasks) (one per core, say).
    pub fn take_task_list(&mut self) -> Vec<Vec<Task>> {
        self.task_lists.pop().unwrap_or_default()
    }

    /// Returns a list of task arenas to the pools. The inner arenas are
    /// drained into the task pool (a plain `clear` would drop their
    /// allocations) before the emptied outer `Vec` is repooled.
    pub fn recycle_task_list(&mut self, mut list: Vec<Vec<Task>>) {
        for arena in list.drain(..) {
            self.recycle_tasks(arena);
        }
        self.task_lists.push(list);
    }

    /// Takes an empty list-of-interval-sets buffer from the pool.
    ///
    /// The outer `Vec` comes back empty; populate it by pushing sets taken
    /// with [`take_intervals`](Self::take_intervals) (one per core, say).
    pub fn take_interval_list(&mut self) -> Vec<IntervalSet> {
        self.interval_lists.pop().unwrap_or_default()
    }

    /// Returns a list of interval sets to the pools. The inner sets are
    /// drained into the interval-set pool (a plain `clear` would drop their
    /// allocations) before the emptied outer `Vec` is repooled.
    pub fn recycle_interval_list(&mut self, mut list: Vec<IntervalSet>) {
        for set in list.drain(..) {
            self.recycle_intervals(set);
        }
        self.interval_lists.push(list);
    }

    /// Tears a finished [`Schedule`] back down into the pools: every
    /// placement's segment buffer and the placement buffer itself are
    /// recycled, so the next trial builds its schedule allocation-free.
    pub fn recycle_schedule(&mut self, schedule: Schedule) {
        let mut placements = schedule.into_placements();
        for placement in placements.drain(..) {
            self.recycle_segments(placement.into_segments());
        }
        self.recycle_placements(placements);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Speed, TaskId};

    #[test]
    fn pools_hand_back_cleared_buffers_with_capacity() {
        let mut ws = Workspace::new();
        let mut v = ws.take_f64s();
        v.extend([1.0, 2.0, 3.0]);
        let cap = v.capacity();
        ws.recycle_f64s(v);
        let v = ws.take_f64s();
        assert!(v.is_empty());
        assert!(v.capacity() >= cap);
    }

    #[test]
    fn schedule_recycling_feeds_segment_and_placement_pools() {
        let mut ws = Workspace::new();
        let sched = Schedule::new(vec![Placement::single(
            TaskId(0),
            CoreId(0),
            Time::ZERO,
            Time::from_millis(1.0),
            Speed::from_mhz(100.0),
        )]);
        ws.recycle_schedule(sched);
        assert!(ws.take_segments().capacity() >= 1);
        assert!(ws.take_placements().capacity() >= 1);
    }

    #[test]
    fn interval_list_recycle_drains_inner_sets_into_interval_pool() {
        let mut ws = Workspace::new();
        let mut list = ws.take_interval_list();
        let mut set = ws.take_intervals();
        IntervalSet::collect_into([(Time::ZERO, Time::from_secs(1.0))], &mut set);
        let inner_cap = set.capacity();
        list.push(set);
        ws.recycle_interval_list(list);
        // The inner set's allocation survives in the interval pool...
        assert!(ws.take_intervals().capacity() >= inner_cap);
        // ...and the outer list comes back empty with its capacity.
        assert!(ws.take_interval_list().is_empty());
    }

    #[test]
    fn take_on_empty_pool_allocates_fresh() {
        let mut ws = Workspace::new();
        assert!(ws.take_intervals().is_empty());
        assert!(ws.take_tasks().is_empty());
        assert!(ws.take_core_ids().is_empty());
        assert!(ws.take_bools().is_empty());
        assert!(ws.take_keyed().is_empty());
        assert!(ws.take_usizes().is_empty());
        assert!(ws.take_spans().is_empty());
    }
}
