//! The real-time task model of the SDEM problem.

use core::fmt;

use crate::{Cycles, Speed, TaskSetError, TaskSoa, Time, Workspace};

/// Identifier of a task within a [`TaskSet`].
///
/// Ids are caller-chosen and must be unique within a set; generators in
/// `sdem-workload` simply number tasks `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A real-time task `T_i = (r_i, d_i, w_i)`.
///
/// The task releases `w_i` cycles of work at `r_i` that must complete by
/// `d_i`. Per the paper's model, a task accesses the shared memory during its
/// entire execution, is never preempted by the offline schemes and never
/// migrates between cores.
///
/// # Examples
///
/// ```
/// use sdem_types::{Task, Time, Cycles, Speed};
///
/// let t = Task::new(0, Time::from_millis(10.0), Time::from_millis(110.0), Cycles::new(2.0e6));
/// assert!((t.window().as_millis() - 100.0).abs() < 1e-9);
/// // The "filled speed" s_f occupies the whole feasible region.
/// assert!((t.filled_speed().as_mhz() - 20.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    id: TaskId,
    release: Time,
    deadline: Time,
    work: Cycles,
}

impl Task {
    /// Creates a task with the given id, release time, deadline and workload.
    ///
    /// Validation (positive window, non-negative work) happens when the task
    /// is placed into a [`TaskSet`].
    pub fn new(id: usize, release: Time, deadline: Time, work: Cycles) -> Self {
        Self {
            id: TaskId(id),
            release,
            deadline,
            work,
        }
    }

    /// The task identifier.
    #[inline]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Release time `r_i`.
    #[inline]
    pub fn release(&self) -> Time {
        self.release
    }

    /// Deadline `d_i`.
    #[inline]
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// Workload `w_i` in cycles.
    #[inline]
    pub fn work(&self) -> Cycles {
        self.work
    }

    /// Length of the feasible region `|I_i| = d_i − r_i`.
    #[inline]
    pub fn window(&self) -> Time {
        self.deadline - self.release
    }

    /// Filled speed `s_{f i} = w_i / (d_i − r_i)`: the slowest speed at which
    /// the task still meets its deadline when started at release.
    #[inline]
    pub fn filled_speed(&self) -> Speed {
        self.work / self.window()
    }

    /// Time to execute the whole task at speed `s`.
    #[inline]
    pub fn execution_time(&self, speed: Speed) -> Time {
        self.work / speed
    }

    /// Returns a copy with the workload replaced (used by the online
    /// algorithm when accounting for partially executed tasks).
    #[must_use]
    pub fn with_work(&self, work: Cycles) -> Self {
        Self { work, ..*self }
    }

    /// Returns a copy with the release time replaced.
    #[must_use]
    pub fn with_release(&self, release: Time) -> Self {
        Self { release, ..*self }
    }

    fn validate(&self) -> Result<(), TaskSetError> {
        let finite = self.release.is_finite()
            && self.deadline.is_finite()
            && self.work.is_finite()
            && self.work.value() >= 0.0;
        if !finite {
            return Err(TaskSetError::InvalidTask(self.id));
        }
        if self.deadline <= self.release {
            return Err(TaskSetError::EmptyWindow(self.id));
        }
        Ok(())
    }
}

/// A validated, non-empty collection of [`Task`]s.
///
/// Construction checks each task (finite fields, non-negative work, positive
/// window) and id uniqueness. The set exposes the structural predicates that
/// select the paper's subproblems: common release time (§4) and agreeable
/// deadlines (§5).
///
/// # Examples
///
/// ```
/// use sdem_types::{Task, TaskSet, Time, Cycles};
///
/// # fn main() -> Result<(), sdem_types::TaskSetError> {
/// let set = TaskSet::new(vec![
///     Task::new(0, Time::ZERO, Time::from_millis(50.0), Cycles::new(1.0e6)),
///     Task::new(1, Time::from_millis(5.0), Time::from_millis(80.0), Cycles::new(2.0e6)),
/// ])?;
/// assert!(!set.is_common_release());
/// assert!(set.is_agreeable());
/// assert_eq!(set.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Builds a task set from the given tasks.
    ///
    /// # Errors
    ///
    /// Returns [`TaskSetError`] if the list is empty, any task is malformed,
    /// or two tasks share an id.
    pub fn new(tasks: Vec<Task>) -> Result<Self, TaskSetError> {
        if tasks.is_empty() {
            return Err(TaskSetError::Empty);
        }
        for t in &tasks {
            t.validate()?;
        }
        let mut ids: Vec<TaskId> = tasks.iter().map(Task::id).collect();
        ids.sort_unstable();
        for pair in ids.windows(2) {
            if pair[0] == pair[1] {
                return Err(TaskSetError::DuplicateId(pair[0]));
            }
        }
        Ok(Self { tasks })
    }

    /// Pooled [`Self::new`]: identical validation (same checks, same error
    /// values) with the duplicate-id scan running on workspace scratch, so
    /// a warm caller builds sets allocation-free. The online replanner
    /// constructs a roster set per scheduling event — this is its hot
    /// constructor.
    pub fn new_in(tasks: Vec<Task>, ws: &mut Workspace) -> Result<Self, TaskSetError> {
        if tasks.is_empty() {
            return Err(TaskSetError::Empty);
        }
        for t in &tasks {
            t.validate()?;
        }
        let mut ids = ws.take_usizes();
        ids.extend(tasks.iter().map(|t| t.id().0));
        ids.sort_unstable();
        let dup = ids
            .windows(2)
            .find(|pair| pair[0] == pair[1])
            .map(|pair| TaskId(pair[0]));
        ws.recycle_usizes(ids);
        match dup {
            Some(id) => Err(TaskSetError::DuplicateId(id)),
            None => Ok(Self { tasks }),
        }
    }

    /// Number of tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Always `false`: construction rejects empty sets. Provided for
    /// idiomatic pairing with [`TaskSet::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Read access to the tasks, in construction order.
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Consumes the set, returning the underlying task vector (e.g. to
    /// recycle its allocation into a [`crate::Workspace`]).
    #[inline]
    pub fn into_tasks(self) -> Vec<Task> {
        self.tasks
    }

    /// Iterates over the tasks.
    pub fn iter(&self) -> core::slice::Iter<'_, Task> {
        self.tasks.iter()
    }

    /// Looks up a task by id.
    pub fn get(&self, id: TaskId) -> Option<&Task> {
        self.tasks.iter().find(|t| t.id() == id)
    }

    /// Earliest release time over all tasks.
    pub fn earliest_release(&self) -> Time {
        self.tasks
            .iter()
            .map(Task::release)
            .min_by(Time::total_cmp)
            .expect("task set is non-empty")
    }

    /// Latest deadline over all tasks (`d_n` once sorted; the right edge of
    /// the maximal interval `I`).
    pub fn latest_deadline(&self) -> Time {
        self.tasks
            .iter()
            .map(Task::deadline)
            .max_by(Time::total_cmp)
            .expect("task set is non-empty")
    }

    /// Total workload of all tasks.
    pub fn total_work(&self) -> Cycles {
        self.tasks.iter().map(Task::work).sum()
    }

    /// `true` if all tasks share one release time (the §4 model).
    pub fn is_common_release(&self) -> bool {
        let r0 = self.tasks[0].release();
        self.tasks
            .iter()
            .all(|t| (t.release() - r0).abs() <= Time::from_secs(f64::EPSILON))
    }

    /// `true` if deadlines are agreeable: `r_i ≤ r_j` implies `d_i ≤ d_j`
    /// (the §5 model). Common-release sets are trivially agreeable.
    pub fn is_agreeable(&self) -> bool {
        self.is_agreeable_in(&mut Vec::new())
    }

    /// In-place [`Self::is_agreeable`]: sorts a copy of the tasks in
    /// `scratch` (cleared first) instead of allocating. Tasks with equal
    /// `(release, deadline)` keys have equal deadlines, so the unstable
    /// sort gives the same verdict as a stable one.
    pub fn is_agreeable_in(&self, scratch: &mut Vec<Task>) -> bool {
        scratch.clear();
        scratch.extend_from_slice(&self.tasks);
        scratch.sort_unstable_by(|a, b| {
            a.release()
                .total_cmp(&b.release())
                .then(a.deadline().total_cmp(&b.deadline()))
        });
        scratch
            .windows(2)
            .all(|p| p[0].deadline() <= p[1].deadline())
    }

    /// Returns the tasks sorted by increasing deadline, ties broken by
    /// release then id (the canonical order of §4.1 and §5).
    pub fn sorted_by_deadline(&self) -> Vec<Task> {
        let mut v = Vec::new();
        self.sorted_by_deadline_into(&mut v);
        v
    }

    /// In-place [`Self::sorted_by_deadline`] writing into a reusable
    /// buffer. Ids are unique per set, so the comparator is a total order
    /// and the unstable sort matches the stable one exactly.
    pub fn sorted_by_deadline_into(&self, out: &mut Vec<Task>) {
        out.clear();
        out.extend_from_slice(&self.tasks);
        out.sort_unstable_by(|a, b| {
            a.deadline()
                .total_cmp(&b.deadline())
                .then(a.release().total_cmp(&b.release()))
                .then(a.id().cmp(&b.id()))
        });
    }

    /// Returns the tasks sorted by increasing release time, ties broken by
    /// deadline then id (arrival order for the online algorithm).
    pub fn sorted_by_release(&self) -> Vec<Task> {
        let mut v = Vec::new();
        self.sorted_by_release_into(&mut v);
        v
    }

    /// In-place [`Self::sorted_by_release`] writing into a reusable buffer.
    pub fn sorted_by_release_into(&self, out: &mut Vec<Task>) {
        out.clear();
        out.extend_from_slice(&self.tasks);
        out.sort_unstable_by(|a, b| {
            a.release()
                .total_cmp(&b.release())
                .then(a.deadline().total_cmp(&b.deadline()))
                .then(a.id().cmp(&b.id()))
        });
    }

    /// Returns a copy with every workload multiplied by `factor` — the
    /// standard utilization knob for experiments.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    #[must_use]
    pub fn scale_work(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        Self {
            tasks: self
                .tasks
                .iter()
                .map(|t| t.with_work(Cycles::new(t.work().value() * factor)))
                .collect(),
        }
    }

    /// Returns a copy with every release and deadline shifted by `offset`
    /// (windows and workloads unchanged) — useful for splicing generated
    /// sets onto a common timeline.
    #[must_use]
    pub fn shift_time(&self, offset: Time) -> Self {
        Self {
            tasks: self
                .tasks
                .iter()
                .map(|t| {
                    Task::new(
                        t.id().0,
                        t.release() + offset,
                        t.deadline() + offset,
                        t.work(),
                    )
                })
                .collect(),
        }
    }

    /// `true` if the tasks are already in canonical order (see
    /// [`Self::canonicalize`]).
    pub fn is_canonical(&self) -> bool {
        self.tasks
            .windows(2)
            .all(|p| canonical_cmp(&p[0], &p[1]).is_lt())
    }

    /// Returns a copy with the tasks in **canonical order**: sorted by
    /// release, then deadline, then workload, then id. Ids are unique, so
    /// this is a total order and the result is independent of the input
    /// permutation.
    ///
    /// Several solvers (and the simulator's tie-breaking) are sensitive to
    /// task *order*, not just task *content* — e.g. core assignment follows
    /// enumeration order. Canonicalizing first makes the solve a pure
    /// function of the task multiset, which is what the `sdem-serve` cache
    /// keys on: permuted requests collapse onto one cache entry whose
    /// memoized solution is bit-identical to a cold solve of either
    /// permutation.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdem_types::{Cycles, Task, TaskSet, Time};
    ///
    /// # fn main() -> Result<(), sdem_types::TaskSetError> {
    /// let a = TaskSet::new(vec![
    ///     Task::new(1, Time::ZERO, Time::from_millis(80.0), Cycles::new(2.0e6)),
    ///     Task::new(0, Time::ZERO, Time::from_millis(40.0), Cycles::new(1.0e6)),
    /// ])?;
    /// let b = TaskSet::new(a.tasks().iter().rev().copied().collect())?;
    /// assert_eq!(a.canonicalize(), b.canonicalize());
    /// assert_eq!(a.canonical_hash(), b.canonical_hash());
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn canonicalize(&self) -> Self {
        let mut tasks = self.tasks.clone();
        tasks.sort_unstable_by(canonical_cmp);
        Self { tasks }
    }

    /// A 64-bit hash of the task multiset, invariant under task order.
    ///
    /// The hash folds each task's `(release, deadline, work)` bit patterns
    /// and id — in canonical order — through FNV-1a, so two sets hash
    /// equally iff they contain the same tasks (up to the astronomically
    /// unlikely FNV collision; cache users must still compare canonicalized
    /// sets on hit). `-0.0` and `+0.0` hash differently by design: the
    /// solvers see the bit patterns, so the cache must too.
    pub fn canonical_hash(&self) -> u64 {
        self.canonical_hash_in(&mut Workspace::new())
    }

    /// Pooled [`Self::canonical_hash`]: materializes the SoA view and the
    /// canonical argsort on workspace scratch, then folds the columns
    /// through FNV-1a in the same field-bit order as always (length, then
    /// per task id, release bits, deadline bits, work bits), so a warm
    /// serve worker hashes every request allocation-free. The value is
    /// pinned against the historical per-[`Task`] implementation by a
    /// dedicated test in `sdem-serve`.
    pub fn canonical_hash_in(&self, ws: &mut Workspace) -> u64 {
        let mut soa = ws.take_soa();
        let mut order = ws.take_usizes();
        self.fill_soa(&mut soa);
        soa.canonical_order_into(&mut order);
        let h = soa.hash_in_order(&order);
        ws.recycle_usizes(order);
        ws.recycle_soa(soa);
        h
    }

    /// Materializes the structure-of-arrays hot view of this set into
    /// `soa` (cleared first), in construction order. See
    /// [`TaskSoa`] for the column conventions.
    pub fn fill_soa(&self, soa: &mut TaskSoa) {
        soa.clear();
        for t in &self.tasks {
            soa.ids.push(t.id().0);
            soa.releases.push(t.release().as_secs());
            soa.deadlines.push(t.deadline().as_secs());
            soa.works.push(t.work().value());
            soa.flags.push(t.work().value() != 0.0);
        }
    }

    /// Largest filled speed over all tasks; any platform with
    /// `s_up ≥ max_filled_speed` admits a feasible schedule.
    pub fn max_filled_speed(&self) -> Speed {
        self.tasks
            .iter()
            .map(Task::filled_speed)
            .max_by(Speed::total_cmp)
            .expect("task set is non-empty")
    }
}

/// The canonical total order on tasks: release, deadline, work, id.
fn canonical_cmp(a: &Task, b: &Task) -> core::cmp::Ordering {
    a.release()
        .total_cmp(&b.release())
        .then(a.deadline().total_cmp(&b.deadline()))
        .then(a.work().total_cmp(&b.work()))
        .then(a.id().cmp(&b.id()))
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = core::slice::Iter<'a, Task>;

    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: usize, r: f64, d: f64, w: f64) -> Task {
        Task::new(
            id,
            Time::from_millis(r),
            Time::from_millis(d),
            Cycles::new(w),
        )
    }

    #[test]
    fn task_accessors() {
        let t = task(3, 10.0, 60.0, 1.0e6);
        assert_eq!(t.id(), TaskId(3));
        assert!((t.window().as_millis() - 50.0).abs() < 1e-9);
        assert!((t.filled_speed().as_mhz() - 20.0).abs() < 1e-9);
        let s = Speed::from_mhz(100.0);
        assert!((t.execution_time(s).as_millis() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn with_work_and_with_release() {
        let t = task(0, 0.0, 10.0, 5.0);
        let t2 = t.with_work(Cycles::new(2.0));
        assert_eq!(t2.work().value(), 2.0);
        assert_eq!(t2.deadline(), t.deadline());
        let t3 = t.with_release(Time::from_millis(4.0));
        assert!((t3.window().as_millis() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(TaskSet::new(vec![]), Err(TaskSetError::Empty));
    }

    #[test]
    fn rejects_duplicate_ids() {
        let r = TaskSet::new(vec![task(1, 0.0, 10.0, 1.0), task(1, 0.0, 20.0, 1.0)]);
        assert_eq!(r, Err(TaskSetError::DuplicateId(TaskId(1))));
    }

    #[test]
    fn rejects_empty_window() {
        let r = TaskSet::new(vec![task(0, 10.0, 10.0, 1.0)]);
        assert_eq!(r, Err(TaskSetError::EmptyWindow(TaskId(0))));
    }

    #[test]
    fn rejects_negative_work_and_nan() {
        let r = TaskSet::new(vec![task(0, 0.0, 10.0, -1.0)]);
        assert_eq!(r, Err(TaskSetError::InvalidTask(TaskId(0))));
        let r = TaskSet::new(vec![Task::new(
            0,
            Time::from_secs(f64::NAN),
            Time::from_secs(1.0),
            Cycles::new(1.0),
        )]);
        assert_eq!(r, Err(TaskSetError::InvalidTask(TaskId(0))));
    }

    #[test]
    fn accepts_zero_work() {
        assert!(TaskSet::new(vec![task(0, 0.0, 10.0, 0.0)]).is_ok());
    }

    #[test]
    fn classification_common_release() {
        let set = TaskSet::new(vec![task(0, 5.0, 10.0, 1.0), task(1, 5.0, 20.0, 1.0)]).unwrap();
        assert!(set.is_common_release());
        assert!(set.is_agreeable());
        let set = TaskSet::new(vec![task(0, 5.0, 10.0, 1.0), task(1, 6.0, 20.0, 1.0)]).unwrap();
        assert!(!set.is_common_release());
    }

    #[test]
    fn classification_agreeable() {
        // Nested windows violate agreeability.
        let nested =
            TaskSet::new(vec![task(0, 0.0, 100.0, 1.0), task(1, 10.0, 50.0, 1.0)]).unwrap();
        assert!(!nested.is_agreeable());
        let agree = TaskSet::new(vec![
            task(0, 0.0, 30.0, 1.0),
            task(1, 10.0, 50.0, 1.0),
            task(2, 10.0, 60.0, 1.0),
        ])
        .unwrap();
        assert!(agree.is_agreeable());
    }

    #[test]
    fn equal_releases_with_any_deadlines_are_agreeable() {
        let set = TaskSet::new(vec![task(0, 0.0, 100.0, 1.0), task(1, 0.0, 50.0, 1.0)]).unwrap();
        assert!(set.is_agreeable());
    }

    #[test]
    fn aggregates() {
        let set = TaskSet::new(vec![
            task(0, 5.0, 60.0, 2.0e6),
            task(1, 2.0, 40.0, 3.0e6),
            task(2, 8.0, 90.0, 1.0e6),
        ])
        .unwrap();
        assert!((set.earliest_release().as_millis() - 2.0).abs() < 1e-12);
        assert!((set.latest_deadline().as_millis() - 90.0).abs() < 1e-12);
        assert!((set.total_work().value() - 6.0e6).abs() < 1.0);
        let sorted = set.sorted_by_deadline();
        assert_eq!(
            sorted.iter().map(|t| t.id().0).collect::<Vec<_>>(),
            vec![1, 0, 2]
        );
        let by_release = set.sorted_by_release();
        assert_eq!(
            by_release.iter().map(|t| t.id().0).collect::<Vec<_>>(),
            vec![1, 0, 2]
        );
    }

    #[test]
    fn max_filled_speed_is_max() {
        let set = TaskSet::new(vec![task(0, 0.0, 10.0, 1.0e6), task(1, 0.0, 10.0, 4.0e6)]).unwrap();
        assert!((set.max_filled_speed().as_mhz() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn lookup_and_iteration() {
        let set = TaskSet::new(vec![task(0, 0.0, 10.0, 1.0), task(5, 0.0, 20.0, 2.0)]).unwrap();
        assert_eq!(set.get(TaskId(5)).unwrap().work().value(), 2.0);
        assert!(set.get(TaskId(9)).is_none());
        assert_eq!(set.iter().count(), 2);
        assert_eq!((&set).into_iter().count(), 2);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(4).to_string(), "T4");
    }

    #[test]
    fn scale_work_multiplies_everything() {
        let set = TaskSet::new(vec![task(0, 0.0, 10.0, 4.0), task(1, 0.0, 20.0, 6.0)]).unwrap();
        let scaled = set.scale_work(0.5);
        assert_eq!(scaled.total_work().value(), 5.0);
        assert_eq!(scaled.tasks()[0].deadline(), set.tasks()[0].deadline());
    }

    #[test]
    fn shift_time_preserves_windows() {
        let set = TaskSet::new(vec![task(0, 5.0, 15.0, 1.0)]).unwrap();
        let shifted = set.shift_time(Time::from_millis(100.0));
        let t = &shifted.tasks()[0];
        assert!((t.release().as_millis() - 105.0).abs() < 1e-9);
        assert!((t.window().as_millis() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scale_work_rejects_negative() {
        let set = TaskSet::new(vec![task(0, 0.0, 10.0, 1.0)]).unwrap();
        let _ = set.scale_work(-1.0);
    }

    #[test]
    fn canonicalize_is_permutation_invariant() {
        let tasks = vec![
            task(2, 5.0, 60.0, 2.0e6),
            task(0, 0.0, 40.0, 3.0e6),
            task(1, 0.0, 40.0, 4.0e6),
        ];
        let forward = TaskSet::new(tasks.clone()).unwrap();
        let reversed = TaskSet::new(tasks.into_iter().rev().collect()).unwrap();
        assert_ne!(forward, reversed);
        assert_eq!(forward.canonicalize(), reversed.canonicalize());
        assert_eq!(forward.canonical_hash(), reversed.canonical_hash());
        assert!(forward.canonicalize().is_canonical());
        assert!(!reversed.is_canonical());
    }

    #[test]
    fn canonical_order_breaks_ties_by_work_then_id() {
        let set = TaskSet::new(vec![
            task(3, 0.0, 10.0, 2.0),
            task(1, 0.0, 10.0, 2.0),
            task(2, 0.0, 10.0, 1.0),
        ])
        .unwrap();
        let ids: Vec<usize> = set.canonicalize().iter().map(|t| t.id().0).collect();
        assert_eq!(ids, vec![2, 1, 3]);
    }

    #[test]
    fn canonical_hash_distinguishes_content() {
        let a = TaskSet::new(vec![task(0, 0.0, 10.0, 1.0)]).unwrap();
        let b = TaskSet::new(vec![task(0, 0.0, 10.0, 2.0)]).unwrap();
        let c = TaskSet::new(vec![task(1, 0.0, 10.0, 1.0)]).unwrap();
        assert_ne!(a.canonical_hash(), b.canonical_hash());
        assert_ne!(a.canonical_hash(), c.canonical_hash());
        // Stable across independently built equal sets.
        let a2 = TaskSet::new(vec![task(0, 0.0, 10.0, 1.0)]).unwrap();
        assert_eq!(a.canonical_hash(), a2.canonical_hash());
    }

    #[test]
    fn new_in_matches_new_on_every_error_path() {
        let mut ws = Workspace::new();
        let cases: Vec<Vec<Task>> = vec![
            vec![],
            vec![task(1, 0.0, 10.0, 1.0), task(1, 0.0, 20.0, 1.0)],
            vec![task(0, 10.0, 10.0, 1.0)],
            vec![task(0, 0.0, 10.0, -1.0)],
            vec![task(0, 0.0, 10.0, 1.0), task(1, 0.0, 20.0, 2.0)],
        ];
        for tasks in cases {
            assert_eq!(TaskSet::new_in(tasks.clone(), &mut ws), TaskSet::new(tasks));
        }
    }

    #[test]
    fn canonical_hash_in_matches_allocating_hash() {
        let set = TaskSet::new(vec![
            task(2, 5.0, 60.0, 2.0e6),
            task(0, 0.0, 40.0, 3.0e6),
            task(1, 0.0, 40.0, 4.0e6),
        ])
        .unwrap();
        let mut ws = Workspace::new();
        assert_eq!(set.canonical_hash_in(&mut ws), set.canonical_hash());
        // Warm reuse gives the same value.
        assert_eq!(set.canonical_hash_in(&mut ws), set.canonical_hash());
    }

    #[test]
    fn canonical_hash_separates_zero_signs() {
        let plus = TaskSet::new(vec![task(0, 0.0, 10.0, 0.0)]).unwrap();
        let minus = TaskSet::new(vec![task(0, -0.0, 10.0, 0.0)]).unwrap();
        assert_ne!(plus.canonical_hash(), minus.canonical_hash());
    }
}
