//! A timing shim around a cache controller.
//!
//! [`TimedController`] delegates every hook to the wrapped controller and
//! adds the host time each hook took to shared [`HookTimes`]. It is the only
//! way the benchmark sees inside the engine: the controller hooks run in the
//! engine's serial plan/commit phase, so their time is a clean slice of the
//! run's wall time. Everything the engine does between hooks (operators,
//! block stores, commit) is the remainder, reported as the engine's self
//! time.
//!
//! The shim also replays stage planning (`plan_job`) for each submitted job,
//! timed separately and outside the hook times, to give the planner's cost.
//! Instrumentation never changes simulated behaviour; the benchmark checks
//! that by comparing the shimmed run's counters with the plain run's.

use blaze_common::ids::{BlockId, ExecutorId, JobId, RddId};
use blaze_common::ByteSize;
use blaze_core::{BlazeController, DecisionStats};
use blaze_dataflow::planner::plan_job;
use blaze_dataflow::{JobPlan, Plan};
use blaze_engine::{
    Admission, BlockInfo, CacheController, CtrlCtx, DegradationNote, PartitionEvent, StateCommand,
    StoreTier, VictimAction,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Host time spent in each controller hook over one run, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct HookTimes {
    /// `on_job_submit`: cost maintenance, solve and certify.
    pub submit_ns: u64,
    /// The slowest single `on_job_submit`.
    pub submit_max_ns: u64,
    /// `on_stage_complete`: auto-caching and auto-unpersist.
    pub stage_ns: u64,
    /// `on_partition_computed`: the profiling feed into the cost lineage.
    pub partition_ns: u64,
    /// `choose_victims`: eviction decisions under memory pressure.
    pub victims_ns: u64,
    /// Every other hook (admission, access, insert/evict notifications).
    pub other_ns: u64,
    /// Number of hook calls.
    pub calls: u64,
    /// Number of submitted jobs.
    pub jobs: u64,
    /// Replayed `plan_job` time over all submitted jobs (not a hook).
    pub plan_ns: u64,
    /// The controller's decision-path counters after the last job, when it
    /// has any.
    pub decisions: Option<DecisionStats>,
}

impl HookTimes {
    /// Total host time inside controller hooks, in seconds.
    pub fn hooks_s(&self) -> f64 {
        let ns =
            self.submit_ns + self.stage_ns + self.partition_ns + self.victims_ns + self.other_ns;
        ns as f64 / 1e9
    }
}

/// Controllers whose decision-path counters the shim can read.
pub trait Inspect: CacheController {
    /// The controller's decision counters, if it keeps any.
    fn decision_stats(&self) -> Option<DecisionStats> {
        None
    }
}

impl Inspect for BlazeController {
    fn decision_stats(&self) -> Option<DecisionStats> {
        Some(BlazeController::decision_stats(self))
    }
}

impl Inspect for dyn CacheController {}

/// Which [`HookTimes`] bucket a hook's time goes to.
#[derive(Clone, Copy)]
enum Slot {
    Submit,
    Stage,
    Partition,
    Victims,
    Other,
}

/// Delegates every hook to `inner` and records its host time.
pub struct TimedController<C: ?Sized> {
    inner: Box<C>,
    times: Arc<Mutex<HookTimes>>,
}

impl<C: ?Sized + Inspect> TimedController<C> {
    /// Wraps `inner`; hook times accumulate into `times`.
    pub fn new(inner: Box<C>, times: Arc<Mutex<HookTimes>>) -> Self {
        Self { inner, times }
    }

    fn record(&self, slot: Slot, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        let mut t = self.times.lock().expect("hook-time lock poisoned");
        t.calls += 1;
        match slot {
            Slot::Submit => {
                t.submit_ns += ns;
                t.submit_max_ns = t.submit_max_ns.max(ns);
                t.jobs += 1;
            }
            Slot::Stage => t.stage_ns += ns,
            Slot::Partition => t.partition_ns += ns,
            Slot::Victims => t.victims_ns += ns,
            Slot::Other => t.other_ns += ns,
        }
    }
}

impl<C: ?Sized + Inspect> CacheController for TimedController<C> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn should_cache(&mut self, ctx: &CtrlCtx, block: &BlockInfo, annotated: bool) -> bool {
        // audit: allow(wall-clock)
        let start = Instant::now();
        let out = self.inner.should_cache(ctx, block, annotated);
        self.record(Slot::Other, start);
        out
    }

    fn admit(&mut self, ctx: &CtrlCtx, block: &BlockInfo) -> Admission {
        // audit: allow(wall-clock)
        let start = Instant::now();
        let out = self.inner.admit(ctx, block);
        self.record(Slot::Other, start);
        out
    }

    fn choose_victims(
        &mut self,
        ctx: &CtrlCtx,
        exec: ExecutorId,
        needed: ByteSize,
        incoming: &BlockInfo,
        resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        // audit: allow(wall-clock)
        let start = Instant::now();
        let out = self.inner.choose_victims(ctx, exec, needed, incoming, resident);
        self.record(Slot::Victims, start);
        out
    }

    fn on_admission_failure(&mut self, ctx: &CtrlCtx, block: &BlockInfo) -> Admission {
        // audit: allow(wall-clock)
        let start = Instant::now();
        let out = self.inner.on_admission_failure(ctx, block);
        self.record(Slot::Other, start);
        out
    }

    fn readmit_after_disk_read(&mut self, ctx: &CtrlCtx, block: &BlockInfo) -> Admission {
        // audit: allow(wall-clock)
        let start = Instant::now();
        let out = self.inner.readmit_after_disk_read(ctx, block);
        self.record(Slot::Other, start);
        out
    }

    fn serialized_in_memory(&self) -> bool {
        self.inner.serialized_in_memory()
    }

    fn memory_footprint_factor(&self) -> f64 {
        self.inner.memory_footprint_factor()
    }

    fn on_access(&mut self, ctx: &CtrlCtx, id: BlockId) {
        // audit: allow(wall-clock)
        let start = Instant::now();
        self.inner.on_access(ctx, id);
        self.record(Slot::Other, start);
    }

    fn explain_block(&self, id: BlockId) -> Option<String> {
        // audit: allow(wall-clock)
        let start = Instant::now();
        let out = self.inner.explain_block(id);
        self.record(Slot::Other, start);
        out
    }

    fn on_inserted(&mut self, ctx: &CtrlCtx, info: &BlockInfo, tier: StoreTier) {
        // audit: allow(wall-clock)
        let start = Instant::now();
        self.inner.on_inserted(ctx, info, tier);
        self.record(Slot::Other, start);
    }

    fn on_evicted(&mut self, ctx: &CtrlCtx, id: BlockId) {
        // audit: allow(wall-clock)
        let start = Instant::now();
        self.inner.on_evicted(ctx, id);
        self.record(Slot::Other, start);
    }

    fn on_partition_computed(&mut self, ctx: &CtrlCtx, event: &PartitionEvent) {
        // audit: allow(wall-clock)
        let start = Instant::now();
        self.inner.on_partition_computed(ctx, event);
        self.record(Slot::Partition, start);
    }

    fn on_job_submit(
        &mut self,
        ctx: &CtrlCtx,
        job: JobId,
        job_plan: &JobPlan,
        plan: &Plan,
    ) -> Vec<StateCommand> {
        // audit: allow(wall-clock)
        let start = Instant::now();
        let out = self.inner.on_job_submit(ctx, job, job_plan, plan);
        self.record(Slot::Submit, start);
        let decisions = self.inner.decision_stats();

        // audit: allow(wall-clock)
        let start = Instant::now();
        let replayed = plan_job(plan, job_plan.target);
        let plan_ns = start.elapsed().as_nanos() as u64;
        debug_assert!(replayed.is_ok(), "replayed planning failed for an admitted job");
        let mut t = self.times.lock().expect("hook-time lock poisoned");
        t.plan_ns += plan_ns;
        t.decisions = decisions;
        out
    }

    fn on_stage_complete(
        &mut self,
        ctx: &CtrlCtx,
        stage_output: RddId,
        job: JobId,
        plan: &Plan,
    ) -> Vec<StateCommand> {
        // audit: allow(wall-clock)
        let start = Instant::now();
        let out = self.inner.on_stage_complete(ctx, stage_output, job, plan);
        self.record(Slot::Stage, start);
        out
    }

    fn take_degradation(&mut self) -> Option<DegradationNote> {
        self.inner.take_degradation()
    }

    fn preflight_diagnostics(&self) -> Vec<blaze_audit::Diagnostic> {
        self.inner.preflight_diagnostics()
    }
}
