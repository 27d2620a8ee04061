//! Future-reference derivation over the job sequence (§5.3, §5.6).
//!
//! Blaze derives "the number of potential references for each of the
//! partitions until the end of the application" from the captured
//! dependencies. A subtlety our engine shares with Spark: a reference
//! through a shuffle whose outputs already exist is *not* a data access —
//! the map stage is skipped. References that actually materialize data are
//! the dependencies of RDDs appearing for the first time in a job (new
//! stages). We therefore count, per job, the dependency edges of its *new*
//! RDDs; references from jobs beyond the captured sequence are induced by
//! shifting the last job's references by the detected iteration stride.

use crate::pattern::IterationPattern;
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::RddId;
use blaze_dataflow::{planner::plan_job, Plan};

/// Per-job reference counts of the application, indexed per RDD.
#[derive(Debug, Clone, Default)]
pub struct JobRefs {
    /// `index[rdd]` = ascending `(job, cumulative)` pairs, where
    /// `cumulative` counts the references to `rdd` from jobs `0..=job`. Only
    /// jobs that reference `rdd` have an entry, so every query is two binary
    /// searches over the few jobs touching one RDD.
    index: FxHashMap<RddId, Vec<(usize, u32)>>,
    /// Number of jobs covered (captured + induced).
    jobs: usize,
    /// Number of *captured* jobs; jobs past this are induced (see
    /// [`JobRefs::extend_induced`]).
    captured: usize,
    /// References of the last captured job: the template
    /// [`JobRefs::extend_induced`] shifts.
    last_captured: FxHashMap<RddId, u32>,
    /// RDDs the induced tail references, whose index entries
    /// [`JobRefs::retract_induced`] pops.
    induced: Vec<RddId>,
    /// Highest RDD id seen across captured jobs. Persisting this is what
    /// makes [`JobRefs::extend_build`] produce exactly the refs a full
    /// rebuild would: the "new RDD" test is a running watermark.
    max_seen: Option<u32>,
}

/// References from one captured job: the consuming edges of the RDDs it
/// materializes first (ids above the `max_seen` watermark, which it
/// advances), plus the access of its target.
fn job_refs(plan: &Plan, target: RddId, max_seen: &mut Option<u32>) -> FxHashMap<RddId, u32> {
    let mut refs: FxHashMap<RddId, u32> = FxHashMap::default();
    if let Ok(jp) = plan_job(plan, target) {
        for stage in &jp.stages {
            for &rdd in &stage.rdds {
                let is_new = max_seen.is_none_or(|m| rdd.raw() > m);
                if !is_new {
                    continue;
                }
                if let Ok(node) = plan.node(rdd) {
                    for dep in &node.deps {
                        *refs.entry(dep.parent()).or_insert(0) += 1;
                    }
                }
            }
        }
        let job_max = jp.stages.iter().flat_map(|s| s.rdds.iter()).map(|r| r.raw()).max();
        *max_seen = (*max_seen).max(job_max);
    }
    // The job materializes its target: that is an access of the target's
    // blocks even when the whole sub-DAG already exists (the
    // `cached.count()` reuse pattern).
    *refs.entry(target).or_insert(0) += 1;
    refs
}

/// The `k`-th induced job: `last`'s references shifted `k` iteration
/// strides forward.
///
/// Only *periodic* datasets (ids allocated during the last captured
/// iteration) shift; stable datasets created before the periodic phase
/// (e.g. a PageRank `links` graph) keep their id — they play the same role
/// in every iteration.
fn induced_job(
    last: &FxHashMap<RddId, u32>,
    pattern: IterationPattern,
    k: u32,
) -> Vec<(RddId, u32)> {
    let periodic_base =
        last.keys().map(|r| r.raw()).max().map_or(u32::MAX, |m| m.saturating_sub(pattern.stride));
    last.iter()
        .map(|(rdd, &c)| {
            if rdd.raw() > periodic_base {
                (RddId(rdd.raw() + pattern.stride * k), c)
            } else {
                (*rdd, c)
            }
        })
        .collect()
}

impl JobRefs {
    /// Builds reference counts from a plan and an ordered job-target list.
    ///
    /// Targets beyond the plan (predicted future jobs) are skipped here;
    /// use [`JobRefs::extend_induced`] for those.
    pub fn build(plan: &Plan, job_targets: &[RddId]) -> Self {
        let mut refs = Self::default();
        refs.extend_build(plan, job_targets);
        refs
    }

    /// Appends captured jobs for `new_targets`, continuing from the state
    /// left by previous `build`/`extend_build` calls.
    ///
    /// Because jobs only ever reference RDDs created at or before their own
    /// submission, appending targets one at a time yields byte-identical
    /// counts to rebuilding from the full target list — this is the
    /// O(changed) path the incremental controller uses per job submission.
    /// Any induced tail must be dropped first ([`Self::retract_induced`]).
    pub fn extend_build(&mut self, plan: &Plan, new_targets: &[RddId]) {
        debug_assert_eq!(self.jobs, self.captured, "induced tail not retracted");
        for &target in new_targets {
            let refs = job_refs(plan, target, &mut self.max_seen);
            self.push_job(refs.iter().map(|(&rdd, &c)| (rdd, c)));
            self.last_captured = refs;
        }
        self.captured = self.jobs;
    }

    /// Appends one job's references to the index.
    fn push_job(&mut self, refs: impl IntoIterator<Item = (RddId, u32)>) {
        for (rdd, count) in refs {
            let entries = self.index.entry(rdd).or_default();
            let before = entries.last().map_or(0, |&(_, cum)| cum);
            entries.push((self.jobs, before + count));
        }
        self.jobs += 1;
    }

    /// Number of captured (non-induced) jobs.
    pub fn captured_jobs(&self) -> usize {
        self.captured
    }

    /// Drops the induced tail, leaving only captured jobs (the inverse of
    /// [`JobRefs::extend_induced`], applied before re-extending).
    pub fn retract_induced(&mut self) {
        let captured = self.captured;
        for rdd in self.induced.drain(..) {
            let Some(entries) = self.index.get_mut(&rdd) else { continue };
            while entries.last().is_some_and(|&(job, _)| job >= captured) {
                entries.pop();
            }
            if entries.is_empty() {
                self.index.remove(&rdd);
            }
        }
        self.jobs = captured;
    }

    /// Appends `extra` induced jobs by shifting the last captured job's
    /// references forward by the iteration stride (no-profiling mode; see
    /// [`induced_job`]). Any earlier induced tail must be dropped first
    /// ([`Self::retract_induced`]).
    pub fn extend_induced(&mut self, pattern: IterationPattern, extra: usize) {
        debug_assert_eq!(self.jobs, self.captured, "induced tail not retracted");
        if self.captured == 0 {
            return;
        }
        for k in 1..=extra {
            let shifted = induced_job(&self.last_captured, pattern, k as u32);
            self.induced.extend(shifted.iter().map(|&(rdd, _)| rdd));
            self.push_job(shifted);
        }
    }

    /// Number of jobs covered (captured + induced).
    pub fn num_jobs(&self) -> usize {
        self.jobs
    }

    /// References to `rdd` from job `job_idx` alone.
    pub fn refs_in_job(&self, rdd: RddId, job_idx: usize) -> u32 {
        self.refs_in_window(rdd, job_idx, 1)
    }

    /// Total references to `rdd` from jobs `from..` (future references).
    pub fn future_refs(&self, rdd: RddId, from: usize) -> u32 {
        self.refs_in_window(rdd, from, usize::MAX)
    }

    /// Total references to `rdd` within the window `from..from+len`.
    pub fn refs_in_window(&self, rdd: RddId, from: usize, len: usize) -> u32 {
        let Some(entries) = self.index.get(&rdd) else { return 0 };
        // References from jobs `..job`: the cumulative count of the last
        // entry before `job`.
        let before = |job: usize| {
            let n = entries.partition_point(|&(j, _)| j < job);
            n.checked_sub(1).map_or(0, |i| entries[i].1)
        };
        before(from.saturating_add(len)) - before(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::detect;
    use blaze_dataflow::{runner::LocalRunner, Context, Dataset};
    use proptest::prelude::*;

    /// A PageRank-shaped iterative plan: ranks_{i+1} = f(join(ranks_i, links)).
    fn iterative_plan(iters: usize) -> (Context, Vec<RddId>, RddId, Vec<RddId>) {
        let ctx = Context::new(LocalRunner::new());
        let links: Dataset<(u64, Vec<u64>)> = ctx
            .parallelize((0..20u64).map(|i| (i, vec![(i + 1) % 20])).collect::<Vec<_>>(), 2)
            .partition_by(2);
        let mut ranks: Dataset<(u64, f64)> = links.map_values(|_| 1.0).named("init_ranks");
        let mut targets = Vec::new();
        let mut rank_ids = vec![ranks.id()];
        for _ in 0..iters {
            let contribs = links.join(&ranks, 2).flat_map(|(_, (dests, r))| {
                let share = r / dests.len() as f64;
                dests.iter().map(move |&d| (d, share)).collect::<Vec<_>>()
            });
            ranks = contribs.reduce_by_key(2, |a, b| a + b).map_values(|s| 0.15 + 0.85 * s);
            targets.push(ranks.id());
            rank_ids.push(ranks.id());
        }
        (ctx, targets, links.id(), rank_ids)
    }

    #[test]
    fn links_are_referenced_every_iteration() {
        let (ctx, targets, links, _ranks) = iterative_plan(4);
        let plan = ctx.plan().read();
        let refs = JobRefs::build(&plan, &targets);
        assert_eq!(refs.num_jobs(), 4);
        // The links dataset is joined in every iteration.
        for j in 0..4 {
            assert!(refs.refs_in_job(links, j) >= 1, "links unreferenced in job {j}");
        }
        assert_eq!(
            refs.future_refs(links, 0),
            (0..4).map(|j| refs.refs_in_job(links, j)).sum::<u32>()
        );
        assert!(refs.future_refs(links, 3) < refs.future_refs(links, 0));
    }

    #[test]
    fn ranks_are_referenced_by_the_next_iteration_only() {
        let (ctx, targets, _links, rank_ids) = iterative_plan(4);
        let plan = ctx.plan().read();
        let refs = JobRefs::build(&plan, &targets);
        // ranks_1 (output of job 0) is referenced by job 1, not job 3.
        let r1 = rank_ids[1];
        assert!(refs.refs_in_job(r1, 1) >= 1);
        assert_eq!(refs.refs_in_job(r1, 3), 0);
        // After job 1 has run, ranks_1 has no future references.
        assert_eq!(refs.future_refs(r1, 2), 0);
    }

    #[test]
    fn repeated_stages_are_not_double_counted() {
        let (ctx, targets, links, _ranks) = iterative_plan(4);
        let plan = ctx.plan().read();
        let refs = JobRefs::build(&plan, &targets);
        // Job 2's lineage contains all of job 1's RDDs, but only *new* RDDs
        // count, so per-job references stay bounded (no quadratic growth).
        let j1 = refs.refs_in_job(links, 1);
        let j3 = refs.refs_in_job(links, 3);
        assert_eq!(j1, j3, "per-iteration references must be constant");
    }

    #[test]
    fn induced_refs_shift_by_stride() {
        let (ctx, targets, links, _ranks) = iterative_plan(4);
        let plan = ctx.plan().read();
        let mut refs = JobRefs::build(&plan, &targets);
        let pattern = detect(&targets).unwrap();
        let before = refs.num_jobs();
        refs.extend_induced(pattern, 2);
        assert_eq!(refs.num_jobs(), before + 2);
        // Stable datasets keep their id: links stays referenced in induced
        // jobs too.
        assert!(refs.refs_in_job(links, before) >= 1);
        // The induced jobs reference the *future* congruent rank datasets.
        let future_rank = RddId(targets[3].raw() + pattern.stride);
        assert!(refs.future_refs(future_rank, before) >= 1);
    }

    #[test]
    fn window_counts_are_bounded_by_totals() {
        let (ctx, targets, links, _ranks) = iterative_plan(4);
        let plan = ctx.plan().read();
        let refs = JobRefs::build(&plan, &targets);
        assert!(refs.refs_in_window(links, 1, 2) <= refs.future_refs(links, 1));
    }

    /// One step of a random reference-maintenance history.
    #[derive(Debug, Clone)]
    enum Op {
        /// `extend_build` over these target ids (some past the plan).
        Build(Vec<u32>),
        /// `extend_induced` with this stride and job count.
        Induce(u32, usize),
        Retract,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            prop::collection::vec(0u32..48, 0..4).prop_map(Op::Build),
            (1u32..6, 0usize..5).prop_map(|(stride, extra)| Op::Induce(stride, extra)),
            Just(Op::Retract),
        ]
    }

    /// The unindexed representation: one map per job, queries summed by a
    /// scan over the jobs.
    #[derive(Default)]
    struct Naive {
        per_job: Vec<FxHashMap<RddId, u32>>,
        captured: usize,
        max_seen: Option<u32>,
    }

    impl Naive {
        fn in_job(&self, rdd: RddId, job: usize) -> u32 {
            self.per_job.get(job).and_then(|m| m.get(&rdd)).copied().unwrap_or(0)
        }
        fn future(&self, rdd: RddId, from: usize) -> u32 {
            self.window(rdd, from, usize::MAX)
        }
        fn window(&self, rdd: RddId, from: usize, len: usize) -> u32 {
            self.per_job
                .iter()
                .skip(from)
                .take(len)
                .map(|m| m.get(&rdd).copied().unwrap_or(0))
                .sum()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The per-RDD cumulative index answers every query exactly like a
        /// scan over per-job maps, across interleaved captured extensions,
        /// induced tails and retractions — including windows starting past
        /// the last job, empty windows and `from + len` overflowing `usize`.
        #[test]
        fn index_matches_a_per_job_scan(ops in prop::collection::vec(op(), 1..10)) {
            let (ctx, _targets, _links, _ranks) = iterative_plan(5);
            let plan = ctx.plan().read();
            let mut refs = JobRefs::default();
            let mut naive = Naive::default();
            for op in &ops {
                // Like the controller: a tail is retracted before extending.
                if !matches!(op, Op::Retract) && refs.num_jobs() > refs.captured_jobs() {
                    refs.retract_induced();
                    naive.per_job.truncate(naive.captured);
                }
                match op {
                    Op::Build(ids) => {
                        let targets: Vec<RddId> = ids.iter().map(|&i| RddId(i)).collect();
                        refs.extend_build(&plan, &targets);
                        for &t in &targets {
                            let job = job_refs(&plan, t, &mut naive.max_seen);
                            naive.per_job.push(job);
                        }
                        naive.captured = naive.per_job.len();
                    }
                    &Op::Induce(stride, extra) => {
                        let pattern = IterationPattern { stride, first_periodic_job: 0 };
                        refs.extend_induced(pattern, extra);
                        if let Some(last) = naive.per_job.last().cloned() {
                            for k in 1..=extra {
                                let job = induced_job(&last, pattern, k as u32);
                                naive.per_job.push(job.into_iter().collect());
                            }
                        }
                    }
                    Op::Retract => {
                        refs.retract_induced();
                        naive.per_job.truncate(naive.captured);
                    }
                }
                let jobs = naive.per_job.len();
                prop_assert_eq!(refs.num_jobs(), jobs);
                prop_assert_eq!(refs.captured_jobs(), naive.captured);
                for rdd in (0..80u32).map(RddId) {
                    for from in (0..=jobs + 1).chain([usize::MAX]) {
                        prop_assert_eq!(refs.refs_in_job(rdd, from), naive.in_job(rdd, from));
                        prop_assert_eq!(refs.future_refs(rdd, from), naive.future(rdd, from));
                        for len in [0, 1, 3, usize::MAX - 1, usize::MAX] {
                            prop_assert_eq!(
                                refs.refs_in_window(rdd, from, len),
                                naive.window(rdd, from, len),
                                "{:?} from {} len {}", rdd, from, len
                            );
                        }
                    }
                }
            }
        }
    }
}
