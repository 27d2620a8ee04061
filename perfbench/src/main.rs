//! The Blaze reproduction's benchmark: one named workload per process.
//!
//! ```text
//! blaze-perfbench --workload <pagerank|svdpp-ser|churn> --seed <n>
//!                 --seconds <s> --trace <0|1> [--commit <id>]
//! ```
//!
//! With `--trace 0` the process sets up and runs the workload under Blaze
//! on its worker threads (2, or 1 for `churn`), again and again for
//! `--seconds`, in turn over [`INPUTS_PER_RUN`] inputs made from the seed,
//! with neither the timing shim nor the event trace on. It reports the
//! end-to-end metrics: host wall time and set-up time (medians, rescaled to
//! a reference host speed, see [`calib`]), peak resident memory, and the
//! simulated ACT, recompute and disk-I/O time (means over the inputs).
//!
//! With `--trace 1` it runs the seed's first input only, alternating three
//! variants of the same run: plain, with `TraceLog` on, and with `TraceLog`
//! on plus the controller timing shim. From them it reports the per-layer
//! metrics. On `pagerank` it also runs the same input under MEM+DISK Spark
//! and under `LocalRunner` and prints their layers side by side.
//!
//! Every run's output is checked against a `LocalRunner` run of the same
//! input. The simulated metrics and engine counters must repeat exactly
//! across runs, variants and worker-thread counts 1 and 2; a mismatch is a
//! program bug, reported as `correct: false` with exit code 1.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod shim;
mod workload;

use blaze_bench::json::{nz, oversubscribed};
use blaze_common::rng::derive_seed;
use blaze_core::{extract_dependencies, BlazeController};
use blaze_dataflow::runner::LocalRunner;
use blaze_dataflow::Context;
use blaze_engine::config::default_worker_threads;
use blaze_engine::{CacheController, Cluster, Metrics};
use blaze_workloads::SystemKind;
use shim::{HookTimes, TimedController};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workload::{Input, Output, Workload};

/// Fewest measured runs per variant and input, however short `--seconds`
/// is.
const MIN_RUNS: usize = 2;

/// Inputs an end-to-end run measures, all made from its seed. The
/// simulated metrics are their mean: one input's cache decisions are
/// discrete and move its simulated times in steps, several inputs average
/// the steps out.
const INPUTS_PER_RUN: usize = 8;

/// Paper budgets the decision layer is compared against: cost evaluation
/// in milliseconds (§5.4) and a solve within 5 s (§5.5).
const PAPER_COST_EVAL_BUDGET_MS: f64 = 1.0;
const PAPER_SOLVE_BUDGET_S: f64 = 5.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let commit = get("--commit").unwrap_or_else(|_| "unknown".into());
    Ok(Args { workload, seed, seconds, trace, commit })
}

/// The system a run uses.
#[derive(Clone, Copy, PartialEq)]
enum System {
    Blaze,
    SparkMemDisk,
}

/// How a run is instrumented.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    /// Neither the shim nor the trace: what the end-to-end metrics measure.
    Plain,
    /// `TraceLog` on.
    Traced,
    /// `TraceLog` on and the controller wrapped in the timing shim.
    Shimmed,
}

/// Simulated metrics and engine counters that must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    act_ns: u64,
    recompute_ns: u64,
    disk_io_ns: u64,
    jobs: u64,
    tasks: u64,
    stages_run: u64,
    stages_skipped: u64,
    mem_hits: u64,
    disk_hits: u64,
    ser_mem_hits: u64,
    ser_transitions: u64,
    evictions_to_disk: u64,
    evictions_discard: u64,
    disk_written_bytes: u64,
    mem_peak_bytes: u64,
}

impl Fingerprint {
    fn of(m: &Metrics) -> Self {
        let disk_io = m.accumulated.disk_cache_read + m.accumulated.disk_cache_write;
        Self {
            act_ns: m.completion_time.as_nanos(),
            recompute_ns: m.total_recompute_time().as_nanos(),
            disk_io_ns: disk_io.as_nanos(),
            jobs: m.jobs,
            tasks: m.tasks,
            stages_run: m.stages_run,
            stages_skipped: m.stages_skipped,
            mem_hits: m.mem_hits,
            disk_hits: m.disk_hits,
            ser_mem_hits: m.ser_mem_hits,
            ser_transitions: m.ser_transitions,
            evictions_to_disk: m.evictions_to_disk,
            evictions_discard: m.evictions_discard,
            disk_written_bytes: m.disk_bytes_written.as_bytes(),
            mem_peak_bytes: m.memory_bytes_peak.as_bytes(),
        }
    }
}

/// Host times of one run's set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct Setup {
    extract_s: f64,
    total_s: f64,
}

/// Everything one run produced.
struct Run {
    setup: Setup,
    wall_s: f64,
    fingerprint: Fingerprint,
    output: Output,
    hooks: Option<HookTimes>,
    events: usize,
    export_s: f64,
    validate_s: f64,
}

/// Sets up and runs the workload once.
fn run_once(
    input: &Input,
    system: System,
    threads: usize,
    variant: Variant,
) -> Result<Run, String> {
    let times = Arc::new(Mutex::new(HookTimes::default()));
    // audit: allow(wall-clock)
    let start = Instant::now();
    let mut setup = Setup::default();
    let shimmed = variant == Variant::Shimmed;
    let controller: Box<dyn CacheController> = match system {
        System::Blaze => {
            let s = *input;
            let profile = extract_dependencies(move |ctx| s.drive_sample(ctx), 0)
                .map_err(|e| format!("dependency extraction: {e}"))?;
            setup.extract_s = start.elapsed().as_secs_f64();
            let blaze = BlazeController::new(input.blaze_config(), Some(profile));
            if shimmed {
                Box::new(TimedController::new(Box::new(blaze), Arc::clone(&times)))
            } else {
                Box::new(blaze)
            }
        }
        System::SparkMemDisk => {
            let spark = SystemKind::SparkMemDisk.make_controller(None);
            if shimmed {
                Box::new(TimedController::new(spark, Arc::clone(&times)))
            } else {
                spark
            }
        }
    };
    let tracing = variant != Variant::Plain;
    let cluster = Cluster::new(input.cluster_config(threads, tracing), controller)
        .map_err(|e| format!("cluster set-up: {e}"))?;
    setup.total_s = start.elapsed().as_secs_f64();

    // audit: allow(wall-clock)
    let start = Instant::now();
    let ctx = Context::new(cluster.clone());
    let output = input.drive(&ctx).map_err(|e| format!("workload run: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();

    let metrics = cluster.metrics();
    let (mut events, mut export_s, mut validate_s) = (0, 0.0, 0.0);
    if let Some(trace) = cluster.trace() {
        events = trace.events().len();
        // audit: allow(wall-clock)
        let start = Instant::now();
        let json = trace.chrome_json();
        export_s = start.elapsed().as_secs_f64();
        // audit: allow(wall-clock)
        let start = Instant::now();
        let report = trace.validate(&metrics);
        validate_s = start.elapsed().as_secs_f64();
        if let Some(d) = report.errors().next() {
            return Err(format!("trace self-audit: {} {}", d.code.as_str(), d.message));
        }
        if json.is_empty() {
            return Err("empty Chrome trace export".into());
        }
    }
    let hooks = shimmed.then(|| times.lock().expect("hook-time lock poisoned").clone());
    Ok(Run {
        setup,
        wall_s,
        fingerprint: Fingerprint::of(&metrics),
        output,
        hooks,
        events,
        export_s,
        validate_s,
    })
}

/// Runs the workload on `LocalRunner`; returns the output and host seconds.
fn reference(input: &Input) -> Result<(Output, f64), String> {
    // audit: allow(wall-clock)
    let start = Instant::now();
    let ctx = Context::new(LocalRunner::new());
    let out = input.drive(&ctx).map_err(|e| format!("reference run: {e}"))?;
    Ok((out, start.elapsed().as_secs_f64()))
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The host's CPU time counters so far (`/proc/stat`, all CPUs, in clock
/// ticks): `(steal, total)`. `None` where the kernel does not expose them.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Prints the share of CPU time the hypervisor took from this machine
/// since `before` (steal time). Wall times measured while it is high are
/// inflated by waiting for a CPU, not by the program.
fn report_steal(before: Option<(u64, u64)>) {
    match (before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => println!(
            "host steal {:.1}% of CPU time during the measured runs",
            (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0
        ),
        _ => println!("host steal unknown"),
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading peak RSS: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing VmHWM: {e}"))?;
    Ok(kib / 1024.0)
}

/// Collects the runs of one process and the checks they feed.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    errored: u64,
    /// The first successful run's fingerprint and output.
    first: Option<(Fingerprint, Output)>,
    /// Successful runs whose output equals the first run's.
    same_as_first: u64,
    /// Outputs that differ from the first run's, checked one by one.
    distinct: Vec<Output>,
    /// Determinism violations found so far.
    mismatches: Vec<String>,
}

impl Ledger {
    /// Books one attempted run; returns it when it succeeded.
    fn book(&mut self, label: &str, result: Result<Run, String>) -> Option<Run> {
        self.attempted += 1;
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                self.errored += 1;
                eprintln!("perfbench: {label} run failed: {e}");
                return None;
            }
        };
        match &self.first {
            None => {
                self.first = Some((run.fingerprint.clone(), run.output.clone()));
                self.same_as_first += 1;
            }
            Some((fp, out)) => {
                if *fp != run.fingerprint {
                    self.mismatches.push(format!(
                        "{label}: simulated metrics differ from the first run:\n  first {fp:?}\n  \
                         this  {:?}",
                        run.fingerprint
                    ));
                }
                if *out == run.output {
                    self.same_as_first += 1;
                } else {
                    self.mismatches.push(format!("{label}: output differs from the first run"));
                    self.distinct.push(run.output.clone());
                }
            }
        }
        Some(run)
    }

    /// Runs whose output differs from the reference, or that errored.
    fn failed(&self, reference: &Output) -> u64 {
        let mut failed = self.errored;
        if let Some((_, out)) = &self.first {
            if let Err(e) = out.check(reference) {
                eprintln!("perfbench: output check failed: {e}");
                failed += self.same_as_first;
            }
        }
        for out in &self.distinct {
            if let Err(e) = out.check(reference) {
                eprintln!("perfbench: output check failed: {e}");
                failed += 1;
            }
        }
        failed
    }

    fn fingerprint(&self) -> Option<&Fingerprint> {
        self.first.as_ref().map(|(fp, _)| fp)
    }
}

/// One named metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value: nz(value), unit }
}

fn count(name: &'static str, value: u64) -> Metric {
    metric(name, value as f64, "count")
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host_cpus = default_worker_threads();
    println!(
        "meta {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host_cpus\": {host_cpus}, \
         \"worker_threads\": {}, \"oversubscribed\": {}, \"commit\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.workload.worker_threads(),
        oversubscribed(args.workload.worker_threads(), host_cpus),
        args.commit,
    );
    let inputs: Vec<Input> = (0..INPUTS_PER_RUN as u64)
        .map(|i| Input::new(args.workload, derive_seed(args.seed, i)))
        .collect();
    let outcome =
        if args.trace { per_layer(&args, &inputs[0]) } else { end_to_end(&args, &inputs) };
    match outcome {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The checks of one process, summed over its ledgers.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    violations: usize,
}

impl Tally {
    /// Checks the runs of `ledgers`, all of one input, against that
    /// input's reference output.
    fn add(&mut self, ledgers: &[Ledger], reference_out: &Output) {
        for ledger in ledgers {
            self.attempted += ledger.attempted;
            self.failed += ledger.failed(reference_out);
            self.violations += ledger.mismatches.len();
            for m in &ledger.mismatches {
                eprintln!("perfbench: determinism violated (program bug): {m}");
            }
        }
    }

    /// Prints the verdict; returns whether every check passed.
    fn verdict(&self) -> bool {
        println!(
            "check failed_ratio={} ({} of {} runs) determinism={}",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted,
            if self.violations == 0 { "ok" } else { "VIOLATED" },
        );
        self.failed == 0 && self.violations == 0 && self.attempted > 0
    }
}

/// Runs `input` once more on the other of 1 and 2 worker threads, for the
/// determinism check across thread counts.
fn book_other_threads(input: &Input, ledger: &mut Ledger) {
    let threads = 3 - input.workload.worker_threads();
    let label = format!("worker_threads={threads}");
    ledger.book(&label, run_once(input, System::Blaze, threads, Variant::Plain));
}

/// `--trace 0`: the end-to-end metrics over the seed's [`INPUTS_PER_RUN`]
/// inputs, run in turn so each is measured equally often.
fn end_to_end(args: &Args, inputs: &[Input]) -> Result<(bool, String), String> {
    let mut ledgers: Vec<Ledger> = inputs.iter().map(|_| Ledger::default()).collect();
    let (mut walls, mut setups, mut calibs) = (Vec::new(), Vec::new(), Vec::new());
    let ticks = cpu_ticks();
    // audit: allow(wall-clock)
    let start = Instant::now();
    for n in 0.. {
        let i = n % inputs.len();
        if i == 0 && n >= MIN_RUNS * inputs.len() && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let calib_s = calib::host_s();
        let run =
            run_once(&inputs[i], System::Blaze, args.workload.worker_threads(), Variant::Plain);
        if let Some(run) = ledgers[i].book(&format!("input {i} run {n}"), run) {
            walls.push(run.wall_s);
            setups.push(run.setup.total_s);
            calibs.push(calib_s);
        } else if ledgers[i].errored as usize >= MIN_RUNS {
            break;
        }
    }
    let peak_rss = peak_rss_mib()?;
    report_steal(ticks);
    book_other_threads(&inputs[0], &mut ledgers[0]);
    let mut tally = Tally::default();
    let mut fps = Vec::new();
    for (input, ledger) in inputs.iter().zip(&ledgers) {
        let (reference_out, _) = reference(input)?;
        tally.add(std::slice::from_ref(ledger), &reference_out);
        fps.push(ledger.fingerprint().cloned().ok_or("an input had no successful run")?);
    }
    let correct = tally.verdict();
    println!("runs={} wall_s={walls:?}", walls.len());
    println!(
        "host medians: wall_s {:.4} s, setup_s {:.5} s, calibration kernel {:.3} ms (reference \
         {:.3} ms)",
        median(&walls),
        median(&setups),
        median(&calibs) * 1e3,
        calib::REFERENCE_S * 1e3,
    );
    // Host medians at the reference host speed: the workload's memory share
    // of its time is taken to stretch with the kernel's median time, the
    // rest not at all. Rescaling each run by its own kernel time instead
    // spread `churn` no less and `svdpp-ser` wider: a single kernel time is
    // too noisy to correct a single run.
    let share = args.workload.memory_share();
    let scale = 1.0 / (1.0 - share + share * median(&calibs) / calib::REFERENCE_S);
    let mean_s = |f: fn(&Fingerprint) -> u64| {
        fps.iter().map(|fp| f(fp) as f64 / 1e9).sum::<f64>() / fps.len() as f64
    };
    let metrics = [
        metric("wall_norm_s", median(&walls) * scale, "s"),
        metric("setup_s", median(&setups) * scale, "s"),
        metric("peak_rss_mib", peak_rss, "MiB"),
        metric("sim_act_s", mean_s(|fp| fp.act_ns), "s"),
        metric("sim_recompute_s", mean_s(|fp| fp.recompute_ns), "s"),
        metric("sim_disk_io_s", mean_s(|fp| fp.disk_io_ns), "s"),
    ];
    Ok((correct, result_line(correct, tally.attempted, tally.failed, &metrics)))
}

/// Medians of the shimmed runs' layers.
struct Layers {
    wall_s: f64,
    hooks_s: f64,
    submit_s: f64,
    submit_max_ms: f64,
    stage_s: f64,
    partition_s: f64,
    victims_s: f64,
    plan_s: f64,
    calls: u64,
    jobs: u64,
}

impl Layers {
    fn of(runs: &[Run]) -> Self {
        let hooks: Vec<&HookTimes> = runs.iter().filter_map(|r| r.hooks.as_ref()).collect();
        let med =
            |f: &dyn Fn(&HookTimes) -> f64| median(&hooks.iter().map(|h| f(h)).collect::<Vec<_>>());
        let last = hooks.last().copied().cloned().unwrap_or_default();
        Self {
            wall_s: median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
            hooks_s: med(&|h| h.hooks_s()),
            submit_s: med(&|h| h.submit_ns as f64 / 1e9),
            submit_max_ms: med(&|h| h.submit_max_ns as f64 / 1e6),
            stage_s: med(&|h| h.stage_ns as f64 / 1e9),
            partition_s: med(&|h| h.partition_ns as f64 / 1e9),
            victims_s: med(&|h| h.victims_ns as f64 / 1e9),
            plan_s: med(&|h| h.plan_ns as f64 / 1e9),
            calls: last.calls,
            jobs: last.jobs,
        }
    }

    /// The engine's own time: wall time minus controller hooks.
    fn self_s(&self) -> f64 {
        self.wall_s - self.hooks_s
    }
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(args: &Args, input: &Input) -> Result<(bool, String), String> {
    let mut ledger = Ledger::default();
    let (mut plain, mut traced, mut shimmed) = (Vec::new(), Vec::new(), Vec::new());
    let mut extract = Vec::new();
    let ticks = cpu_ticks();
    // audit: allow(wall-clock)
    let start = Instant::now();
    let variants = [Variant::Plain, Variant::Traced, Variant::Shimmed];
    let mut i = 0;
    while shimmed.len() < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds {
        let variant = variants[i % variants.len()];
        let label = format!("variant {} run {}", i % variants.len(), i / variants.len());
        i += 1;
        let Some(run) = ledger
            .book(&label, run_once(input, System::Blaze, args.workload.worker_threads(), variant))
        else {
            if ledger.errored as usize >= MIN_RUNS {
                break;
            }
            continue;
        };
        extract.push(run.setup.extract_s);
        match variant {
            Variant::Plain => plain.push(run.wall_s),
            Variant::Traced => traced.push(run.wall_s),
            Variant::Shimmed => shimmed.push(run),
        }
    }
    report_steal(ticks);
    let (reference_out, reference_s) = reference(input)?;

    let mut gen = Vec::new();
    for _ in 0..MIN_RUNS {
        // audit: allow(wall-clock)
        let start = Instant::now();
        std::hint::black_box(input.generate());
        gen.push(start.elapsed().as_secs_f64());
    }
    let gen_s = |w: Workload| if args.workload == w { median(&gen) } else { 0.0 };

    let blaze = Layers::of(&shimmed);
    let mut ledgers = vec![ledger];
    if args.workload == Workload::PageRank {
        let blaze_act = ledgers[0].fingerprint().map(|f| f.act_ns);
        ledgers.push(side_by_side(input, &blaze, median(&plain), blaze_act, reference_s));
    }
    book_other_threads(input, &mut ledgers[0]);
    let mut tally = Tally::default();
    tally.add(&ledgers, &reference_out);
    let correct = tally.verdict();
    let fp = ledgers[0].fingerprint().cloned().ok_or("no run succeeded")?;
    let last = shimmed.last().ok_or("no shimmed run succeeded")?;
    let decisions = last.hooks.as_ref().and_then(|h| h.decisions).unwrap_or_default();
    let record_s = median(&traced) - median(&plain);

    report_budgets(args.workload, &blaze, median(&plain), record_s);
    let med = |f: &dyn Fn(&Run) -> f64| median(&shimmed.iter().map(f).collect::<Vec<_>>());
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let metrics = [
        metric("core.controller.submit_s", blaze.submit_s, "s"),
        metric("core.controller.submit_max_ms", blaze.submit_max_ms, "ms"),
        metric("core.controller.stage_s", blaze.stage_s, "s"),
        metric("core.controller.partition_s", blaze.partition_s, "s"),
        metric("core.controller.victims_s", blaze.victims_s, "s"),
        count("core.controller.calls", blaze.calls),
        count("core.incremental.solves", decisions.solves),
        count("core.incremental.reused", decisions.reused),
        count("core.incremental.dirty_drained", decisions.dirty_drained),
        count("core.incremental.invalidated", decisions.invalidated),
        metric("core.profiler.extract_s", median(&extract), "s"),
        metric("dataflow.planner.plan_s", blaze.plan_s, "s"),
        metric("dataflow.runner.reference_s", reference_s, "s"),
        metric("graph.datagen.gen_s", gen_s(Workload::PageRank), "s"),
        metric("graph.svdpp.gen_s", gen_s(Workload::SvdppSer), "s"),
        metric("engine.cluster.self_s", blaze.self_s(), "s"),
        count("engine.metrics.jobs", fp.jobs),
        count("engine.metrics.tasks", fp.tasks),
        count("engine.metrics.stages_run", fp.stages_run),
        count("engine.metrics.stages_skipped", fp.stages_skipped),
        count("engine.storage.mem_hits", fp.mem_hits),
        count("engine.storage.disk_hits", fp.disk_hits),
        count("engine.storage.ser_mem_hits", fp.ser_mem_hits),
        count("engine.storage.ser_transitions", fp.ser_transitions),
        count("engine.storage.evictions_to_disk", fp.evictions_to_disk),
        count("engine.storage.evictions_discard", fp.evictions_discard),
        metric("engine.storage.disk_written_mib", mib(fp.disk_written_bytes), "MiB"),
        metric("engine.storage.mem_peak_mib", mib(fp.mem_peak_bytes), "MiB"),
        metric("engine.tracing.record_s", record_s, "s"),
        count("engine.tracing.events", last.events as u64),
        metric("engine.tracing.export_s", med(&|r| r.export_s), "s"),
        metric("engine.tracing.validate_s", med(&|r| r.validate_s), "s"),
    ];
    for m in &metrics {
        println!("layer {:34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    Ok((correct, result_line(correct, tally.attempted, tally.failed, &metrics)))
}

/// Prints the decision layer against the paper's budgets, the share of
/// host time in hooks against the workload design, and what no layer
/// accounts for.
fn report_budgets(workload: Workload, blaze: &Layers, plain_wall_s: f64, record_s: f64) {
    let jobs = blaze.jobs.max(1) as f64;
    let feed_ms = (blaze.partition_s + blaze.stage_s) / jobs * 1e3;
    println!(
        "budget slowest decision (on_job_submit) {:.3} ms vs paper solve budget {PAPER_SOLVE_BUDGET_S} s",
        blaze.submit_max_ms
    );
    println!(
        "budget mean decision per job {:.3} ms; cost maintenance per job (partition + stage \
         hooks) {feed_ms:.3} ms vs paper cost evaluation budget {PAPER_COST_EVAL_BUDGET_MS} ms",
        blaze.submit_s / jobs * 1e3
    );
    let share = blaze.hooks_s / blaze.wall_s.max(f64::MIN_POSITIVE);
    println!(
        "share controller hooks {:.4} s of {:.4} s traced wall ({:.1}%), untraced wall {plain_wall_s:.4} s, \
         trace recording {record_s:.4} s",
        blaze.hooks_s,
        blaze.wall_s,
        share * 100.0
    );
    // `churn` is built so that decisions are a large share of host time;
    // the other two so that they are under 5%.
    let (expected, met) = match workload {
        Workload::Churn => ("at least 30%", share >= 0.30),
        Workload::PageRank | Workload::SvdppSer => ("under 5%", share < 0.05),
    };
    println!(
        "design hook share expected {expected} on {}: {}",
        workload.name(),
        if met { "met" } else { "NOT met" }
    );
    println!(
        "unattributed traced wall minus hooks minus replayed planning: {:.4} s \
         (operators, block stores, commit, trace recording)",
        blaze.wall_s - blaze.hooks_s - blaze.plan_s
    );
}

/// Runs the `pagerank` input under MEM+DISK Spark (same shim) and prints
/// its layers next to Blaze's and `LocalRunner`'s. Returns the Spark runs'
/// ledger, so their outputs are checked like Blaze's.
fn side_by_side(
    input: &Input,
    blaze: &Layers,
    blaze_plain_s: f64,
    blaze_act_ns: Option<u64>,
    reference_s: f64,
) -> Ledger {
    let mut ledger = Ledger::default();
    let (mut plain, mut shimmed) = (Vec::new(), Vec::new());
    for i in 0..MIN_RUNS {
        for variant in [Variant::Plain, Variant::Shimmed] {
            let label = format!("spark run {i}");
            let run =
                run_once(input, System::SparkMemDisk, input.workload.worker_threads(), variant);
            match (ledger.book(&label, run), variant) {
                (Some(run), Variant::Plain) => plain.push(run.wall_s),
                (Some(run), _) => shimmed.push(run),
                (None, _) => {}
            }
        }
    }
    let spark = Layers::of(&shimmed);
    let act = |ns: Option<u64>| ns.map_or(f64::NAN, |ns| ns as f64 / 1e9);
    println!(
        "side-by-side pagerank input (host seconds, medians; shimmed = shim and trace on, \
         hooks/self/submit/victims from the shimmed runs)"
    );
    println!(
        "  {:16} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "system", "plain", "shimmed", "hooks", "self", "submit", "victims", "sim_act"
    );
    let row = |name: &str, plain_s: f64, l: &Layers, sim: f64| {
        println!(
            "  {name:16} {plain_s:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {sim:>9.4}",
            l.wall_s,
            l.hooks_s,
            l.self_s(),
            l.submit_s,
            l.victims_s
        );
    };
    row("Blaze", blaze_plain_s, blaze, act(blaze_act_ns));
    row("Spark MEM+DISK", median(&plain), &spark, act(ledger.fingerprint().map(|f| f.act_ns)));
    println!("  {:16} {reference_s:>9.4} (cache-everything reference, one run)", "LocalRunner");
    ledger
}
