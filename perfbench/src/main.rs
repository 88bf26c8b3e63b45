//! The repository benchmark: served-mission latency and capacity over the
//! `create-net` wire, and grid-engine throughput on full-CREATE cells.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire-golden-open --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it makes the same measured run, then replays its exact
//! missions through a traced copy of the mission loop (and, for the wire
//! workloads, through an in-process engine) and prints the per-layer
//! ledger. The last stdout line is one JSON object; every output is
//! checked and any mismatch exits with code 1. See `perfbench/README.md`.

mod replay;
mod standalone;
mod stats;
mod traced;
mod wire;
mod workload;

use create_accel::Unit;
use create_agents::AgentSystem;
use create_core::engine::{derive_seed, run_grid_with, EngineOptions, ExperimentPoint, Progress};
use create_core::mission::{Deployment, MissionOutcome, MissionSession};
use create_core::stats::{GridCell, SweepAccumulator, SweepPoint};
use create_env::TaskId;
use create_net::wire::outcome_digest;
use create_net::{NetClient, NetConfig, NetResponse, NetServer, NetStats, ServerMsg, WireConfig};
use create_serve::{request_seed, MissionEngine, ServeConfig};
use create_tensor::Precision;
use replay::Replayed;
use stats::{median, midmean, percentile, tail, Pct};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use traced::{Layer, Ledger, Span};
use wire::Loop;
use workload::{inputs, Inputs, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Engine queue and per-connection in-flight caps: far above any backlog
/// the workloads build, so admission never refuses a request.
const QUEUE: usize = 1 << 16;

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// Clears every inherited `CREATE_*` knob and pins the ones the program
/// reads, so a run measures the defaults with the machine's core count,
/// no chaos, no governor, and models from the benchmark's own cache.
fn isolate_env(threads: usize) {
    let inherited: Vec<_> = std::env::vars_os()
        .filter(|(k, _)| k.to_string_lossy().starts_with("CREATE_"))
        .map(|(k, _)| k)
        .collect();
    for k in inherited {
        std::env::remove_var(k);
    }
    std::env::set_var("CREATE_CACHE_DIR", bench_dir().join("cache"));
    std::env::set_var("CREATE_THREADS", threads.to_string());
    std::env::set_var("CREATE_SERVE_WORKERS", threads.to_string());
}

/// Peak resident set of this process (MB), from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The result line plus notes, collected as the run goes.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    problems: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problems
                .push(format!("{name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Records a percentile, noting its sample count and the quantile
    /// actually taken.
    fn pct(&mut self, name: &'static str, p: Result<Pct, String>, unit: &'static str) {
        match p {
            Ok(p) => {
                self.notes
                    .push(format!("{name}: p{:.2} of n={}", p.q * 100.0, p.n));
                self.metric(name, p.value, unit);
            }
            Err(e) => {
                self.problems.push(format!("{name}: {e}"));
                self.metric(name, f64::NAN, unit);
            }
        }
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Prints notes, then the JSON result as the last stdout line.
    fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for p in &self.problems {
            println!("# CHECK FAILED: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Loads the cached models and deploys them — the first part of every
/// set-up (the model cache itself is filled before any timing).
fn deploy() -> Arc<Deployment> {
    let system = AgentSystem::jarvis();
    Arc::new(Deployment::new(&system, Precision::Int8))
}

fn serve_config(threads: usize, base_seed: u64) -> ServeConfig {
    ServeConfig::builder()
        .workers(threads)
        .queue(QUEUE)
        .base_seed(base_seed)
        .chaos(0.0)
        .governor(None)
        .default_deadline(None)
        .build()
}

fn net_config() -> NetConfig {
    NetConfig::builder()
        .addr("127.0.0.1:0")
        .inflight(QUEUE)
        .chaos(0.0)
        .build()
}

/// One warm-up mission through the engine, so the measured requests meet
/// warm sessions; it takes request id 0 on every engine the run starts.
const WARMUP: (TaskId, WireConfig) = (TaskId::Wooden, WireConfig::Golden);

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    isolate_env(threads);

    // Preparation, outside every timed phase: trains the models into the
    // benchmark's cache on the first run, loads them afterwards. A run
    // that had to train measures in a fresh child process, so training's
    // memory never shows in `peak_rss_mb`.
    let cached = || std::fs::read_dir(bench_dir().join("cache")).map_or(0, Iterator::count);
    let before = cached();
    drop(AgentSystem::jarvis());
    if cached() != before {
        let status = std::process::Command::new(std::env::current_exe().expect("own path"))
            .args(std::env::args_os().skip(1))
            .status()
            .expect("run the measurement after training");
        std::process::exit(status.code().unwrap_or(1));
    }

    let mut report = Report::default();
    report.notes.push(format!(
        "perfbench {} seed={} seconds={} trace={} threads={threads} gemm_backend={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        create_accel::Accelerator::ideal(0).backend_name(),
    ));
    let run = inputs(args.workload, args.seed, args.seconds);
    match args.workload {
        Workload::SweepFullCreate => sweep(&args, &run, threads, &mut report),
        _ => served(&args, &run, threads, &mut report),
    }
    report.print();
    if !report.problems.is_empty() {
        std::process::exit(1);
    }
}

/// Fails the run when the traced loop copy disagreed with the reference.
fn check_copy(report: &mut Report, replayed: &Replayed) {
    report.check(replayed.copy_mismatches.is_empty(), || {
        format!(
            "traced loop copy differs from MissionSession::run on missions {:?}",
            replayed.copy_mismatches
        )
    });
}

/// The two wire workloads.
fn served(args: &Args, run: &Inputs, threads: usize, report: &mut Report) {
    let w = args.workload;
    let config = w.wire_config().expect("served workload");
    let lp = match w {
        Workload::WireGoldenOpen => Loop::Open,
        _ => Loop::Closed {
            window: 2 * threads,
        },
    };
    let n = run.requests.len();

    let mut setups = Vec::new();
    let mut stack = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let dep = deploy();
        let engine = Arc::new(MissionEngine::start(
            Arc::clone(&dep),
            serve_config(threads, run.base_seed),
        ));
        let server = NetServer::start(Arc::clone(&engine), net_config()).expect("bind loopback");
        let mut client = NetClient::connect(server.local_addr().to_string());
        let warm = client.call(WARMUP.0, WARMUP.1);
        client.goodbye();
        setups.push(t.elapsed().as_secs_f64());
        report.check(matches!(warm, Ok(NetResponse::Done(_))), || {
            format!("warm-up request did not complete: {warm:?}")
        });
        if let Some((_, old_engine, old_server)) = stack.replace((dep, engine, server)) {
            shutdown(old_server, old_engine);
        }
    }
    let (dep, engine, server) = stack.expect("at least one set-up");

    let wire_run = wire::run_wire(server.local_addr(), &run.requests, config, lp);
    let rss = peak_rss_mb();
    let net_stats = shutdown(server, engine);

    // Every reply must be a completed mission at the engine's seed.
    let mut missions = Vec::with_capacity(n);
    let mut done = Vec::with_capacity(n);
    for (i, reply) in wire_run.replies.iter().enumerate() {
        match reply {
            Some(ServerMsg::Done(o)) => {
                report.check(
                    o.attempts == 1 && o.seed == request_seed(run.base_seed, o.request_id),
                    || format!("request {i}: seed {} is not the engine's", o.seed),
                );
                missions.push((run.requests[i].task, o.seed));
                done.push((i, *o));
            }
            other => report
                .problems
                .push(format!("request {i}: no completed mission ({other:?})")),
        }
    }
    report.attempted = n as u64;
    report.failed = wire::failed(&wire_run.replies, wire_run.errors);
    report.check(wire_run.errors == 0, || {
        format!("{} error frames on the wire", wire_run.errors)
    });

    let mission_config = config.to_config();
    let replayed = replay::replay(&dep, &mission_config, &missions, threads, args.trace);
    for (outcome, (i, o)) in replayed.outcomes.iter().zip(&done) {
        let same = outcome_digest(outcome) == o.digest
            && outcome.success == o.success
            && outcome.steps == o.steps
            && outcome.plans == o.plans
            && outcome.energy_j().to_bits() == o.energy_bits;
        report.check(same, || {
            format!("request {i}: offline MissionSession::run differs from the served mission")
        });
    }
    check_copy(report, &replayed);

    let latency: Vec<f64> = done
        .iter()
        .filter_map(|&(i, _)| wire_run.timing[i].latency_ns(lp))
        .map(ms)
        .collect();

    if !args.trace {
        report.metric("setup_s", median(&setups), "s");
        report.metric("missions_per_s", done.len() as f64 / wire_run.wall_s, "1/s");
        report.pct("latency_p50_ms", midmean(&latency), "ms");
        report.pct("latency_p99_ms", tail(&latency, 0.99), "ms");
        let met = latency.iter().filter(|&&l| l <= w.slo_ms()).count();
        report.metric("slo_met_frac", met as f64 / n as f64, "frac");
        let successes = done.iter().filter(|(_, o)| o.success).count();
        report.metric("success_rate", successes as f64 / done.len() as f64, "frac");
        let energy: f64 = done.iter().map(|(_, o)| o.energy_j()).sum();
        report.metric("energy_j_per_mission", energy / done.len() as f64, "J");
        report.metric("peak_rss_mb", rss, "MB");
        return;
    }

    // Traced run: the same schedule straight into an in-process engine.
    let engine = MissionEngine::start(Arc::clone(&dep), serve_config(threads, run.base_seed));
    let warm = engine
        .submit(create_serve::MissionRequest::new(
            WARMUP.0,
            WARMUP.1.to_config(),
        ))
        .expect("warm-up admitted")
        .wait();
    report.check(warm.outcome().is_some(), || {
        "in-process warm-up failed".to_string()
    });
    let (served, inproc_wall_s) = wire::run_in_process(&engine, &run.requests, config, lp);
    engine.shutdown();

    let mut overhead = Vec::new();
    for &(i, o) in &done {
        let s = &served[i];
        let same = s.outcome.seed == o.seed
            && s.outcome
                .outcome()
                .is_some_and(|out| outcome_digest(out) == o.digest);
        report.check(same, || {
            format!("request {i}: in-process engine and wire disagree")
        });
        if let Some(l) = wire_run.timing[i].latency_ns(lp) {
            overhead.push((l as f64 - s.latency_ns() as f64) / 1e6);
        }
    }
    report.pct("net.overhead_ms_p50", percentile(&overhead, 0.5), "ms");
    report.pct("net.overhead_ms_p99", tail(&overhead, 0.99), "ms");
    report.metric("net.responses", net_stats.responses as f64, "count");
    report.metric("net.overloaded", net_stats.overloaded as f64, "count");

    let queue: Vec<f64> = served.iter().map(|s| ms(s.outcome.queue_ns)).collect();
    let service: Vec<f64> = served.iter().map(|s| ms(s.outcome.service_ns)).collect();
    report.pct("serve.queue_ms_p50", percentile(&queue, 0.5), "ms");
    report.pct("serve.queue_ms_p99", tail(&queue, 0.99), "ms");
    report.pct("serve.service_ms_p50", percentile(&service, 0.5), "ms");
    report.pct("serve.service_ms_p99", tail(&service, 0.99), "ms");
    let busy_ms: f64 = service.iter().sum();
    report.metric(
        "serve.worker_busy_frac",
        busy_ms / 1e3 / (threads as f64 * inproc_wall_s),
        "frac",
    );

    let lag: Vec<f64> = wire_run.timing.iter().map(|t| ms(t.lag_ns())).collect();
    layer_metrics(
        report,
        &dep,
        w,
        &missions,
        &replayed,
        threads,
        wire_run.wall_s,
        tail(&lag, 0.99),
    );
}

/// Graceful drain of one served stack: front-end first, then the engine.
fn shutdown(server: NetServer, engine: Arc<MissionEngine>) -> NetStats {
    let stats = server.shutdown();
    match Arc::try_unwrap(engine) {
        Ok(engine) => engine.shutdown(),
        Err(_) => unreachable!("the drained server held the only other engine handle"),
    }
    stats
}

/// A grid cell that records when each of its trials ran, and what it
/// returned.
struct TimedCell<'a> {
    index: usize,
    cell: GridCell<'a>,
    origin: Instant,
    runs: Mutex<Vec<TrialRun>>,
}

/// One trial's run in the grid engine (ns from the grid's start).
#[derive(Debug)]
struct TrialRun {
    cell: usize,
    trial: u32,
    outcome: MissionOutcome,
    start_ns: u64,
    end_ns: u64,
    thread: std::thread::ThreadId,
}

// Implemented on a reference so the cells, and their trial logs, outlive
// the grid call.
impl ExperimentPoint for &TimedCell<'_> {
    type Outcome = MissionOutcome;
    type Acc = SweepAccumulator;

    fn trials(&self) -> u32 {
        self.cell.trials()
    }

    fn accumulator(&self) -> SweepAccumulator {
        self.cell.accumulator()
    }

    fn run_trial(&self, trial: u32, seed: u64) -> MissionOutcome {
        self.cell.run_trial(trial, seed)
    }

    fn run_batch(&self, first_trial: u32, seeds: &[u64], out: &mut Vec<MissionOutcome>) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.cell.run_batch(first_trial, seeds, out);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.runs
            .lock()
            .expect("trial log poisoned")
            .push(TrialRun {
                cell: self.index,
                trial: first_trial,
                outcome: out.last().expect("one outcome per trial").clone(),
                start_ns,
                end_ns,
                thread: std::thread::current().id(),
            });
    }
}

/// A mission's metered energy summed in a fixed unit order, so the figure
/// repeats to the bit for a fixed seed (`MissionOutcome::energy_j` sums in
/// hash-map order).
fn energy_j(outcome: &MissionOutcome) -> f64 {
    [Unit::Planner, Unit::Controller, Unit::Predictor]
        .iter()
        .map(|&u| outcome.meter.unit(u).total_j())
        .sum::<f64>()
        + outcome.meter.ldo_j()
}

/// The full-CREATE grid sweep.
fn sweep(args: &Args, run: &Inputs, threads: usize, report: &mut Report) {
    let w = args.workload;
    let config = w.config();
    let tasks = w.tasks();

    let mut setups = Vec::new();
    let mut dep = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let d = deploy();
        drop(MissionSession::warmed(&d));
        setups.push(t.elapsed().as_secs_f64());
        dep = Some(d);
    }
    let dep = dep.expect("at least one set-up");

    // One claim per trial, so every run_batch call is one trial's latency.
    let options = EngineOptions::builder()
        .threads(threads)
        .batch(1)
        .progress(Progress::Silent)
        .build();
    let origin = Instant::now();
    let cells: Vec<TimedCell> = tasks
        .iter()
        .enumerate()
        .map(|(index, &task)| TimedCell {
            index,
            cell: GridCell {
                dep: &dep,
                task,
                config: config.clone(),
                trials: run.reps,
            },
            origin,
            runs: Mutex::new(Vec::new()),
        })
        .collect();
    let points: Vec<SweepPoint> = run_grid_with(cells.iter(), run.base_seed, &options);
    let wall_s = origin.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let runs: Vec<TrialRun> = cells
        .into_iter()
        .flat_map(|c| c.runs.into_inner().expect("trial log poisoned"))
        .collect();

    let missions: Vec<(TaskId, u64)> = tasks
        .iter()
        .enumerate()
        .flat_map(|(cell, &task)| {
            (0..run.reps).map(move |trial| (task, derive_seed(run.base_seed, cell, trial)))
        })
        .collect();
    let trials = missions.len();
    report.attempted = trials as u64;
    report.failed = (trials - runs.len()) as u64;
    report.check(runs.len() == trials, || {
        format!("{} of {trials} trials ran", runs.len())
    });

    let replayed = replay::replay(&dep, &config, &missions, threads, args.trace);
    let reps = run.reps as usize;
    for r in &runs {
        let i = r.cell * reps + r.trial as usize;
        report.check(r.outcome == replayed.outcomes[i], || {
            format!(
                "cell {} trial {}: grid outcome differs from MissionSession::run: {:?} vs {:?}",
                r.cell, r.trial, r.outcome, replayed.outcomes[i]
            )
        });
    }
    // `MissionOutcome::energy_j` sums per-unit energies in hash-map order,
    // so with three units (planner, controller, predictor) a cell's mean
    // energy can differ in the last bits between two folds of identical
    // outcomes. The per-trial comparison above is exact; the cell check
    // is exact on counts and to 1e-12 on energy.
    for (cell, point) in points.iter().enumerate() {
        let replay_point =
            SweepPoint::from_outcomes(&replayed.outcomes[cell * reps..(cell + 1) * reps]);
        let same = replay_point.n == point.n
            && replay_point.successes == point.successes
            && (replay_point.avg_energy_j - point.avg_energy_j).abs()
                <= 1e-12 * point.avg_energy_j.abs();
        report.check(same, || {
            format!(
                "cell {cell}: grid result differs from the replay: {point:?} vs {replay_point:?}"
            )
        });
    }
    check_copy(report, &replayed);

    let latency: Vec<f64> = runs.iter().map(|r| ms(r.end_ns - r.start_ns)).collect();
    if !args.trace {
        report.metric("setup_s", median(&setups), "s");
        report.metric("missions_per_s", trials as f64 / wall_s, "1/s");
        // A trial's run time is its step count, which the seed decides
        // (about a third of the trials fail and use the whole step
        // budget), times its time per step, which the program decides.
        // Over 200 trials the middle of the product moves by a sixth from
        // seed to seed, so the sweep's p50 is taken per 1000 steps.
        let per_kstep: Vec<f64> = runs
            .iter()
            .map(|r| ms(r.end_ns - r.start_ns) * 1e3 / r.outcome.steps.max(1) as f64)
            .collect();
        report.pct("latency_p50_ms", midmean(&per_kstep), "ms");
        report.pct("latency_p99_ms", tail(&latency, 0.99), "ms");
        let met = latency.iter().filter(|&&l| l <= w.slo_ms()).count();
        report.metric("slo_met_frac", met as f64 / trials as f64, "frac");
        let successes: u32 = points.iter().map(|p| p.successes).sum();
        report.metric("success_rate", f64::from(successes) / trials as f64, "frac");
        // The replayed outcomes equal the grid's trial by trial (checked
        // above) and, unlike the grid's log, are in trial order.
        let energy: f64 = replayed.outcomes.iter().map(energy_j).sum();
        report.metric("energy_j_per_mission", energy / trials as f64, "J");
        report.metric("peak_rss_mb", rss, "MB");
        return;
    }

    // The sweep has no socket: the wire figures are the frame codec alone
    // on this sweep's missions, and no responses cross a connection.
    let passes = 1000usize.div_ceil(missions.len()) + 1;
    let codec: Vec<f64> = standalone::codec_calls(
        &missions,
        WireConfig::Undervolted(workload::SWEEP_V),
        passes,
    )
    .into_iter()
    .map(|ns| ns / 1e6)
    .collect();
    report.pct("net.overhead_ms_p50", percentile(&codec, 0.5), "ms");
    report.pct("net.overhead_ms_p99", percentile(&codec, 0.99), "ms");
    report.metric("net.responses", 0.0, "count");
    report.metric("net.overloaded", 0.0, "count");

    // The grid engine's pool is the sweep's queue: every trial is
    // enqueued at the start and waits until a thread claims it.
    let queue: Vec<f64> = runs.iter().map(|r| ms(r.start_ns)).collect();
    report.pct("serve.queue_ms_p50", percentile(&queue, 0.5), "ms");
    report.pct("serve.queue_ms_p99", tail(&queue, 0.99), "ms");
    report.pct("serve.service_ms_p50", percentile(&latency, 0.5), "ms");
    report.pct("serve.service_ms_p99", tail(&latency, 0.99), "ms");
    let busy_ms: f64 = latency.iter().sum();
    report.metric(
        "serve.worker_busy_frac",
        busy_ms / 1e3 / (threads as f64 * wall_s),
        "frac",
    );

    // Dispatch lag: how long a pool thread took from finishing one trial
    // (or from the grid's start) to starting the next.
    let mut by_start: Vec<&TrialRun> = runs.iter().collect();
    by_start.sort_by_key(|r| r.start_ns);
    let mut last_end = std::collections::HashMap::new();
    let lag: Vec<f64> = by_start
        .iter()
        .map(|r| {
            let prev_end = last_end.insert(r.thread, r.end_ns).unwrap_or(0);
            ms(r.start_ns.saturating_sub(prev_end))
        })
        .collect();
    layer_metrics(
        report,
        &dep,
        w,
        &missions,
        &replayed,
        threads,
        wall_s,
        tail(&lag, 0.99),
    );
}

/// The ledger metrics every workload shares.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    dep: &Deployment,
    w: Workload,
    missions: &[(TaskId, u64)],
    replayed: &Replayed,
    threads: usize,
    measured_wall_s: f64,
    gen_lag: Result<Pct, String>,
) {
    let ledger: &Ledger = replayed.ledger.as_ref().expect("traced replay");
    let missions_n = ledger.missions.max(1) as f64;
    let untraced_ns: u64 = replayed.untraced_ns.iter().sum();

    report.metric(
        "engine.parallel_efficiency",
        untraced_ns as f64 / 1e9 / (threads as f64 * measured_wall_s),
        "frac",
    );
    let c = &ledger.counts;
    report.metric("mission.steps", c.steps as f64 / missions_n, "count");
    report.metric("mission.plans", c.plans as f64 / missions_n, "count");
    report.metric("mission.predicts", c.predicts as f64 / missions_n, "count");
    report.metric(
        "mission.loop_self_share",
        ledger.share(Layer::Mission),
        "frac",
    );

    let us = |v: &[f64]| -> Vec<f64> { v.iter().map(|ns| ns / 1e3).collect() };
    report.pct(
        "planner.decode_us_p50",
        midmean(&us(ledger.calls(Layer::Planner))),
        "us",
    );
    report.metric("planner.share", ledger.share(Layer::Planner), "frac");
    report.pct(
        "controller.act_us_p50",
        midmean(&us(ledger.calls(Layer::Controller))),
        "us",
    );
    report.metric("controller.share", ledger.share(Layer::Controller), "frac");

    // Where no mission renders or predicts, time both calls standalone on
    // the workload's own first observations.
    let (render, predict) = if ledger.calls(Layer::Predictor).is_empty() {
        report.notes.push(
            "predictor.predict_us_p50, env.render_us_p50: standalone (no mission calls them)"
                .to_string(),
        );
        standalone::predictor_calls(dep, missions, 200)
    } else {
        (
            ledger.calls(Layer::Render).to_vec(),
            ledger.calls(Layer::Predictor).to_vec(),
        )
    };
    report.pct("predictor.predict_us_p50", midmean(&us(&predict)), "us");
    report.metric("predictor.share", ledger.share(Layer::Predictor), "frac");
    report.pct(
        "env.observe_us_p50",
        midmean(&us(ledger.calls(Layer::Observe))),
        "us",
    );
    report.pct(
        "env.step_us_p50",
        midmean(&us(ledger.calls(Layer::Step))),
        "us",
    );
    report.pct("env.render_us_p50", midmean(&us(&render)), "us");
    report.metric(
        "env.share",
        ledger.share(Layer::Observe) + ledger.share(Layer::Step) + ledger.share(Layer::Render),
        "frac",
    );

    report.metric(
        "accel.gemms_per_mission",
        c.gemms as f64 / missions_n,
        "count",
    );
    report.metric(
        "accel.mac_redundancy",
        c.macs as f64 / c.logical_macs.max(1) as f64,
        "ratio",
    );
    report.metric(
        "accel.corrupted_frac",
        if c.exposed == 0 {
            0.0
        } else {
            c.corrupted as f64 / c.exposed as f64
        },
        "frac",
    );
    report.metric(
        "accel.ad_cleared_per_mission",
        c.ad_cleared as f64 / missions_n,
        "count",
    );

    let d = standalone::datapath(dep, &w.config(), w.tasks()[0]);
    report.metric("accel.linear_ns", d.linear_ns, "ns");
    report.metric("accel.gemm_ns", d.gemm_ns, "ns");
    report.metric("accel.inject_ns", d.inject_ns, "ns");
    report.metric("accel.ad_ns", d.ad_ns, "ns");
    report.metric("tensor.quantize_ns", d.quantize_ns, "ns");

    report.metric(
        "trace.overhead_frac",
        ledger.mission_ns as f64 / untraced_ns.max(1) as f64 - 1.0,
        "frac",
    );
    report.pct("gen.lag_ms_p99", gen_lag, "ms");

    write_spans(report, w, &replayed.spans);
}

/// Writes the kept spans as JSON lines under `perfbench/out/`.
fn write_spans(report: &mut Report, w: Workload, spans: &[Span]) {
    let dir = bench_dir().join("out");
    let path = dir.join(format!("spans-{}.jsonl", w.name()));
    let body: String = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"mission\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}\n",
                s.mission,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            )
        })
        .collect();
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => report.notes.push(format!("spans: {}", path.display())),
        Err(e) => report
            .problems
            .push(format!("writing {}: {e}", path.display())),
    }
}
