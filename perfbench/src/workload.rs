//! The three workloads and the inputs each derives from its seed.
//!
//! Everything a run sends — the arrival schedule, the task sequence and
//! the engine base seed — is a pure function of `(workload, seed,
//! seconds)`, generated here before anything is timed. The program under
//! test only ever sees the generated requests.

use create_core::config::CreateConfig;
use create_core::policy::EntropyPolicy;
use create_env::TaskId;
use create_net::WireConfig;

/// Tasks of the golden and full-CREATE mixes.
pub const FOUR_TASKS: [TaskId; 4] = [
    TaskId::Wooden,
    TaskId::Stone,
    TaskId::Charcoal,
    TaskId::Chicken,
];

/// Tasks of the undervolted mix.
pub const TWO_TASKS: [TaskId; 2] = [TaskId::Wooden, TaskId::Stone];

/// Offered rate of the open loop, missions/s: about half the served
/// capacity of the golden mix over the wire with two workers.
pub const OPEN_RATE: f64 = 250.0;

/// Closed-loop requests per measured second: the undervolted mix's
/// served capacity with two workers, so a run lasts about `--seconds`.
pub const CLOSED_PER_SECOND: f64 = 50.0;

/// Sweep trials per measured second with two engine threads.
pub const SWEEP_PER_SECOND: f64 = 10.0;

/// Latency limit of `slo_met_frac`, per workload (ms).
pub const SLO_GOLDEN_MS: f64 = 50.0;
/// See [`SLO_GOLDEN_MS`].
pub const SLO_UNDERVOLTED_MS: f64 = 250.0;
/// See [`SLO_GOLDEN_MS`]; a sweep trial's latency is its run time, and
/// the limit sits above a failed trial's full 3000-step budget.
pub const SLO_SWEEP_MS: f64 = 600.0;

/// Supply voltage of the undervolted wire workload.
pub const UNDERVOLTED_V: f64 = 0.86;
/// Supply voltage of the full-CREATE sweep.
pub const SWEEP_V: f64 = 0.84;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop Poisson arrivals of golden missions over one pipelined
    /// TCP connection.
    WireGoldenOpen,
    /// Closed loop of undervolted missions over one pipelined TCP
    /// connection, window = 2 × workers.
    WireUndervoltedClosed,
    /// `create-core` grid engine over full-CREATE cells.
    SweepFullCreate,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WireGoldenOpen,
        Workload::WireUndervoltedClosed,
        Workload::SweepFullCreate,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireGoldenOpen => "wire-golden-open",
            Workload::WireUndervoltedClosed => "wire-undervolted-closed",
            Workload::SweepFullCreate => "sweep-full-create",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The wire spelling of the served config (`None` for the sweep).
    pub fn wire_config(self) -> Option<WireConfig> {
        match self {
            Workload::WireGoldenOpen => Some(WireConfig::Golden),
            Workload::WireUndervoltedClosed => Some(WireConfig::Undervolted(UNDERVOLTED_V)),
            Workload::SweepFullCreate => None,
        }
    }

    /// The mission configuration every request of the workload runs.
    pub fn config(self) -> CreateConfig {
        match self.wire_config() {
            Some(wire) => wire.to_config(),
            None => CreateConfig::undervolted(SWEEP_V).with_full_create(EntropyPolicy::preset_c()),
        }
    }

    /// The task mix.
    pub fn tasks(self) -> &'static [TaskId] {
        match self {
            Workload::WireUndervoltedClosed => &TWO_TASKS,
            _ => &FOUR_TASKS,
        }
    }

    /// The latency limit of `slo_met_frac` (ms).
    pub fn slo_ms(self) -> f64 {
        match self {
            Workload::WireGoldenOpen => SLO_GOLDEN_MS,
            Workload::WireUndervoltedClosed => SLO_UNDERVOLTED_MS,
            Workload::SweepFullCreate => SLO_SWEEP_MS,
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::WireGoldenOpen => 0x0BE7_601D,
            Workload::WireUndervoltedClosed => 0x0BE7_0086,
            Workload::SweepFullCreate => 0x0BE7_5EEB,
        }
    }
}

/// SplitMix64: a tiny generator owned by the benchmark, so its inputs do
/// not move when the program's own RNG changes.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        SplitMix(seed ^ workload.salt().rotate_left(29))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` tasks with every task of `mix` equally often (up to the
    /// remainder), in a seeded random order: the mix itself is not a
    /// source of run-to-run spread, only which missions each task gets.
    pub fn balanced(&mut self, mix: &[TaskId], n: usize) -> Vec<TaskId> {
        let mut tasks: Vec<TaskId> = (0..n).map(|i| mix[i % mix.len()]).collect();
        for i in (1..n).rev() {
            tasks.swap(i, self.below(i + 1));
        }
        tasks
    }
}

/// One generated request: its task and, in the open loop, when it is due
/// (ns after the schedule starts; 0 in a closed loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Task to run.
    pub task: TaskId,
    /// Due time in ns from the start of the schedule.
    pub due_ns: u64,
}

/// The generated inputs of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Requests in sending order (sweep: one per trial, cell-major).
    pub requests: Vec<Request>,
    /// Base seed of the serving engine or the grid.
    pub base_seed: u64,
    /// Sweep repetitions per cell (0 for the wire workloads).
    pub reps: u32,
}

/// Generates the inputs of `workload` for `seed` and a run of `seconds`.
pub fn inputs(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let mut rng = SplitMix::new(workload, seed);
    let base_seed = rng.next_u64();
    let secs = seconds as f64;
    match workload {
        Workload::WireGoldenOpen => {
            let mut due = Vec::new();
            let mut t = 0.0f64;
            loop {
                // Exponential inter-arrival gaps: a Poisson process at
                // OPEN_RATE; 1 - u keeps ln away from 0.
                t += -(1.0 - rng.next_f64()).ln() / OPEN_RATE;
                if t >= secs {
                    break;
                }
                due.push((t * 1e9) as u64);
            }
            let tasks = rng.balanced(workload.tasks(), due.len());
            let requests = due
                .into_iter()
                .zip(tasks)
                .map(|(due_ns, task)| Request { task, due_ns })
                .collect();
            Inputs {
                requests,
                base_seed,
                reps: 0,
            }
        }
        Workload::WireUndervoltedClosed => {
            let n = (secs * CLOSED_PER_SECOND).ceil() as usize;
            let requests = rng
                .balanced(workload.tasks(), n)
                .into_iter()
                .map(|task| Request { task, due_ns: 0 })
                .collect();
            Inputs {
                requests,
                base_seed,
                reps: 0,
            }
        }
        Workload::SweepFullCreate => {
            let cells = workload.tasks().len() as f64;
            let reps = (secs * SWEEP_PER_SECOND / cells).ceil().max(1.0) as u32;
            let requests = workload
                .tasks()
                .iter()
                .flat_map(|&task| (0..reps).map(move |_| Request { task, due_ns: 0 }))
                .collect();
            Inputs {
                requests,
                base_seed,
                reps,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            assert_eq!(inputs(w, 7, 5), inputs(w, 7, 5), "{}", w.name());
            assert_ne!(inputs(w, 7, 5).base_seed, inputs(w, 8, 5).base_seed);
        }
        let a = inputs(Workload::WireGoldenOpen, 7, 5);
        let b = inputs(Workload::WireGoldenOpen, 8, 5);
        assert_ne!(a.requests, b.requests, "schedules differ across seeds");
    }

    #[test]
    fn the_open_schedule_is_poisson_at_the_offered_rate() {
        let run = inputs(Workload::WireGoldenOpen, 3, 20);
        let n = run.requests.len() as f64;
        let expected = OPEN_RATE * 20.0;
        assert!((n - expected).abs() < 4.0 * expected.sqrt(), "{n} arrivals");
        assert!(run.requests.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(run.requests.last().unwrap().due_ns < 20_000_000_000);
        for task in FOUR_TASKS {
            assert!(run.requests.iter().any(|r| r.task == task));
        }
    }

    #[test]
    fn closed_and_sweep_sizes_follow_the_run_length() {
        let closed = inputs(Workload::WireUndervoltedClosed, 1, 10);
        assert_eq!(closed.requests.len(), (10.0 * CLOSED_PER_SECOND) as usize);
        let wooden = closed
            .requests
            .iter()
            .filter(|r| r.task == TaskId::Wooden)
            .count();
        assert_eq!(2 * wooden, closed.requests.len(), "the mix is balanced");
        let sweep = inputs(Workload::SweepFullCreate, 1, 10);
        assert_eq!(sweep.requests.len(), 4 * sweep.reps as usize);
        assert_eq!(sweep.requests[0].task, TaskId::Wooden);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
