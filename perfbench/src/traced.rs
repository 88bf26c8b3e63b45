//! A traced copy of the mission loop, built from the public calls.
//!
//! `create_core::mission::run_trial_with` has no spans of its own, so the
//! benchmark re-assembles the same loop from the calls it makes —
//! `decode_with`, `act_with`, `predict`, `World::observe/step`,
//! `render_image`, `Ldo`, `EnergyMeter` — and wraps each call in a span.
//! Every traced mission is checked against `MissionSession::run` at the
//! same seed ([`crate::replay`]): if the library loop changes and this
//! copy no longer matches it, the traced run fails instead of quietly
//! attributing time to a loop that no longer exists.

use create_accel::ad::AdStats;
use create_accel::energy::{EnergyMeter, InferenceCost};
use create_accel::{AccelConfig, Accelerator, Ldo, Unit};
use create_agents::{ControllerScratch, PlannerScratch, QuantPlanner};
use create_core::config::{CreateConfig, PhaseGate, VoltageControl};
use create_core::mission::{Deployment, MissionOutcome, ENTROPY_SPIKE_THRESHOLD};
use create_env::{Observation, Subtask, TaskId, World};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The layer a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The mission loop itself (root span; its self time is the loop's
    /// own bookkeeping: plan tracking, energy metering, LDO control).
    Mission,
    /// `QuantPlanner::decode_with`.
    Planner,
    /// `World::observe`.
    Observe,
    /// `Observation::render_image`.
    Render,
    /// `EntropyPredictor::predict`.
    Predictor,
    /// `QuantController::act_with`.
    Controller,
    /// `World::step`.
    Step,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 7] = [
        Layer::Mission,
        Layer::Planner,
        Layer::Observe,
        Layer::Render,
        Layer::Predictor,
        Layer::Controller,
        Layer::Step,
    ];

    /// Span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Mission => "mission",
            Layer::Planner => "planner.decode",
            Layer::Observe => "env.observe",
            Layer::Render => "env.render",
            Layer::Predictor => "predictor.predict",
            Layer::Controller => "controller.act",
            Layer::Step => "env.step",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer of the call.
    pub layer: Layer,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the parent span in the same mission (`None` for the root).
    pub parent: Option<u32>,
    /// Mission the span belongs to (its index in the replayed list).
    pub mission: u32,
}

/// Span recorder for one worker thread: the spans of the current mission
/// stay in memory until the mission is folded into a [`Ledger`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    mission: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            mission: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, layer: Layer, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            mission: self.mission,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        let end = self.now_ns();
        self.spans[span as usize].end_ns = end;
    }

    /// Runs `f` inside a child span of `parent`.
    fn child<R>(&mut self, layer: Layer, parent: u32, f: impl FnOnce() -> R) -> R {
        let span = self.open(layer, Some(parent));
        let out = f();
        self.close(span);
        out
    }

    /// Takes the current mission's spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Exact per-mission counts taken at the layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Environment steps.
    pub steps: u64,
    /// Planner decodes.
    pub plans: u64,
    /// Entropy-predictor calls.
    pub predicts: u64,
    /// GEMMs on both accelerators.
    pub gemms: u64,
    /// Physical MACs (redundant executions included).
    pub macs: u64,
    /// Logical MACs.
    pub logical_macs: u64,
    /// Accumulator elements hit by injection.
    pub corrupted: u64,
    /// Accumulator elements exposed to injection.
    pub exposed: u64,
    /// GEMM outputs cleared by anomaly detection.
    pub ad_cleared: u64,
}

impl Counts {
    /// Adds another mission's counts.
    pub fn add(&mut self, o: &Counts) {
        self.steps += o.steps;
        self.plans += o.plans;
        self.predicts += o.predicts;
        self.gemms += o.gemms;
        self.macs += o.macs;
        self.logical_macs += o.logical_macs;
        self.corrupted += o.corrupted;
        self.exposed += o.exposed;
        self.ad_cleared += o.ad_cleared;
    }
}

/// Inference scratch of the traced loop (the library's `TrialScratch`
/// keeps its fields private).
#[derive(Debug, Default)]
pub struct LoopScratch {
    controller: ControllerScratch,
    planner: PlannerScratch,
}

impl LoopScratch {
    /// Pre-sized scratch, as a warmed `MissionSession` holds.
    pub fn warmed(dep: &Deployment) -> Self {
        let mut s = LoopScratch::default();
        dep.controller.warm(&mut s.controller);
        if let Some(&task) = dep.tasks.first() {
            dep.planner.warm(task, &mut s.planner);
        }
        s
    }
}

/// Copy of the library's private execution-phase test.
fn is_execution_phase(obs: &Observation) -> bool {
    let streak = obs.status[0] > 0.0;
    let adjacent = obs.status[16..20].iter().any(|&v| v > 0.5);
    let craft_ready = obs.status[1] > 0.5;
    streak || adjacent || craft_ready
}

/// Runs one mission through the traced loop. The outcome must equal
/// `MissionSession::run(task, config, seed)`.
pub fn run_traced(
    dep: &Deployment,
    task: TaskId,
    config: &CreateConfig,
    seed: u64,
    mission: u32,
    scratch: &mut LoopScratch,
    tracer: &mut Tracer,
) -> (MissionOutcome, Counts) {
    tracer.mission = mission;
    let root = tracer.open(Layer::Mission, None);
    let mut counts = Counts::default();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x51EED);
    let mut world = World::for_task(task, seed);
    let mut planner_accel = Accelerator::new(
        AccelConfig {
            injector: config
                .planner_error
                .map(|e| e.injector(dep.planner_preset.injection_scale)),
            ad_enabled: config.planner_ad,
            scheme: config.scheme,
            bound_scale: config.ad_bound_scale,
            ..AccelConfig::default()
        },
        seed ^ 0x9A,
    );
    planner_accel.set_voltage(config.planner_voltage);
    let controller_injector = config
        .controller_error
        .map(|e| e.injector(dep.controller_preset.injection_scale));
    let mut ctrl_accel = Accelerator::new(
        AccelConfig {
            injector: controller_injector.clone(),
            ad_enabled: config.controller_ad,
            scheme: config.scheme,
            bound_scale: config.ad_bound_scale,
            ..AccelConfig::default()
        },
        seed ^ 0xC7,
    );
    let mut ldo = Ldo::new();
    match &config.voltage {
        VoltageControl::Fixed(v) => {
            ldo.set_target(*v);
        }
        VoltageControl::Adaptive { policy, .. } => {
            ldo.set_target(policy.voltage_for(0.0));
        }
    }
    ctrl_accel.set_voltage(ldo.output());

    let planner_model: &QuantPlanner = if config.wr {
        &dep.planner_wr
    } else {
        &dep.planner
    };
    let planner_cost = dep.planner_preset.inference_cost();
    let ctrl_cost = dep.controller_preset.inference_cost();
    let pred_cost = dep.predictor_preset.inference_cost();
    let mut meter = EnergyMeter::new();
    let overhead = 1.0 + config.scheme.static_overhead();
    let scaled = |cost: &InferenceCost, factor: f64| InferenceCost {
        macs: cost.macs * factor,
        dram_bytes: cost.dram_bytes,
        sram_bytes: cost.sram_bytes,
    };
    let accel_factor = |accel: &Accelerator, p0: u64, l0: u64| -> f64 {
        let dp = accel.macs() - p0;
        let dl = accel.logical_macs() - l0;
        if dl == 0 {
            1.0
        } else {
            dp as f64 / dl as f64
        }
    };

    let (p0, l0) = (planner_accel.macs(), planner_accel.logical_macs());
    let mut plan = tracer.child(Layer::Planner, root, || {
        planner_model.decode_with(&mut planner_accel, task, &[], &mut scratch.planner)
    });
    meter.record(
        Unit::Planner,
        &scaled(
            &planner_cost,
            accel_factor(&planner_accel, p0, l0) * overhead,
        ),
        config.planner_voltage,
        config.precision,
    );
    let mut plans = 1u32;
    let mut completed: Vec<Subtask> = Vec::new();
    let mut plan_idx = 0usize;
    let mut subtask_steps = 0u32;
    world.set_subtask(plan[0]);

    let mut entropy_trace = Vec::new();
    let mut predicted_trace = Vec::new();
    let mut voltage_trace = Vec::new();
    let mut success = false;
    let mut step_in_mission = 0u64;
    let mut burst_used = 0u32;
    let mut entropy_spikes = 0u64;

    while world.steps() < config.limits.max_steps {
        while world.subtask_complete() {
            completed.push(plan[plan_idx]);
            plan_idx += 1;
            subtask_steps = 0;
            if plan_idx < plan.len() {
                world.set_subtask(plan[plan_idx]);
            } else {
                break;
            }
        }
        if world.task_goal_met() {
            success = true;
            break;
        }
        if plan_idx >= plan.len() || subtask_steps >= config.limits.subtask_timeout {
            let (p0, l0) = (planner_accel.macs(), planner_accel.logical_macs());
            plan = tracer.child(Layer::Planner, root, || {
                planner_model.decode_with(
                    &mut planner_accel,
                    task,
                    &completed,
                    &mut scratch.planner,
                )
            });
            meter.record(
                Unit::Planner,
                &scaled(
                    &planner_cost,
                    accel_factor(&planner_accel, p0, l0) * overhead,
                ),
                config.planner_voltage,
                config.precision,
            );
            plans += 1;
            plan_idx = 0;
            subtask_steps = 0;
            world.set_subtask(plan[0]);
        }

        let obs = tracer.child(Layer::Observe, root, || world.observe());

        if let VoltageControl::Adaptive { policy, interval } = &config.voltage {
            if step_in_mission.is_multiple_of(*interval as u64) {
                let image = tracer.child(Layer::Render, root, || obs.render_image());
                let predicted = tracer.child(Layer::Predictor, root, || {
                    dep.predictor.predict(&image, obs.subtask_token)
                });
                counts.predicts += 1;
                meter.record(
                    Unit::Predictor,
                    &pred_cost,
                    create_accel::timing::V_NOMINAL,
                    config.precision,
                );
                ldo.set_target(policy.voltage_for(predicted));
                ctrl_accel.set_voltage(ldo.output());
                if config.record_traces {
                    predicted_trace.push(predicted);
                }
            } else if config.record_traces {
                predicted_trace.push(f32::NAN);
            }
        }

        let phase_matches = match config.controller_phase {
            PhaseGate::Always => true,
            PhaseGate::ExplorationOnly => !is_execution_phase(&obs),
            PhaseGate::ExecutionOnly => is_execution_phase(&obs),
        };
        if config.controller_phase != PhaseGate::Always || config.controller_burst.is_some() {
            let budget_left = config.controller_burst.is_none_or(|k| burst_used < k);
            let inject = phase_matches && budget_left;
            if inject {
                burst_used += 1;
            }
            ctrl_accel.set_injector(if inject {
                controller_injector.clone()
            } else {
                None
            });
        }

        let (c0, cl0) = (ctrl_accel.macs(), ctrl_accel.logical_macs());
        let (action, entropy) = tracer.child(Layer::Controller, root, || {
            dep.controller.act_with(
                &mut ctrl_accel,
                &obs,
                config.temperature,
                &mut rng,
                &mut scratch.controller,
            )
        });
        meter.record(
            Unit::Controller,
            &scaled(&ctrl_cost, accel_factor(&ctrl_accel, c0, cl0) * overhead),
            ctrl_accel.voltage(),
            config.precision,
        );
        if entropy > ENTROPY_SPIKE_THRESHOLD {
            entropy_spikes += 1;
        }
        if config.record_traces {
            entropy_trace.push(entropy);
            voltage_trace.push(ctrl_accel.voltage());
        }
        tracer.child(Layer::Step, root, || world.step(action));
        subtask_steps += 1;
        step_in_mission += 1;
    }
    if world.task_goal_met() {
        success = true;
    }
    meter.record_ldo(ldo.switching_energy());

    let mut ad: AdStats = planner_accel.ad_stats();
    ad.merge(ctrl_accel.ad_stats());
    let mut scheme_events = planner_accel.scheme_stats();
    scheme_events.merge(ctrl_accel.scheme_stats());

    counts.steps = world.steps();
    counts.plans = u64::from(plans);
    counts.gemms = planner_accel.gemms() + ctrl_accel.gemms();
    counts.macs = planner_accel.macs() + ctrl_accel.macs();
    counts.logical_macs = planner_accel.logical_macs() + ctrl_accel.logical_macs();
    let (pi, ci) = (
        planner_accel.injection_stats(),
        ctrl_accel.injection_stats(),
    );
    counts.corrupted = pi.corrupted + ci.corrupted;
    counts.exposed = pi.total + ci.total;
    counts.ad_cleared = ad.cleared;

    let outcome = MissionOutcome {
        success,
        steps: world.steps(),
        plans,
        meter,
        ldo_switches: ldo.switches(),
        entropy_trace,
        predicted_trace,
        voltage_trace,
        ad,
        scheme_events,
        entropy_spikes,
    };
    tracer.close(root);
    (outcome, counts)
}

/// Per-layer totals folded from the spans of many missions.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Self time per layer (ns), indexed like [`Layer::ALL`].
    pub self_ns: [u64; 7],
    /// Duration of every call per layer (ns), for the per-call medians.
    pub calls_ns: [Vec<f64>; 7],
    /// Root-span time summed over missions (ns).
    pub mission_ns: u64,
    /// Missions folded.
    pub missions: u64,
    /// Exact counts summed over missions.
    pub counts: Counts,
}

impl Ledger {
    /// Folds one mission's spans. A span's self time is its duration
    /// minus the time its direct children cover.
    pub fn fold(&mut self, spans: &[Span], counts: &Counts) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let i = s.layer.index();
            self.self_ns[i] += dur.saturating_sub(children);
            if s.layer == Layer::Mission {
                self.mission_ns += dur;
            } else {
                self.calls_ns[i].push(dur as f64);
            }
        }
        self.missions += 1;
        self.counts.add(counts);
    }

    /// Merges another worker's ledger.
    pub fn merge(&mut self, other: Ledger) {
        for i in 0..Layer::ALL.len() {
            self.self_ns[i] += other.self_ns[i];
        }
        for (mine, theirs) in self.calls_ns.iter_mut().zip(other.calls_ns) {
            mine.extend(theirs);
        }
        self.mission_ns += other.mission_ns;
        self.missions += other.missions;
        self.counts.add(&other.counts);
    }

    /// Self-time share of `layer` in all traced mission time.
    pub fn share(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()] as f64 / self.mission_ns.max(1) as f64
    }

    /// Per-call durations of `layer` (ns).
    pub fn calls(&self, layer: Layer) -> &[f64] {
        &self.calls_ns[layer.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            mission: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            span(Layer::Mission, 0, 100, None),
            span(Layer::Planner, 10, 40, Some(0)),
            span(Layer::Controller, 50, 90, Some(0)),
        ];
        let mut ledger = Ledger::default();
        ledger.fold(&spans, &Counts::default());
        assert_eq!(ledger.self_ns[Layer::Mission.index()], 30);
        assert_eq!(ledger.self_ns[Layer::Planner.index()], 30);
        assert_eq!(ledger.mission_ns, 100);
        let total: f64 = Layer::ALL.iter().map(|&l| ledger.share(l)).sum();
        assert!((total - 1.0).abs() < 1e-12, "shares partition mission time");
        assert_eq!(ledger.calls(Layer::Controller), &[40.0]);
    }
}
