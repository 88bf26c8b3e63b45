//! Per-call timings of single layers, outside any mission.
//!
//! The accelerator datapath stages (quantize → GEMM → inject → AD) are
//! timed at the deployed planner and controller layer shapes under the
//! workload's own accelerator configuration. Calls a workload's missions
//! never make (the predictor and renderer on the wire workloads, the
//! frame codec on the sweep) are timed here on that workload's own
//! inputs, so the per-call figure exists everywhere; the layer's share
//! and call count in the traced ledger are what show it is bypassed.

use create_accel::ad;
use create_accel::{AccelConfig, Accelerator, Component, GemmBackendKind, LayerCtx, Unit};
use create_core::config::{CreateConfig, ErrorSpec, VoltageControl};
use create_core::mission::Deployment;
use create_env::{TaskId, World};
use create_net::wire::{frame, FrameBuf};
use create_net::{ClientMsg, NetOutcome, ServerMsg, WireConfig};
use create_tensor::{Matrix, Precision, QuantMatrix, QuantParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Median per-call time (ns) of `f`, from 5 batches of ≥ 1 ms each.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut iters = 0u64;
    while t.elapsed().as_micros() < 500 {
        f();
        iters += 1;
    }
    let per = t.elapsed().as_secs_f64() / iters as f64;
    let batch = ((1e-3 / per).ceil() as u64).max(1);
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

/// Mean per-call time of each datapath stage over the deployed layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Datapath {
    /// `Accelerator::linear_into` (the whole stage chain).
    pub linear_ns: f64,
    /// The resolved GEMM backend's `gemm_i8_acc_into`.
    pub gemm_ns: f64,
    /// `Injector::inject` at the unit's voltage.
    pub inject_ns: f64,
    /// `ad::clear_anomalies`.
    pub ad_ns: f64,
    /// `QuantMatrix::quantize_with_into`.
    pub quantize_ns: f64,
}

/// One deployed layer: unit, component, block index, rows of its input.
struct LayerShape {
    unit: Unit,
    component: Component,
    layer: usize,
    m: usize,
    w: QuantMatrix,
}

/// The deployed layers in visiting order, with the rows each one's input
/// has in a mission: 1 for the controller's embeddings and head, its
/// token count inside the blocks, and the mean decode length for the
/// planner blocks.
fn layers(dep: &Deployment, config: &CreateConfig, task: TaskId) -> Vec<LayerShape> {
    let mut out = Vec::new();
    let mut controller = (*dep.controller).clone();
    let depth = controller.depth();
    let mut i = 0usize;
    controller.visit_weights_mut(|w| {
        let (component, layer, m) = match i {
            0 | 1 => (Component::Embed, 0, 1),
            k if k == 2 + 6 * depth => (Component::Head, depth, 1),
            k => {
                let c = [
                    Component::Q,
                    Component::K,
                    Component::V,
                    Component::O,
                    Component::Fc1,
                    Component::Fc2,
                ][(k - 2) % 6];
                (c, (k - 2) / 6, 4)
            }
        };
        out.push(LayerShape {
            unit: Unit::Controller,
            component,
            layer,
            m,
            w: w.clone(),
        });
        i += 1;
    });
    let mut planner = if config.wr {
        (*dep.planner_wr).clone()
    } else {
        (*dep.planner).clone()
    };
    let plan = planner.decode(&mut Accelerator::ideal(0), task, &[]);
    let decode_m = 2 + plan.len() / 2;
    let depth = planner.depth();
    let mut i = 0usize;
    planner.visit_weights_mut(|w| {
        let (component, layer, m) = if i == 7 * depth {
            (Component::Head, depth, 1)
        } else {
            let c = [
                Component::Q,
                Component::K,
                Component::V,
                Component::O,
                Component::Gate,
                Component::Up,
                Component::Down,
            ][i % 7];
            (c, i / 7, decode_m)
        };
        out.push(LayerShape {
            unit: Unit::Planner,
            component,
            layer,
            m,
            w: w.clone(),
        });
        i += 1;
    });
    out
}

/// Times every datapath stage at every deployed layer shape under
/// `config` and returns the per-call means over layers.
pub fn datapath(dep: &Deployment, config: &CreateConfig, task: TaskId) -> Datapath {
    let shapes = layers(dep, config, task);
    let backend = GemmBackendKind::from_env().instantiate();
    let params = QuantParams::from_max_abs(1.0, Precision::Int8);
    let controller_v = match &config.voltage {
        VoltageControl::Fixed(v) => *v,
        VoltageControl::Adaptive { policy, .. } => policy.voltage_for(0.0),
    };
    let mut sum = Datapath::default();
    for s in &shapes {
        let (spec, preset_scale, ad_enabled, v) = match s.unit {
            Unit::Planner => (
                config.planner_error,
                dep.planner_preset.injection_scale,
                config.planner_ad,
                config.planner_voltage,
            ),
            _ => (
                config.controller_error,
                dep.controller_preset.injection_scale,
                config.controller_ad,
                controller_v,
            ),
        };
        let ctx = LayerCtx::new(s.unit, s.component, s.layer);
        let k = s.w.rows();
        let x = Matrix::from_fn(s.m, k, |r, c| {
            (((r * 31 + c * 17) % 23) as f32 - 11.0) / 11.0
        });
        let bound = 8.0f32;

        let mut accel = Accelerator::new(
            AccelConfig {
                injector: spec.map(|e| e.injector(preset_scale)),
                ad_enabled,
                scheme: config.scheme,
                bound_scale: config.ad_bound_scale,
                ..AccelConfig::default()
            },
            7,
        );
        accel.set_voltage(v);
        let mut out = Matrix::zeros(0, 0);
        sum.linear_ns += per_call_ns(|| {
            accel.linear_into(black_box(&x), &s.w, params, bound, ctx, &mut out);
        });

        let mut xq = QuantMatrix::empty(params);
        sum.quantize_ns +=
            per_call_ns(|| QuantMatrix::quantize_with_into(black_box(&x), params, &mut xq));

        let mut acc = Vec::new();
        sum.gemm_ns += per_call_ns(|| backend.gemm_i8_acc_into(black_box(&xq), &s.w, &mut acc));

        // A golden workload attaches no injector; its stage is timed with
        // the hardware error model at the unit's (nominal) voltage.
        let injector = spec
            .unwrap_or_else(ErrorSpec::voltage)
            .injector(preset_scale);
        let mut rng = StdRng::seed_from_u64(11);
        let mut hit = acc.clone();
        sum.inject_ns += per_call_ns(|| {
            black_box(injector.inject(&mut hit, ctx, v, &mut rng));
        });

        let combined = params.scale() * s.w.params().scale();
        let bound_acc = ad::bound_in_acc_units(bound, combined);
        let mut cleared = acc.clone();
        sum.ad_ns += per_call_ns(|| {
            black_box(ad::clear_anomalies(&mut cleared, bound_acc));
        });
    }
    let n = shapes.len() as f64;
    Datapath {
        linear_ns: sum.linear_ns / n,
        gemm_ns: sum.gemm_ns / n,
        inject_ns: sum.inject_ns / n,
        ad_ns: sum.ad_ns / n,
        quantize_ns: sum.quantize_ns / n,
    }
}

/// Per-call times (ns) of `render_image` and `predict` on the first
/// observation of each of the first `limit` missions.
pub fn predictor_calls(
    dep: &Deployment,
    missions: &[(TaskId, u64)],
    limit: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut render = Vec::new();
    let mut predict = Vec::new();
    for &(task, seed) in missions.iter().take(limit) {
        let obs = World::for_task(task, seed).observe();
        let t = Instant::now();
        let image = black_box(obs.render_image());
        render.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        black_box(dep.predictor.predict(&image, obs.subtask_token));
        predict.push(t.elapsed().as_nanos() as f64);
    }
    (render, predict)
}

/// Per-request time (ns) of the frame codec alone — render, frame, scan
/// and parse one `submit` and one `done` line — for each mission, `passes`
/// times over the list.
pub fn codec_calls(missions: &[(TaskId, u64)], config: WireConfig, passes: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(missions.len() * passes);
    let mut buf = FrameBuf::new();
    for _ in 0..passes {
        for (i, &(task, seed)) in missions.iter().enumerate() {
            let t = Instant::now();
            let submit = ClientMsg::Submit {
                client_id: i as u64,
                task,
                config,
            };
            buf.extend(&frame(submit.render().as_bytes()));
            let payload = buf
                .next_frame()
                .expect("valid frame")
                .expect("complete frame");
            black_box(ClientMsg::parse(&payload).expect("valid submit"));
            let done = ServerMsg::Done(NetOutcome {
                client_id: i as u64,
                request_id: i as u64,
                seed,
                attempts: 1,
                success: true,
                steps: seed % 3000,
                plans: 1,
                energy_bits: (seed as f64).to_bits(),
                digest: seed.rotate_left(17),
            });
            buf.extend(&frame(done.render().as_bytes()));
            let payload = buf
                .next_frame()
                .expect("valid frame")
                .expect("complete frame");
            black_box(ServerMsg::parse(&payload).expect("valid done"));
            out.push(t.elapsed().as_nanos() as f64);
        }
    }
    out
}
