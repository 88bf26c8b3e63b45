//! Offline replays of a run's missions on the benchmark's own threads.
//!
//! Every served or swept mission is re-run with `MissionSession::run` at
//! its recorded `(task, seed)` — that is the correctness reference — and,
//! in a traced run, also through the traced loop copy, whose outcome must
//! match the reference exactly.

use crate::traced::{run_traced, Ledger, LoopScratch, Span, Tracer};
use create_core::config::CreateConfig;
use create_core::mission::{Deployment, MissionOutcome, MissionSession};
use create_env::TaskId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Missions whose full span lists are kept for the span file.
pub const KEPT_MISSIONS: u32 = 8;

/// What a replay produced.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Reference outcome per mission, in list order.
    pub outcomes: Vec<MissionOutcome>,
    /// Reference (untraced) run time per mission (ns).
    pub untraced_ns: Vec<u64>,
    /// Folded spans and counts (traced replays only).
    pub ledger: Option<Ledger>,
    /// Spans of the first [`KEPT_MISSIONS`] missions.
    pub spans: Vec<Span>,
    /// Missions whose traced outcome differed from the reference.
    pub copy_mismatches: Vec<usize>,
}

/// Replays `missions` on `threads` workers claiming in list order.
pub fn replay(
    dep: &Deployment,
    config: &CreateConfig,
    missions: &[(TaskId, u64)],
    threads: usize,
    traced: bool,
) -> Replayed {
    let cursor = AtomicUsize::new(0);
    let origin = Instant::now();
    let per_worker: Vec<Worker> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut w = Worker::default();
                    let mut session = MissionSession::warmed(dep);
                    let mut scratch = LoopScratch::warmed(dep);
                    let mut tracer = Tracer::new(origin);
                    let mut ledger = Ledger::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(task, seed)) = missions.get(i) else {
                            break;
                        };
                        let t = Instant::now();
                        let reference = session.run(task, config, seed);
                        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        if traced {
                            let (copy, counts) = run_traced(
                                dep,
                                task,
                                config,
                                seed,
                                i as u32,
                                &mut scratch,
                                &mut tracer,
                            );
                            if copy != reference {
                                w.mismatches.push(i);
                            }
                            let spans = tracer.take();
                            ledger.fold(&spans, &counts);
                            if (i as u32) < KEPT_MISSIONS {
                                w.spans.extend(spans);
                            }
                        }
                        w.done.push((i, reference, ns));
                    }
                    w.ledger = traced.then_some(ledger);
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<(MissionOutcome, u64)>> = vec![None; missions.len()];
    let mut out = Replayed::default();
    let mut ledger: Option<Ledger> = None;
    for w in per_worker {
        for (i, outcome, ns) in w.done {
            slots[i] = Some((outcome, ns));
        }
        out.spans.extend(w.spans);
        out.copy_mismatches.extend(w.mismatches);
        if let Some(l) = w.ledger {
            match ledger.as_mut() {
                Some(total) => total.merge(l),
                None => ledger = Some(l),
            }
        }
    }
    for slot in slots {
        let (outcome, ns) = slot.expect("every mission replayed once");
        out.outcomes.push(outcome);
        out.untraced_ns.push(ns);
    }
    out.spans.sort_by_key(|s| (s.mission, s.start_ns));
    out.copy_mismatches.sort_unstable();
    out.ledger = ledger;
    out
}

#[derive(Default)]
struct Worker {
    done: Vec<(usize, MissionOutcome, u64)>,
    spans: Vec<Span>,
    mismatches: Vec<usize>,
    ledger: Option<Ledger>,
}
