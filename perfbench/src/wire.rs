//! Load generators: the wire client over one pipelined TCP connection,
//! and the same schedule submitted straight to an in-process
//! `MissionEngine` (the baseline the wire's overhead is measured against).

use crate::workload::Request;
use create_net::wire::{frame, FrameBuf};
use create_net::{ClientMsg, ServerMsg, WireConfig};
use create_serve::{MissionEngine, MissionRequest, MissionTicket, ServedOutcome};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How requests are released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// Each request is sent at its due time, whatever the replies do.
    Open,
    /// At most `window` requests are outstanding; a reply releases the
    /// next request.
    Closed {
        /// Requests kept in flight.
        window: usize,
    },
}

/// Longest silence tolerated before the run gives up on missing replies.
const STALL: Duration = Duration::from_secs(60);

fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sleeps until `due_ns` after `origin` (returns at once when late).
fn sleep_until(origin: Instant, due_ns: u64) {
    let now = ns_since(origin);
    if due_ns > now {
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// Timing of one request of a load run (ns from the run's origin).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timing {
    /// When the request should have been sent: its due time (open loop)
    /// or the moment the reply that released it arrived (closed loop).
    pub trigger_ns: u64,
    /// When it was sent.
    pub send_ns: u64,
    /// When its reply arrived (`None` = never).
    pub reply_ns: Option<u64>,
}

impl Timing {
    /// Latency: from the due time in the open loop, from sending in the
    /// closed loop.
    pub fn latency_ns(&self, lp: Loop) -> Option<u64> {
        let from = match lp {
            Loop::Open => self.trigger_ns,
            Loop::Closed { .. } => self.send_ns,
        };
        self.reply_ns.map(|r| r.saturating_sub(from))
    }

    /// How late the generator sent the request.
    pub fn lag_ns(&self) -> u64 {
        self.send_ns.saturating_sub(self.trigger_ns)
    }
}

/// A finished wire run.
#[derive(Debug)]
pub struct WireRun {
    /// Per-request timing, by client id (= request index).
    pub timing: Vec<Timing>,
    /// Per-request reply line, by client id.
    pub replies: Vec<Option<ServerMsg>>,
    /// `error` lines and undecodable frames received.
    pub errors: u64,
    /// First send to last reply (s).
    pub wall_s: f64,
}

/// Failed operations of a wire run: every request without a `done`
/// reply (rejected, failed or missing) plus every `error` or undecodable
/// frame. A mission that ran but missed its goal is not a failure here.
pub fn failed(replies: &[Option<ServerMsg>], errors: u64) -> u64 {
    let not_done = replies
        .iter()
        .filter(|r| !matches!(r, Some(ServerMsg::Done(_))))
        .count();
    not_done as u64 + errors
}

/// Drives `requests` over one TCP connection to `addr`.
pub fn run_wire(addr: SocketAddr, requests: &[Request], config: WireConfig, lp: Loop) -> WireRun {
    let n = requests.len();
    let mut stream = TcpStream::connect(addr).expect("connect to the benchmark's own server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut reader = stream.try_clone().expect("clone the client socket");
    reader
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("set read timeout");
    let origin = Instant::now() + Duration::from_millis(5);
    let (released_tx, released_rx) = mpsc::channel::<u64>();

    let (replies, errors, timing) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut replies: Vec<Option<ServerMsg>> = vec![None; n];
            let mut reply_ns: Vec<Option<u64>> = vec![None; n];
            let mut errors = 0u64;
            let mut got = 0usize;
            let mut buf = FrameBuf::new();
            let mut chunk = vec![0u8; 64 * 1024];
            let mut last_progress = Instant::now();
            'read: while got < n {
                loop {
                    match buf.next_frame() {
                        Ok(Some(payload)) => {
                            let now = ns_since(origin);
                            last_progress = Instant::now();
                            let msg = match ServerMsg::parse(&payload) {
                                Ok(msg) => msg,
                                Err(_) => {
                                    errors += 1;
                                    continue;
                                }
                            };
                            let id = match &msg {
                                ServerMsg::Done(o) => Some(o.client_id),
                                ServerMsg::Rejected { client_id, .. }
                                | ServerMsg::Failed { client_id, .. } => Some(*client_id),
                                ServerMsg::Error(_) => {
                                    errors += 1;
                                    None
                                }
                                ServerMsg::Bye => break 'read,
                                ServerMsg::Pong => None,
                            };
                            let Some(id) = id.and_then(|id| usize::try_from(id).ok()) else {
                                continue;
                            };
                            if id >= n || replies[id].is_some() {
                                errors += 1;
                                continue;
                            }
                            replies[id] = Some(msg);
                            reply_ns[id] = Some(now);
                            got += 1;
                            // The sender ignores this channel in the open loop.
                            let _ = released_tx.send(now);
                        }
                        Ok(None) => break,
                        Err(_) => {
                            errors += 1;
                            break 'read;
                        }
                    }
                }
                match reader.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(k) => buf.extend(&chunk[..k]),
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        if last_progress.elapsed() > STALL {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            (replies, errors, reply_ns)
        });

        let mut timing = vec![Timing::default(); n];
        let mut send = |i: usize, trigger_ns: u64, stream: &mut TcpStream| {
            let line = ClientMsg::Submit {
                client_id: i as u64,
                task: requests[i].task,
                config,
            }
            .render();
            timing[i].trigger_ns = trigger_ns;
            timing[i].send_ns = ns_since(origin);
            stream
                .write_all(&frame(line.as_bytes()))
                .expect("write a submit frame");
        };
        match lp {
            Loop::Open => {
                for (i, r) in requests.iter().enumerate() {
                    sleep_until(origin, r.due_ns);
                    send(i, r.due_ns, &mut stream);
                }
            }
            Loop::Closed { window } => {
                sleep_until(origin, 0);
                let first = window.min(n);
                for i in 0..first {
                    send(i, 0, &mut stream);
                }
                for i in first..n {
                    match released_rx.recv_timeout(STALL) {
                        Ok(at) => send(i, at, &mut stream),
                        Err(_) => break,
                    }
                }
            }
        }
        let (replies, errors, reply_ns) = collector.join().expect("reply collector panicked");
        for (t, r) in timing.iter_mut().zip(&reply_ns) {
            t.reply_ns = *r;
        }
        let _ = stream.write_all(&frame(ClientMsg::Bye.render().as_bytes()));
        let _ = stream.shutdown(Shutdown::Write);
        (replies, errors, timing)
    });
    let first = timing.iter().map(|t| t.send_ns).min().unwrap_or(0);
    let last = timing
        .iter()
        .filter_map(|t| t.reply_ns)
        .max()
        .unwrap_or(first);
    WireRun {
        timing,
        replies,
        errors,
        wall_s: (last.saturating_sub(first)) as f64 / 1e9,
    }
}

/// One request served in process.
#[derive(Debug, Clone)]
pub struct Served {
    /// Due time (open loop) or submit time (closed loop), ns.
    pub trigger_ns: u64,
    /// When `submit` was called, ns.
    pub submit_ns: u64,
    /// The engine's record of the request.
    pub outcome: ServedOutcome,
}

impl Served {
    /// Latency comparable to [`Timing::latency_ns`]: the engine's own
    /// queue + service time plus how late the request was submitted.
    pub fn latency_ns(&self) -> u64 {
        self.submit_ns.saturating_sub(self.trigger_ns) + self.outcome.latency_ns()
    }
}

/// Submits the same schedule straight to `engine`, replies awaited in
/// submission order exactly like the wire's in-order reply writer.
pub fn run_in_process(
    engine: &MissionEngine,
    requests: &[Request],
    config: WireConfig,
    lp: Loop,
) -> (Vec<Served>, f64) {
    let n = requests.len();
    let origin = Instant::now() + Duration::from_millis(5);
    let (ticket_tx, ticket_rx) = mpsc::channel::<(u64, u64, MissionTicket)>();
    let (released_tx, released_rx) = mpsc::channel::<u64>();
    let served = std::thread::scope(|scope| {
        let waiter = scope.spawn(move || {
            let mut served = Vec::with_capacity(n);
            for (trigger_ns, submit_ns, ticket) in ticket_rx {
                let outcome = ticket.wait();
                let _ = released_tx.send(ns_since(origin));
                served.push(Served {
                    trigger_ns,
                    submit_ns,
                    outcome,
                });
            }
            served
        });
        let submit = |i: usize, trigger_ns: u64| {
            let submit_ns = ns_since(origin);
            let ticket = engine
                .submit(MissionRequest::new(requests[i].task, config.to_config()))
                .expect("the benchmark's engine queue admits every request");
            ticket_tx
                .send((trigger_ns, submit_ns, ticket))
                .expect("waiter alive");
        };
        match lp {
            Loop::Open => {
                for (i, r) in requests.iter().enumerate() {
                    sleep_until(origin, r.due_ns);
                    submit(i, r.due_ns);
                }
            }
            Loop::Closed { window } => {
                sleep_until(origin, 0);
                let first = window.min(n);
                for i in 0..first {
                    submit(i, ns_since(origin));
                }
                for i in first..n {
                    released_rx.recv().expect("waiter alive");
                    submit(i, ns_since(origin));
                }
            }
        }
        drop(ticket_tx);
        waiter.join().expect("ticket waiter panicked")
    });
    let first = served.iter().map(|s| s.submit_ns).min().unwrap_or(0);
    let last = served
        .iter()
        .map(|s| s.submit_ns + s.outcome.latency_ns())
        .max()
        .unwrap_or(first);
    (served, (last.saturating_sub(first)) as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use create_net::{NetOutcome, NetReject};
    use create_serve::ServeFailure;

    #[test]
    fn failed_counts_rejected_failed_missing_and_error_frames() {
        let done = ServerMsg::Done(NetOutcome {
            client_id: 0,
            request_id: 1,
            seed: 2,
            attempts: 1,
            success: false,
            steps: 3000,
            plans: 9,
            energy_bits: 1.0f64.to_bits(),
            digest: 7,
        });
        let replies = vec![
            Some(done.clone()),
            Some(ServerMsg::Rejected {
                client_id: 1,
                reason: NetReject::QueueFull { capacity: 4 },
            }),
            Some(ServerMsg::Failed {
                client_id: 2,
                failure: ServeFailure::Panicked,
            }),
            None,
            Some(done),
        ];
        assert_eq!(
            failed(&replies, 0),
            3,
            "an unsuccessful mission is not a failure"
        );
        assert_eq!(failed(&replies, 2), 5);
        assert_eq!(failed(&[], 0), 0);
    }
}
