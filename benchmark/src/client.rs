//! Load generators. The gating metrics come from the closed loop (one
//! client thread keeps a fixed number of requests in flight and redeems
//! them first-in first-out); the open loop (a Poisson schedule sent
//! regardless of replies) runs only in the traced run and feeds the
//! `client.*` diagnostics, because its tail does not repeat on a small
//! shared host.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::spans::Tracer;
use crate::stats::{percentile, Sample};
use crate::surface::{Pending, Reply, Service};

/// One reply in [`CHECK_EVERY`] is kept for the correctness check.
pub const CHECK_EVERY: usize = 64;

/// What a phase of engine requests produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One entry per reply that arrived inside the phase window.
    pub samples: Vec<Sample>,
    /// Length of the phase window in nanoseconds.
    pub phase_ns: u64,
    /// Requests sent.
    pub attempted: usize,
    /// Requests that errored or came back degraded.
    pub failed: usize,
    /// `(index into the histories, ranked items)` of the kept replies.
    pub kept: Vec<(usize, Vec<u32>)>,
}

/// An empty sample buffer with room for `duration` at 200 000 operations
/// a second. Reserved address space costs nothing until written, while
/// a buffer that grows by doubling makes the process's peak memory jump
/// by the size of the buffer whenever a run crosses a power of two.
pub fn sample_buffer(duration: Duration) -> Vec<Sample> {
    Vec::with_capacity((duration.as_secs_f64().min(60.0) * 200_000.0) as usize)
}

struct InFlight {
    pending: Pending,
    index: usize,
    start_ns: u64,
    submitted_ns: u64,
    trace: u64,
}

fn settle(reply: Result<Reply, String>, index: usize, out: &mut Outcome) {
    match reply {
        Ok(r) if !r.degraded => {
            if out.attempted.is_multiple_of(CHECK_EVERY) {
                out.kept.push((index, r.items));
            }
        }
        _ => out.failed += 1,
    }
    out.attempted += 1;
}

/// Closed loop: keep `window` requests in flight for `duration`, taking
/// history indices from `next_index`, redeeming replies in send order.
/// Latency runs from just before `submit` to the reply being observed.
/// `admitted` is how many operations the engine has admitted so far: its
/// trace ids are a function of admission order, which is how a traced
/// run knows the id of every request it sends.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    svc: &Service,
    histories: &[Vec<u32>],
    mut next_index: impl FnMut() -> usize,
    k: usize,
    window: usize,
    duration: Duration,
    tracer: &mut Tracer,
    admitted: u64,
) -> Outcome {
    let mut out = Outcome {
        samples: sample_buffer(duration),
        phase_ns: duration.as_nanos() as u64,
        ..Outcome::default()
    };
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(window);
    let mut sent = 0u64;
    let t0 = tracer.now_ns();
    let end = t0 + out.phase_ns;
    loop {
        while inflight.len() < window && tracer.now_ns() < end {
            let index = next_index();
            let trace = if tracer.enabled() {
                svc.trace_id_of(admitted + sent)
            } else {
                0
            };
            sent += 1;
            let start_ns = tracer.now_ns();
            let pending = svc.submit(&histories[index], k);
            let submitted_ns = tracer.now_ns();
            inflight.push_back(InFlight {
                pending,
                index,
                start_ns,
                submitted_ns,
                trace,
            });
        }
        let Some(req) = inflight.pop_front() else {
            break;
        };
        let reply = req.pending.wait();
        let done_ns = tracer.now_ns();
        if done_ns < end {
            out.samples.push(Sample {
                done_ns: done_ns - t0,
                latency_ns: done_ns - req.start_ns,
            });
        }
        let parent = tracer.record("client.request", 0, req.trace, req.start_ns, done_ns);
        tracer.record(
            "serve.submit",
            parent,
            req.trace,
            req.start_ns,
            req.submitted_ns,
        );
        settle(reply, req.index, &mut out);
    }
    out
}

/// What one open-loop rate produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenLoop {
    /// Median latency from the due time, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency from the due time, milliseconds.
    pub p99_ms: f64,
    /// 99th percentile of how late the sender ran, milliseconds.
    pub sender_lag_p99_ms: f64,
    /// The last third's median latency stayed within twice the first
    /// third's: the queue was not growing.
    pub steady: bool,
    /// Requests sent.
    pub attempted: usize,
    /// Requests that errored or came back degraded.
    pub failed: usize,
}

/// Open loop: a sender thread submits `histories[order[i]]` at `due[i]`
/// (nanoseconds from the start) whatever the engine is doing, a collector thread
/// redeems replies, and every latency runs from the request's *due*
/// time, so a stall is charged to the requests queued behind it.
pub fn open_loop(
    svc: &Service,
    histories: &[Vec<u32>],
    order: &[usize],
    k: usize,
    due: &[u64],
) -> OpenLoop {
    let (tx, rx) = mpsc::channel::<(Pending, u64)>();
    let origin = Instant::now();
    let (lags, collected) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut latencies = Vec::with_capacity(due.len());
            let mut failed = 0usize;
            for (pending, due_ns) in rx {
                let reply = pending.wait();
                latencies
                    .push((origin.elapsed().as_nanos() as u64).saturating_sub(due_ns) as f64 / 1e6);
                failed += usize::from(!matches!(reply, Ok(r) if !r.degraded));
            }
            (latencies, failed)
        });
        let mut lags = Vec::with_capacity(due.len());
        for (i, &due_ns) in due.iter().enumerate() {
            // Sleep most of the gap, spin the last stretch: sleeping
            // alone overshoots by a scheduler quantum.
            loop {
                let now = origin.elapsed().as_nanos() as u64;
                if now >= due_ns {
                    lags.push((now - due_ns) as f64 / 1e6);
                    break;
                }
                if due_ns - now > 300_000 {
                    std::thread::sleep(Duration::from_nanos(due_ns - now - 200_000));
                } else {
                    std::hint::spin_loop();
                }
            }
            let pending = svc.submit(&histories[order[i]], k);
            tx.send((pending, due_ns))
                .expect("collector outlives the sender");
        }
        drop(tx);
        (lags, collector.join().expect("collector thread"))
    });
    let (latencies, failed) = collected;
    let third = (latencies.len() / 3).max(1);
    let head = percentile(&latencies[..third.min(latencies.len())], 0.5);
    let tail = percentile(&latencies[latencies.len().saturating_sub(third)..], 0.5);
    OpenLoop {
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        sender_lag_p99_ms: percentile(&lags, 0.99),
        steady: tail <= 2.0 * head,
        attempted: due.len(),
        failed,
    }
}
