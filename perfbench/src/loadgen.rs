//! Open-loop load generator in the wrk2 style.
//!
//! Each connection owns a fixed schedule: request `i` is due at
//! `offset + i · conns / rate` seconds after the phase starts. A
//! connection sends a request when it is due, or at once when the previous
//! response arrived late, and latency is taken from the due time (see
//! [`Timing::latency`]), so a stall is charged to every request that
//! queued behind it instead of silently lowering the offered load.

use crate::stats::{median, percentile, tail_percentile, Timing};
use std::time::{Duration, Instant};

/// One request as sent and answered.
#[derive(Debug)]
pub struct Shot {
    /// Connection that sent it.
    pub conn: usize,
    /// Index in that connection's schedule.
    pub seq: usize,
    /// Due, send and completion times.
    pub timing: Timing,
    /// Response body of a successful request, or why it failed.
    pub outcome: Result<Vec<u8>, String>,
}

/// Due times of connection `conn`'s requests in a `secs`-long phase at a
/// total `rate` (requests per second) shared by `conns` connections.
pub fn schedule(conns: usize, rate: f64, secs: f64, offset: f64) -> Vec<f64> {
    let interval = conns as f64 / rate;
    (0..)
        .map(|i| offset + i as f64 * interval)
        .take_while(|&t| t < secs)
        .collect()
}

/// Runs one phase: `offsets.len()` connections, each on its own thread,
/// together offering `rate` requests per second for `secs` seconds.
/// `send(conn, seq)` performs one request and returns its body. Returns
/// the shots in due order and the CPU seconds the connection threads used.
pub fn run<F>(rate: f64, secs: f64, offsets: &[f64], send: F) -> (Vec<Shot>, f64)
where
    F: Fn(usize, usize) -> Result<Vec<u8>, String> + Sync,
{
    let conns = offsets.len();
    let start = Instant::now();
    let send = &send;
    let (mut shots, mut cpu) = (Vec::new(), 0.0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = offsets
            .iter()
            .enumerate()
            .map(|(conn, &offset)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (seq, intended) in
                        schedule(conns, rate, secs, offset).into_iter().enumerate()
                    {
                        let due = start + Duration::from_secs_f64(intended);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = start.elapsed().as_secs_f64();
                        let outcome = send(conn, seq);
                        let done = start.elapsed().as_secs_f64();
                        out.push(Shot {
                            conn,
                            seq,
                            timing: Timing {
                                intended,
                                sent,
                                done,
                            },
                            outcome,
                        });
                    }
                    (out, crate::host::thread_cpu_secs())
                })
            })
            .collect();
        for h in handles {
            let (out, thread_cpu) = h.join().expect("load generator thread panicked");
            shots.extend(out);
            cpu += thread_cpu;
        }
    });
    shots.sort_by(|a, b| a.timing.intended.total_cmp(&b.timing.intended));
    (shots, cpu)
}

/// Latency summary of one phase. A failed request counts as missing every
/// latency limit, so it enters the percentiles as an infinite latency.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSummary {
    /// Requests sent.
    pub sent: usize,
    /// Requests that failed.
    pub failed: usize,
    /// Median latency from the due time, seconds.
    pub p50: f64,
    /// The tail percentile reported (highest with ≥ 10 samples beyond).
    pub tail_pct: f64,
    /// Latency at `tail_pct`, seconds.
    pub tail: f64,
    /// Median lateness of the phase's last quarter, seconds: near zero
    /// while the generator keeps its schedule, growing with a backlog.
    pub end_lateness: f64,
    /// Largest lateness in the phase, seconds.
    pub max_lateness: f64,
}

/// Summarizes a phase's shots.
pub fn summarize(shots: &[Shot]) -> PhaseSummary {
    let lat: Vec<f64> = shots
        .iter()
        .map(|s| {
            if s.outcome.is_ok() {
                s.timing.latency()
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let late: Vec<f64> = shots.iter().map(|s| s.timing.lateness()).collect();
    let tail_pct = tail_percentile(shots.len()).unwrap_or(50.0);
    PhaseSummary {
        sent: shots.len(),
        failed: shots.iter().filter(|s| s.outcome.is_err()).count(),
        p50: median(&lat),
        tail_pct,
        tail: percentile(&lat, tail_pct),
        end_lateness: median(&late[late.len() - late.len() / 4..]),
        max_lateness: late.iter().copied().fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_requests_per_connection() {
        // 2 connections at 100 req/s: each sends every 20 ms.
        let s = schedule(2, 100.0, 0.1, 0.005);
        assert_eq!(s.len(), 5);
        assert!((s[1] - s[0] - 0.02).abs() < 1e-12);
        assert!((s[0] - 0.005).abs() < 1e-12);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // One connection due every 10 ms; the first response takes 55 ms.
        // The next requests go out late, and their latency includes the
        // wait for their turn, not just their own 0 ms of service.
        let (shots, _) = run(100.0, 0.1, &[0.0], |_, seq| {
            if seq == 0 {
                std::thread::sleep(Duration::from_millis(55));
            }
            Ok(Vec::new())
        });
        assert_eq!(shots.len(), 10);
        let second = &shots[1];
        assert!((second.timing.intended - 0.010).abs() < 1e-12);
        assert!(second.timing.lateness() >= 0.040, "sent after the stall");
        assert!(
            second.timing.latency() >= 0.045,
            "latency from the due time"
        );
        assert!(
            second.timing.done - second.timing.sent < 0.010,
            "service itself was fast"
        );
        let summary = summarize(&shots);
        assert!(summary.max_lateness >= 0.040);
        assert!(summary.p50 >= 0.0);
        // 10 samples leave no percentile with 10 beyond: the tail falls
        // back to the median.
        assert_eq!(summary.tail_pct, 50.0);
    }

    #[test]
    fn failures_miss_every_latency_limit() {
        let (shots, _) = run(1000.0, 0.02, &[0.0, 0.0005], |conn, _| {
            if conn == 1 {
                Err("503".into())
            } else {
                Ok(Vec::new())
            }
        });
        let s = summarize(&shots);
        assert_eq!(s.sent, 20);
        assert_eq!(s.failed, 10);
        // Half the requests failed, so even the median misses every limit.
        assert!(s.p50.is_infinite());
    }
}
