//! Order statistics used by every workload: medians, the tail percentile
//! rule, and the open-loop latency arithmetic.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentiles a tail may be reported at, highest last.
const TAIL_PERCENTILES: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// The highest percentile in [`TAIL_PERCENTILES`] that leaves at least 10
/// samples beyond it among `n` samples, or `None` when even p90 does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// One request of an open-loop schedule, all times in seconds from the
/// start of its phase.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// When the schedule said to send it.
    pub intended: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When its response was complete.
    pub done: f64,
}

impl Timing {
    /// Latency as the user sees it: from the intended send time, so a
    /// stalled generator or server charges every request that queued
    /// behind the stall (the coordinated-omission correction).
    pub fn latency(&self) -> f64 {
        self.done - self.intended
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.intended).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(2500), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn open_loop_latency_counts_generator_lateness() {
        // Due at 1.000 s but sent 30 ms late (the previous response on this
        // connection was slow); the server answered 4 ms after the send.
        let t = Timing {
            intended: 1.000,
            sent: 1.030,
            done: 1.034,
        };
        assert!(
            (t.latency() - 0.034).abs() < 1e-12,
            "latency runs from the intended time"
        );
        assert!((t.lateness() - 0.030).abs() < 1e-12);
        // On schedule: latency equals service time.
        let on_time = Timing {
            intended: 2.0,
            sent: 2.0,
            done: 2.004,
        };
        assert!((on_time.latency() - 0.004).abs() < 1e-12);
        assert_eq!(on_time.lateness(), 0.0);
    }
}
