//! From the load generator's samples to the numbers a caller would quote.

use crate::loadgen::{ClientLog, Outcome, Window};

/// Median of `values` (sorts them); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of `sorted`; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Which statistic `client.latency_tail_ms` is on a workload. The percentile is
/// fixed per workload (see [`crate::spec::Workload::tail`]) and so does not
/// move with the number of samples a window produced: a change that raises
/// the throughput is judged at the same percentile as one that lowers it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tail {
    /// The quantile over the whole window.
    Window(f64),
    /// The median over the one-second slices of the window of each slice's
    /// quantile: the tail of a typical second. For request rates in the
    /// thousands per second, where one stall of the machine (10-300 ms, a
    /// few times a minute on the machine the benchmark was sized on) holds
    /// more than a hundredth of the window's requests and would decide the
    /// whole window's p99 by itself. A slowdown shows once it reaches half
    /// of the seconds; `client.latency_p999_ms` is over the whole window,
    /// stalls and all.
    MedianOfSeconds(f64),
}

impl Tail {
    /// The quantile, as a fraction.
    pub fn quantile(self) -> f64 {
        match self {
            Tail::Window(q) | Tail::MedianOfSeconds(q) => q,
        }
    }
}

/// The tail of latencies given with the second of the window each request
/// started in; 0 without samples.
fn tail(samples: &[(u8, f64)], rule: Tail) -> f64 {
    match rule {
        Tail::Window(q) => {
            let mut all: Vec<f64> = samples.iter().map(|s| s.1).collect();
            all.sort_by(f64::total_cmp);
            quantile(&all, q)
        }
        Tail::MedianOfSeconds(q) => {
            let seconds = samples.iter().map(|s| s.0 as usize + 1).max().unwrap_or(0);
            let mut by_second = vec![Vec::new(); seconds];
            for &(second, latency_ms) in samples {
                by_second[second as usize].push(latency_ms);
            }
            let mut per_second: Vec<f64> = by_second
                .iter_mut()
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.sort_by(f64::total_cmp);
                    quantile(s, q)
                })
                .collect();
            median(&mut per_second)
        }
    }
}

/// What the measured window of one drive amounted to.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub attempted: u64,
    pub ok: u64,
    pub shed: u64,
    pub errored: u64,
    pub transport_failed: u64,
    pub mismatched: u64,
    /// Mismatches during the warm-up: no part of the figures, but the run
    /// is incorrect all the same.
    pub warmup_mismatched: u64,
    /// Bit-correct completions per second.
    pub throughput_ops_s: f64,
    /// Caller-observed latencies of the bit-correct completions, sorted.
    pub latency_ms: Vec<f64>,
    /// The tail latency (see [`Tail`]).
    pub tail_ms: f64,
    /// How late the open-loop generator sent, sorted (empty when closed).
    pub send_lag_ms: Vec<f64>,
}

impl Summary {
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    pub fn correct(&self) -> bool {
        self.mismatched + self.warmup_mismatched == 0
    }

    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.ok as f64 / self.attempted as f64
        }
    }

    pub fn p50_ms(&self) -> f64 {
        quantile(&self.latency_ms, 0.5)
    }
}

/// Reduces the clients' logs to the figures of the measured window: the
/// requests that started (closed loop) or were due (open loop) at or after
/// the end of the warm-up.
///
/// Closed-loop throughput is the sum over clients of
/// `(completions - 1) / (last completion - first completion)`: each client
/// is a chain of back-to-back requests, so that interval holds a whole
/// number of them and the rate does not depend on where the window's edges
/// fall within a request — with requests of half a second and a window of
/// seconds, counting completions inside fixed edges would be off by up to
/// one request in twenty. Open-loop throughput is completions over the
/// window, which the schedule fixes.
pub fn summarize(logs: &[ClientLog], window: Window, open_loop: bool, rule: Tail) -> Summary {
    let mut s = Summary::default();
    let mut timed: Vec<(u8, f64)> = Vec::new();
    let window_s = (window.end_ns - window.warm_end_ns) as f64 / 1e9;
    for log in logs {
        let count = |outcome: Outcome| log.outcomes[outcome as usize];
        s.attempted += log.outcomes.iter().sum::<u64>();
        s.ok += count(Outcome::Ok);
        s.shed += count(Outcome::Shed);
        s.errored += count(Outcome::Errored);
        s.transport_failed += count(Outcome::TransportFailed);
        s.mismatched += count(Outcome::Mismatched);
        s.warmup_mismatched += log.warmup_mismatched;
        let completions = log.latency_ms.len();
        s.throughput_ops_s += if !open_loop && completions >= 2 && log.last_ok_ns > log.first_ok_ns
        {
            (completions - 1) as f64 / ((log.last_ok_ns - log.first_ok_ns) as f64 / 1e9)
        } else {
            completions as f64 / window_s
        };
        timed.extend(
            log.second
                .iter()
                .zip(&log.latency_ms)
                .map(|(&second, &ms)| (second, f64::from(ms))),
        );
        s.send_lag_ms
            .extend(log.send_lag_ms.iter().map(|&ms| f64::from(ms)));
    }
    s.tail_ms = tail(&timed, rule);
    s.latency_ms = timed.into_iter().map(|t| t.1).collect();
    s.latency_ms.sort_by(f64::total_cmp);
    s.send_lag_ms.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::Sample;
    use crate::trace::Lane;

    fn log(window: Window, samples: &[(u64, u64, Outcome)]) -> ClientLog {
        let mut log = ClientLog::new(window, Lane::new("t", false));
        for (i, &(start_ns, end_ns, outcome)) in samples.iter().enumerate() {
            log.record(Sample {
                id: i as u64,
                start_ns,
                end_ns,
                outcome,
            });
        }
        log
    }

    #[test]
    fn quantiles_and_tail_rules() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        // The whole window: the same percentile whatever the sample count.
        let sparse = |n: u32| -> Vec<(u8, f64)> {
            (0..n).map(|i| ((i / 10) as u8, f64::from(i + 1))).collect()
        };
        assert_eq!(tail(&sparse(40), Tail::Window(0.75)), 30.0);
        assert_eq!(tail(&sparse(60), Tail::Window(0.75)), 45.0);
        assert_eq!(tail(&[], Tail::Window(0.75)), 0.0);
        assert_eq!(tail(&[], Tail::MedianOfSeconds(0.99)), 0.0);
        // Per second: each slice's p99 is 990 but for stalled slices. One
        // stalled second of three does not decide the figure; two do.
        let dense = |stalled: std::ops::Range<u32>| -> Vec<(u8, f64)> {
            (0..3000u32)
                .map(|i| {
                    let stall = if stalled.contains(&i) { 5000.0 } else { 0.0 };
                    ((i / 1000) as u8, f64::from(i % 1000 + 1) + stall)
                })
                .collect()
        };
        assert_eq!(tail(&dense(1000..1100), Tail::MedianOfSeconds(0.99)), 990.0);
        assert!(tail(&dense(1000..1100), Tail::Window(0.99)) > 5000.0);
        assert!(tail(&dense(900..1100), Tail::MedianOfSeconds(0.99)) > 5000.0);
    }

    #[test]
    fn closed_loop_rate_ignores_the_window_edges() {
        // One client, one request per 100 ms, warm-up ends mid-request.
        let samples: Vec<_> = (0..20u64)
            .map(|i| (i * 100_000_000, (i + 1) * 100_000_000, Outcome::Ok))
            .collect();
        let window = Window {
            warm_end_ns: 250_000_000,
            end_ns: 2_000_000_000,
        };
        let s = summarize(&[log(window, &samples)], window, false, Tail::Window(0.75));
        assert_eq!(s.attempted, 17);
        assert!(
            (s.throughput_ops_s - 10.0).abs() < 1e-9,
            "{}",
            s.throughput_ops_s
        );
        assert!((s.p50_ms() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn failures_count_against_attempts_and_miss_latency() {
        let samples = [
            (10, 20, Outcome::Ok),
            (10, 30, Outcome::Shed),
            (10, 40, Outcome::Mismatched),
            (10, 50, Outcome::Errored),
            (10, 60, Outcome::TransportFailed),
            (1, 5, Outcome::Shed),       // warm-up: not counted
            (2, 6, Outcome::Mismatched), // warm-up: not counted, but incorrect
        ];
        let window = Window {
            warm_end_ns: 10,
            end_ns: 1_000_000_010,
        };
        let s = summarize(&[log(window, &samples)], window, true, Tail::Window(0.75));
        assert_eq!((s.attempted, s.ok, s.failed()), (5, 1, 4));
        assert_eq!(
            (s.shed, s.mismatched, s.errored, s.transport_failed),
            (1, 1, 1, 1)
        );
        assert_eq!(s.latency_ms.len(), 1);
        assert_eq!(s.warmup_mismatched, 1);
        assert!(!s.correct());
        assert!((s.ok_share() - 0.2).abs() < 1e-12);
        assert!((s.throughput_ops_s - 1.0).abs() < 1e-9);
    }
}
