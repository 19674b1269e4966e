//! The benchmark's reporting rules: how a set of timings becomes a
//! median and a tail, and how an open-loop request is timed.

use std::time::Duration;

/// Samples a reported tail percentile must leave above it.
pub const TAIL_MARGIN: usize = 10;

/// A distribution reported as its median plus the highest percentile
/// that still has at least [`TAIL_MARGIN`] samples beyond it, and its
/// lower quartile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Lower quartile: the smallest sample with at least a quarter of
    /// the samples at or below it (nearest rank).
    pub p25: f64,
    /// Median (mean of the middle pair for an even count).
    pub median: f64,
    /// `(percentile, value)` of the tail, or `None` when there are too
    /// few samples for any percentile to have [`TAIL_MARGIN`] beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples` (any order). Returns `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        // The value with exactly TAIL_MARGIN samples above it sits at
        // rank n - TAIL_MARGIN (1-based): the percentile 100 (n - m) / n.
        let tail = (n > TAIL_MARGIN).then(|| {
            let pct = 100.0 * (n - TAIL_MARGIN) as f64 / n as f64;
            (pct, sorted[n - TAIL_MARGIN - 1])
        });
        let p25 = sorted[n.div_ceil(4) - 1];
        Some(Summary {
            n,
            p25,
            median,
            tail,
        })
    }

    /// The tail value, falling back to the median when the sample is
    /// too small to have a tail.
    pub fn tail_value(&self) -> f64 {
        self.tail.map_or(self.median, |(_, v)| v)
    }

    /// A short description of the sample: its count, median and tail.
    pub fn describe(&self) -> String {
        match self.tail {
            Some((pct, v)) => format!("n={}, p50={:.3}, p{pct:.1}={v:.3}", self.n, self.median),
            None => format!("n={}, p50={:.3}", self.n, self.median),
        }
    }
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its response arrived, all as offsets from the
/// start of its load step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shot {
    /// Scheduled send time.
    pub due: Duration,
    /// Actual send time (never before `due`).
    pub sent: Duration,
    /// Response arrival time.
    pub done: Duration,
}

impl Shot {
    /// Latency charged to the request: from when it was *due*, so a
    /// stall that delays sending charges every request queued behind it.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Time from send to response: what the server and the network
    /// took, without the generator's lateness.
    pub fn service(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }
}

/// Send times of `n` requests at a fixed `rate` per second.
pub fn schedule(rate: f64, n: usize) -> Vec<Duration> {
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// Growth in mean generator lateness allowed between the first and the
/// last quarter of a load step before its backlog counts as growing.
pub const BACKLOG_SLACK: Duration = Duration::from_millis(1);

/// Whether the generator fell further and further behind over a load
/// step (`shots` in due order): the mean lateness of the last quarter
/// exceeds that of the first quarter by more than [`BACKLOG_SLACK`].
pub fn backlog_grows(shots: &[Shot]) -> bool {
    let q = shots.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |part: &[Shot]| {
        part.iter().map(|s| s.lateness().as_secs_f64()).sum::<f64>() / part.len() as f64
    };
    mean(&shots[shots.len() - q..]) - mean(&shots[..q]) > BACKLOG_SLACK.as_secs_f64()
}

/// CPU time this process has run so far, every thread it has had,
/// user plus system: `utime + stime` of `/proc/self/stat`, in clock
/// ticks of 1/100 s. The kernel charges a thread only for the time it
/// actually ran, so time the hypervisor stole from the VM, or that the
/// thread spent waiting for a CPU, is not in it.
pub fn process_cpu() -> Result<Duration, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // The command name may hold spaces; the fields after it do not.
    // utime and stime are fields 14 and 15, the 12th and 13th after it.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let field = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok());
    match (field(11), field(12)) {
        (Some(utime), Some(stime)) => Ok(Duration::from_millis((utime + stime) * 10)),
        _ => Err("no utime/stime in /proc/self/stat".to_string()),
    }
}

/// CPU time the hypervisor has taken from this VM so far: the `steal`
/// column of `/proc/stat`, in clock ticks of 1/100 s (0 where it is not
/// reported).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.to_string();
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Measures the share of this VM's CPU capacity the hypervisor stole
/// over an interval.
pub struct StealMeter {
    start: std::time::Instant,
    ticks: u64,
}

impl StealMeter {
    /// Starts an interval.
    pub fn start() -> StealMeter {
        StealMeter {
            start: std::time::Instant::now(),
            ticks: steal_ticks(),
        }
    }

    /// Stolen share of all CPUs' time since [`StealMeter::start`].
    pub fn share(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let capacity_ticks = self.start.elapsed().as_secs_f64() * cpus as f64 * 100.0;
        (steal_ticks() - self.ticks) as f64 / capacity_ticks.max(1.0)
    }
}

/// Steal share above which a round counts as disturbed.
pub const STEAL_LIMIT: f64 = 0.05;

/// The rounds a run reports, in round order, given the steal share
/// during each: every round at or under [`STEAL_LIMIT`] when that is at
/// least half of them, else the half (rounded up) with the least steal.
/// On a shared VM slow spells are spells of steal; rounds are chosen by
/// steal, never by their measured values, so the spells stay out of the
/// medians without favouring the program.
pub fn quiet_rounds(steal: &[f64]) -> Vec<usize> {
    let calm: Vec<usize> = (0..steal.len())
        .filter(|&i| steal[i] <= STEAL_LIMIT)
        .collect();
    if 2 * calm.len() >= steal.len() {
        return calm;
    }
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    order.truncate(steal.len().div_ceil(2));
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).unwrap().median, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap().median, 2.5);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn lower_quartile_is_the_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(Summary::of(&samples).unwrap().p25, 25.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap().p25, 2.0);
        assert_eq!(Summary::of(&[7.0]).unwrap().p25, 7.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        let (pct, value) = s.tail.unwrap();
        assert!((pct - 99.0).abs() < 1e-9);
        assert_eq!(value, 990.0);
        assert_eq!(samples.iter().filter(|&&v| v > value).count(), TAIL_MARGIN);

        // 240 samples cannot support p99; the rule falls back to p95.8.
        let samples: Vec<f64> = (1..=240).rev().map(f64::from).collect();
        let (pct, value) = Summary::of(&samples).unwrap().tail.unwrap();
        assert!((pct - 100.0 * 230.0 / 240.0).abs() < 1e-9);
        assert_eq!(value, 230.0);
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        let s = Summary::of(&[5.0; 10]).unwrap();
        assert!(s.tail.is_none());
        assert_eq!(s.tail_value(), 5.0);
        assert!(Summary::of(&[5.0; 11]).unwrap().tail.is_some());
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        // The generator stalled: the request was due at 10 ms but went
        // out at 40 ms and came back at 41 ms.
        let shot = Shot {
            due: ms(10),
            sent: ms(40),
            done: ms(41),
        };
        assert_eq!(shot.latency(), ms(31));
        assert_eq!(shot.lateness(), ms(30));
        assert_eq!(shot.service(), ms(1));
    }

    #[test]
    fn a_stall_charges_the_requests_behind_it() {
        // One connection, one request every 10 ms, 1 ms of service; the
        // first response takes 35 ms. Sending back to back after the
        // stall, the next three requests are late and their latency
        // from the due time includes that wait.
        let due = schedule(100.0, 6);
        let mut free = Duration::ZERO;
        let mut shots = Vec::new();
        for (i, &d) in due.iter().enumerate() {
            let sent = d.max(free);
            let done = sent + if i == 0 { ms(35) } else { ms(1) };
            free = done;
            shots.push(Shot { due: d, sent, done });
        }
        let latencies: Vec<u64> = shots
            .iter()
            .map(|s| s.latency().as_millis() as u64)
            .collect();
        assert_eq!(latencies, vec![35, 26, 17, 8, 1, 1]);
        let lateness: Vec<u64> = shots
            .iter()
            .map(|s| s.lateness().as_millis() as u64)
            .collect();
        assert_eq!(lateness, vec![0, 25, 16, 7, 0, 0]);
    }

    #[test]
    fn quiet_rounds_drop_disturbed_rounds() {
        // Calm rounds are all kept while they are at least half.
        assert_eq!(quiet_rounds(&[0.01, 0.2, 0.0, 0.03]), vec![0, 2, 3]);
        assert_eq!(quiet_rounds(&[0.0, 0.0]), vec![0, 1]);
        // Otherwise the less disturbed half, in round order.
        assert_eq!(quiet_rounds(&[0.3, 0.1, 0.5, 0.08, 0.2]), vec![1, 3, 4]);
        assert!(quiet_rounds(&[]).is_empty());
    }

    #[test]
    fn process_cpu_advances_while_running() {
        // Other tests run in this process too; they can only add to it.
        let before = process_cpu().unwrap();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < ms(300) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let busy = process_cpu().unwrap() - before;
        assert!(busy >= ms(100), "a 300 ms busy loop used {busy:?} of CPU");
    }

    #[test]
    fn backlog_detection() {
        let steady: Vec<Shot> = schedule(100.0, 40)
            .into_iter()
            .map(|due| Shot {
                due,
                sent: due + ms(2),
                done: due + ms(3),
            })
            .collect();
        assert!(!backlog_grows(&steady));
        let growing: Vec<Shot> = schedule(100.0, 40)
            .into_iter()
            .enumerate()
            .map(|(i, due)| Shot {
                due,
                sent: due + ms(i as u64),
                done: due + ms(i as u64 + 1),
            })
            .collect();
        assert!(backlog_grows(&growing));
    }
}
