//! Exact order statistics over raw samples, and the host's interference
//! with them.
//!
//! Percentiles here are nearest-rank order statistics of the recorded
//! samples themselves — never histogram bucket edges — so a p50 is always a
//! latency some operation actually had.

use std::time::Instant;

/// Nearest-rank percentile of `samples` (`q` in `0.0..=1.0`): the smallest
/// sample with at least `q` of all samples at or below it. `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// The median as the nearest-rank 50th percentile (always a real sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Wall time per slice of a timed phase: the unit the throughput and the
/// tail are taken over.
const SLICE_S: f64 = 0.5;
/// Largest share of the machine's CPU time the hypervisor may steal around
/// an op for the op to count as clean (one tick in a hundred).
pub const STEAL_CLEAN: f64 = 0.01;
/// How far past each end of an op its steal is read. The kernel counts
/// steal in 10-ms ticks and books it at a later guest tick, so steal that
/// hit an op can surface just after it.
pub const STEAL_PAD_S: f64 = 0.01;
/// Share of ops kept at least: when fewer are clean, the least-stolen
/// quarter stands in for them.
const MIN_KEPT_SHARE: f64 = 0.25;
/// Fewest ops a slice must hold for its own 99th percentile to count
/// towards the phase's tail.
pub const MIN_TAIL_OPS: usize = 10;

/// A point of a timed phase: seconds since its start and the machine's
/// cumulative `(steal, total)` CPU ticks there.
#[derive(Clone, Copy)]
pub struct Mark {
    at: f64,
    ticks: Option<(u64, u64)>,
}

/// Op latencies of a timed phase, each with the marks at its start and
/// end. On a shared virtual machine the hypervisor steals CPU, in bursts
/// when the host is calm and on every busy stretch when it is crowded;
/// whatever runs then stalls. The end-to-end timings keep the ops the host
/// did not steal around, so they describe the program rather than its
/// neighbours.
pub struct Slices {
    started: Instant,
    ops: Vec<(Mark, Mark, f64)>,
}

impl Slices {
    /// Starts the phase's clock now.
    pub fn start() -> Self {
        Self { started: Instant::now(), ops: Vec::new() }
    }

    fn mark(&self) -> Mark {
        Mark { at: self.started.elapsed().as_secs_f64(), ticks: cpu_ticks() }
    }

    /// Marks the start of an op; call it just before the op's clock starts.
    pub fn begin(&self) -> Mark {
        self.mark()
    }

    /// Records one completed op begun at `began`; call it just after the
    /// op's clock stops.
    pub fn record(&mut self, began: Mark, latency_us: f64) {
        let ended = self.mark();
        self.ops.push((began, ended, latency_us));
    }

    /// Share of CPU time stolen around each op: from the earliest mark at
    /// most [`STEAL_PAD_S`] before its start to the latest one at most that
    /// long after its end. Short ops take their neighbours in; an op longer
    /// than the pad is read on its own.
    fn steal_around(&self) -> Vec<f64> {
        let marks: Vec<Mark> = self.ops.iter().flat_map(|&(b, e, _)| [b, e]).collect();
        (0..self.ops.len())
            .map(|i| {
                let (mut from, mut to) = (2 * i, 2 * i + 1);
                let (earliest, latest) = (marks[from].at - STEAL_PAD_S, marks[to].at + STEAL_PAD_S);
                while from > 0 && marks[from - 1].at >= earliest {
                    from -= 1;
                }
                while to + 1 < marks.len() && marks[to + 1].at <= latest {
                    to += 1;
                }
                steal_share(marks[from].ticks, marks[to].ticks)
            })
            .collect()
    }

    /// Keeps the clean ops, or the least-stolen quarter when fewer are
    /// clean, and cuts them into slices by start time.
    pub fn finish(self) -> Timing {
        let total = self.ops.len();
        let steal = self.steal_around();
        let clean = steal.iter().filter(|&&s| s <= STEAL_CLEAN).count();
        let keep = clean.max((MIN_KEPT_SHARE * total as f64).ceil() as usize);
        let mut order: Vec<usize> = (0..total).collect();
        order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
        order.truncate(keep);
        order.sort_unstable();
        let mut slices: Vec<Vec<f64>> = Vec::new();
        let mut slice_of = None;
        for &i in &order {
            let (began, _, latency) = self.ops[i];
            let slice = (began.at / SLICE_S) as u64;
            if slice_of != Some(slice) {
                slices.push(Vec::new());
                slice_of = Some(slice);
            }
            slices.last_mut().expect("a slice is open").push(latency);
        }
        Timing {
            latencies_us: slices.iter().flatten().copied().collect(),
            rates: slices.iter().map(|l| l.len() as f64 / (l.iter().sum::<f64>() / 1e6)).collect(),
            slice_p99s_us: slices
                .iter()
                .filter(|l| l.len() >= MIN_TAIL_OPS)
                .filter_map(|l| percentile(l, 0.99))
                .collect(),
            ops_kept: order.len(),
            ops_total: total,
        }
    }
}

/// The end-to-end view of a timed phase: its kept ops.
#[derive(Debug, Default)]
pub struct Timing {
    /// Latencies of the kept ops, µs.
    pub latencies_us: Vec<f64>,
    /// Ops per second of op time, per slice of kept ops.
    pub rates: Vec<f64>,
    /// Nearest-rank 99th percentile of each slice holding at least
    /// [`MIN_TAIL_OPS`] kept ops, µs.
    pub slice_p99s_us: Vec<f64>,
    /// Ops kept.
    pub ops_kept: usize,
    /// Ops completed in the phase.
    pub ops_total: usize,
}

impl Timing {
    /// Throughput: the median over slices of kept ops completed per second
    /// of op time.
    pub fn throughput(&self) -> f64 {
        median(&self.rates).unwrap_or(0.0)
    }

    /// Tail latency: the median over slices of each slice's own
    /// nearest-rank 99th percentile. A slow spell of the host that covers a
    /// few slices moves a few of these and not their median, where it
    /// would own the phase-wide 99th percentile outright. Where no slice
    /// holds [`MIN_TAIL_OPS`] ops (a pipeline op outlasts a slice), the
    /// 99th percentile of all kept ops.
    pub fn tail_p99(&self) -> f64 {
        median(&self.slice_p99s_us).or_else(|| percentile(&self.latencies_us, 0.99)).unwrap_or(0.0)
    }
}

/// `part / whole`, or 0 when nothing was observed.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Iterations of the host-speed gauge loop (a few milliseconds).
const HOST_LOOP_ITERS: u32 = 2_000_000;

/// Median nanoseconds per iteration of a fixed single-threaded integer
/// loop: a gauge of how fast this machine was running when a result was
/// taken, so drift of the host can be told apart from drift of the code.
pub fn host_loop_ns() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..HOST_LOOP_ITERS {
                x = x.rotate_left(5) ^ x.wrapping_mul(0x0100_0000_01b3);
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64() * 1e9 / f64::from(HOST_LOOP_ITERS)
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Cumulative `(steal, total)` CPU ticks of the machine from `/proc/stat`:
/// time the hypervisor gave this machine's CPUs to someone else. `None`
/// where `/proc` is unavailable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) => ratio((s1 - s0) as f64, (t1 - t0) as f64),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_real_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.99), Some(99.0));
        assert_eq!(percentile(&samples, 1.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentiles_ignore_input_order() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&samples), Some(3.0));
        assert_eq!(percentile(&samples, 0.99), Some(5.0));
    }

    /// A phase from `(start s, duration s, latency µs, steal ticks during
    /// the op)`, on a machine that ticks 200 times a second (two CPUs).
    fn phase(ops: &[(f64, f64, f64, u64)]) -> Timing {
        let mut slices = Slices::start();
        let mut stolen = 0;
        let ticks = |at: f64, stolen: u64| Some((stolen, (at * 200.0) as u64));
        for &(at, duration, latency, steal) in ops {
            let began = Mark { at, ticks: ticks(at, stolen) };
            stolen += steal;
            let end = at + duration;
            slices.ops.push((began, Mark { at: end, ticks: ticks(end, stolen) }, latency));
        }
        slices.finish()
    }

    /// `n` back-to-back 4-ms ops from `at`, each of `latency` µs.
    fn run(at: f64, n: usize, latency: f64) -> Vec<(f64, f64, f64, u64)> {
        (0..n).map(|k| (at + k as f64 * 0.004, 0.004, latency, 0)).collect()
    }

    #[test]
    fn ops_stolen_around_are_dropped_while_enough_stay_clean() {
        let mut ops = run(0.0, 20, 1_000.0);
        // A stall of the host: the op it hit, and the ops within the pad
        // on either side, where its ticks may surface, are left out.
        ops[12] = (ops[12].0, 0.004, 5_000.0, 2);
        let timing = phase(&ops);
        assert_eq!((timing.ops_kept, timing.ops_total), (15, 20));
        assert_eq!(percentile(&timing.latencies_us, 0.99), Some(1_000.0));
        assert!((timing.throughput() - 1_000.0).abs() < 1e-9);
        // Ops longer than the pad are read on their own; when too few are
        // clean, the least-stolen quarter stands in.
        let steal = [40, 40, 3, 40, 40, 4, 40, 40];
        let crowded: Vec<_> =
            (0..8).map(|k| (k as f64, 1.0, 2_000.0 + k as f64, steal[k])).collect();
        let timing = phase(&crowded);
        assert_eq!((timing.ops_kept, timing.ops_total), (2, 8));
        assert_eq!(timing.latencies_us, [2_002.0, 2_005.0]);
    }

    #[test]
    fn the_tail_is_the_median_slice_p99_and_shrugs_off_a_slow_spell() {
        let mut tailed = run(0.5, 20, 1_000.0);
        tailed[19].2 = 1_500.0;
        let ops = [
            run(0.0, 20, 1_000.0),
            tailed.clone(),
            run(1.0, 20, 9_000.0),
            tailed.iter().map(|&(at, d, l, s)| (at + 1.0, d, l, s)).collect(),
            run(2.0, 20, 1_000.0),
        ]
        .concat();
        let timing = phase(&ops);
        // Slice p99s 1,000 / 1,500 / 9,000 / 1,500 / 1,000: the median is a
        // calm slice's tail, where the phase-wide p99 is the slow spell.
        assert_eq!(timing.slice_p99s_us.len(), 5);
        assert_eq!(timing.tail_p99(), 1_500.0);
        assert_eq!(percentile(&timing.latencies_us, 0.99), Some(9_000.0));
        // Ops longer than a slice: the p99 over all kept ops.
        let long = phase(&[(0.0, 5.0, 5.0e6, 0), (5.1, 6.0, 6.0e6, 0), (11.2, 5.5, 5.5e6, 0)]);
        assert!(long.slice_p99s_us.is_empty());
        assert_eq!(long.tail_p99(), 6.0e6);
    }

    #[test]
    fn a_mean_of_three_point_four_is_not_reported_as_five() {
        // A bucket-edge percentile on a 1-2-5 ladder would report 5 here.
        let samples = [3.3, 3.4, 3.5];
        assert_eq!(median(&samples), Some(3.4));
    }
}
