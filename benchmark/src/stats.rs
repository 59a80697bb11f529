//! Order statistics for the ladder: medians, nearest-rank percentiles,
//! the "ten samples beyond" rule that decides which tail percentile a
//! sample count can support, and the quiet-window selection that keeps
//! a noisy neighbour out of the end-to-end numbers.

/// Median of `values` (mean of the two middle elements for even counts).
/// `NaN` for an empty slice, so a missing sample shows instead of
/// reading as zero.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank lower quartile of `values` (`NaN` when empty): what a
/// repeated timing reads when at most three quarters of the repetitions
/// are disturbed.
pub fn lower_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), 25.0) - 1]
}

/// 1-based nearest-rank index of percentile `p` (in `0..=100`) in a
/// sample of `n >= 1`: the smallest rank with at least `p` % of the
/// samples at or below it. The epsilon keeps `0.9 * 100` style products
/// from rounding up past an exact rank.
fn nearest_rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` in a sample
/// of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// The rule every reported tail percentile must satisfy: at least ten
/// samples lie beyond it. p90 needs 100 samples, p99 needs 1000.
pub fn percentile_is_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Length of the windows a timed region is cut into, in seconds: long
/// enough to hold several operations of the largest shape, short enough
/// that a host busy most of the time still leaves some undisturbed.
pub const WINDOW_S: f64 = 0.25;

/// Where a window ended: operations completed, wall time and process
/// CPU time, all since the region began.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mark {
    pub ops: usize,
    pub wall_ns: u64,
    pub cpu_s: f64,
}

/// Cuts a timed region into windows of equal length, at operation
/// boundaries, while it runs.
#[derive(Debug, Default)]
pub struct Windows {
    window_ns: u64,
    next_ns: u64,
    pub marks: Vec<Mark>,
}

impl Windows {
    pub fn new(window_s: f64) -> Self {
        let window_ns = ((window_s * 1e9) as u64).max(1);
        Windows {
            window_ns,
            next_ns: window_ns,
            marks: Vec::new(),
        }
    }

    /// Call when an operation completes, `ops` being the count so far.
    /// `cpu_s` is only read when a window boundary has passed.
    pub fn after_op(&mut self, ops: usize, wall_ns: u64, cpu_s: impl FnOnce() -> f64) {
        if wall_ns >= self.next_ns {
            self.close(ops, wall_ns, cpu_s());
        }
    }

    /// Close the current window here (also how a region ends).
    pub fn close(&mut self, ops: usize, wall_ns: u64, cpu_s: f64) {
        self.marks.push(Mark {
            ops,
            wall_ns,
            cpu_s,
        });
        self.next_ns = wall_ns - wall_ns % self.window_ns + self.window_ns;
    }
}

/// A window counts as contended when its median operation takes this
/// much longer than the quiet windows' median.
pub const CONTENDED_ABOVE: f64 = 1.15;

/// The quiet windows are the fastest tenth of a region's windows ...
pub const QUIET_ONE_IN: usize = 10;
/// ... and then as many more, next fastest first, as it takes to hold
/// the hundred operations a p90 needs ([`percentile_is_supported`]).
pub const QUIET_MIN_OPS: usize = 100;

/// The operations of a region's quietest windows, pooled.
#[derive(Debug)]
pub struct Quiet {
    /// Their durations, ascending.
    pub lat_sorted: Vec<u64>,
    /// Wall and process CPU time the chosen windows span.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub windows_used: usize,
    /// Median operation time of every window, in time order: the
    /// region's noise at a glance.
    pub window_p50_ns: Vec<u64>,
    /// Share of all windows whose median operation was more than
    /// [`CONTENDED_ABOVE`] times the quiet median: how much of the
    /// region something outside the program slowed.
    pub contended_share: f64,
}

/// Keep the windows that completed operations fastest: a tenth of them,
/// or as many as hold [`QUIET_MIN_OPS`] operations if that is more.
///
/// Interference from outside the process — on the reference host a
/// neighbour on the same physical core slows a thread by 1.3x to 2x in
/// bursts of a fraction of a second to a few seconds, without showing
/// as steal, and at busy times for most of a run — only ever slows a
/// window, and a pooled operation is slowed when either of its threads
/// is. The fastest windows therefore measure the program's own speed,
/// and stay put as long as a tenth of the run is undisturbed, where a
/// statistic over the whole region (a median included) flips between
/// the two modes from run to run. Windows are ranked by their rate, not
/// their median, so one slow operation among fast ones counts against
/// its window and the pooled p90 is not handed a disturbed tail.
pub fn quiet_windows(lat_ns: &[u64], marks: &[Mark]) -> Quiet {
    struct Window {
        ops: std::ops::Range<usize>,
        wall_ns: u64,
        cpu_s: f64,
        p50: u64,
    }
    let mut windows = Vec::with_capacity(marks.len());
    let mut prev = Mark {
        ops: 0,
        wall_ns: 0,
        cpu_s: 0.0,
    };
    for m in marks {
        if m.ops > prev.ops {
            let mut lat = lat_ns[prev.ops..m.ops].to_vec();
            lat.sort_unstable();
            windows.push(Window {
                ops: prev.ops..m.ops,
                wall_ns: m.wall_ns - prev.wall_ns,
                cpu_s: m.cpu_s - prev.cpu_s,
                p50: percentile_sorted(&lat, 50.0),
            });
        }
        prev = *m;
    }
    let window_p50_ns = windows.iter().map(|w| w.p50).collect();
    // fastest first: least wall time per operation
    windows.sort_by(|a, b| {
        let per_op = |w: &Window| w.wall_ns as f64 / w.ops.len() as f64;
        per_op(a).total_cmp(&per_op(b))
    });
    let mut used = windows.len().div_ceil(QUIET_ONE_IN);
    let mut held: usize = windows[..used].iter().map(|w| w.ops.len()).sum();
    while held < QUIET_MIN_OPS && used < windows.len() {
        held += windows[used].ops.len();
        used += 1;
    }
    let mut lat_sorted: Vec<u64> = windows[..used]
        .iter()
        .flat_map(|w| lat_ns[w.ops.clone()].iter().copied())
        .collect();
    lat_sorted.sort_unstable();
    let contended = if lat_sorted.is_empty() {
        0
    } else {
        let limit = percentile_sorted(&lat_sorted, 50.0) as f64 * CONTENDED_ABOVE;
        windows.iter().filter(|w| w.p50 as f64 > limit).count()
    };
    Quiet {
        lat_sorted,
        wall_s: windows[..used].iter().map(|w| w.wall_ns).sum::<u64>() as f64 * 1e-9,
        cpu_s: windows[..used].iter().map(|w| w.cpu_s).sum(),
        windows_used: used,
        window_p50_ns,
        contended_share: contended as f64 / windows.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn lower_quartile_is_nearest_rank() {
        assert_eq!(
            lower_quartile(&[9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]),
            3.0
        );
        assert_eq!(lower_quartile(&[2.0]), 2.0);
        assert!(lower_quartile(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 90.0), 90);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[7], 90.0), 7);
    }

    /// The percentile rule: p90 is reportable from 100 samples on (ten
    /// beyond), not from 99; p99 needs 1000.
    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(percentile_is_supported(100, 90.0));
        assert!(!percentile_is_supported(99, 90.0));
        assert!(!percentile_is_supported(28, 90.0));
        assert!(percentile_is_supported(1000, 99.0));
        assert!(!percentile_is_supported(999, 99.0));
        assert!(percentile_is_supported(20, 50.0));
        assert!(!percentile_is_supported(0, 50.0));
    }

    /// Seven operations in ten run 1.45x slow, in bursts: the quiet
    /// windows report the undisturbed speed and the contended share
    /// says what happened.
    #[test]
    fn quiet_windows_ignore_contended_ones() {
        let mut w = Windows::new(0.005); // five undisturbed operations of 1 ms
        let (mut lat, mut t) = (Vec::new(), 0u64);
        for i in 0..1200 {
            let d = if i % 100 < 70 { 1_450_000 } else { 1_000_000 };
            t += d;
            lat.push(d);
            w.after_op(i + 1, t, || t as f64 * 1e-9);
        }
        w.close(1200, t, t as f64 * 1e-9);
        let q = quiet_windows(&lat, &w.marks);
        let windows = q.window_p50_ns.len();
        assert!(windows >= 300, "{windows}");
        assert_eq!(q.windows_used, windows.div_ceil(QUIET_ONE_IN));
        assert!(q.lat_sorted.len() >= QUIET_MIN_OPS);
        assert!(q.lat_sorted.iter().all(|&d| d == 1_000_000));
        let ops = q.lat_sorted.len() as f64;
        assert!((ops / q.wall_s - 1000.0).abs() < 1e-6);
        assert!((q.cpu_s - q.wall_s).abs() < 1e-9);
        assert!(
            q.contended_share > 0.6 && q.contended_share < 0.8,
            "{}",
            q.contended_share
        );
    }

    /// A tenth of the windows that holds too few operations for a p90
    /// grows until it holds a hundred; a region that short of them
    /// altogether uses every window.
    #[test]
    fn quiet_windows_hold_a_hundred_operations() {
        let region = |ops: usize| {
            let mut w = Windows::new(0.01); // ten operations of 1 ms
            let lat = vec![1_000_000u64; ops];
            for i in 0..ops {
                let t = (i as u64 + 1) * 1_000_000;
                w.after_op(i + 1, t, || 0.0);
            }
            quiet_windows(&lat, &w.marks)
        };
        let q = region(300);
        assert_eq!((q.window_p50_ns.len(), q.windows_used), (30, 10));
        assert_eq!(q.lat_sorted.len(), QUIET_MIN_OPS);
        assert!(percentile_is_supported(q.lat_sorted.len(), 90.0));
        let q = region(60);
        assert_eq!((q.window_p50_ns.len(), q.windows_used), (6, 6));
    }

    #[test]
    fn a_single_operation_is_one_window() {
        let mut w = Windows::new(1.0);
        w.close(1, 2_000_000_000, 1.5);
        let q = quiet_windows(&[2_000_000_000], &w.marks);
        assert_eq!(
            (q.window_p50_ns.len(), q.windows_used, q.lat_sorted.len()),
            (1, 1, 1)
        );
        assert_eq!(q.contended_share, 0.0);
        let empty = quiet_windows(&[], &[]);
        assert_eq!((empty.window_p50_ns.len(), empty.lat_sorted.len()), (0, 0));
    }
}
