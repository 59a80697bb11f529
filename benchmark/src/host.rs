//! What the ladder knows about the machine and the process it runs in:
//! the host fingerprint stamped on every output, the noise counters, the
//! process clocks, and the FMA peak probe every rung is compared with.

use crate::json::{self, Value};
use std::time::Instant;

/// Schema name stamped on every record the ladder writes.
pub const SCHEMA: &str = "dgemm-ladder-v1";

/// Library tuning variables the ladder refuses to run under: every
/// `DGEMM_*` name set in the environment (the library reads ~25 of
/// them; a stray one silently changes what is measured).
pub fn dgemm_env_vars() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DGEMM_"))
        .collect();
    names.sort();
    names
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Revision of the checkout the binary runs in, read from `.git`
/// without spawning a process; `unknown` outside a git repository.
fn git_revision() -> String {
    let Some(head) = read_trimmed(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head; // detached HEAD holds the hash itself
    };
    if let Some(hash) = read_trimmed(&format!(".git/{reference}")) {
        return hash;
    }
    read_trimmed(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One cache of cpu0 as sysfs describes it.
pub struct CacheInfo {
    pub level: u32,
    pub kind: String,
    pub size_kib: u64,
}

pub fn caches() -> Vec<CacheInfo> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .filter_map(|i| {
            let size = read_trimmed(&format!("{base}/index{i}/size"))?;
            let size_kib = size
                .strip_suffix('K')
                .and_then(|s| s.parse().ok())
                .or_else(|| {
                    size.strip_suffix('M')
                        .and_then(|s| s.parse::<u64>().ok())
                        .map(|m| m * 1024)
                })?;
            Some(CacheInfo {
                level: read_trimmed(&format!("{base}/index{i}/level"))?
                    .parse()
                    .ok()?,
                kind: read_trimmed(&format!("{base}/index{i}/type"))?,
                size_kib,
            })
        })
        .collect()
}

/// Size of the last-level cache in MiB (0 when sysfs does not say).
pub fn llc_mib() -> f64 {
    caches()
        .iter()
        .max_by_key(|c| c.level)
        .map_or(0.0, |c| c.size_kib as f64 / 1024.0)
}

/// The stamp every output carries, so two records can be told apart
/// before their numbers are compared.
pub fn fingerprint() -> Value {
    json::obj([
        ("schema", json::str(SCHEMA)),
        ("git_revision", json::str(git_revision())),
        (
            "dgemm_core_features",
            json::str(format!(
                "default(telemetry={},trace={})",
                dgemm_core::telemetry::enabled(),
                dgemm_core::trace::enabled()
            )),
        ),
        ("rustc", json::str(env!("LADDER_RUSTC_VERSION"))),
        ("cpu_model", json::str(cpu_model())),
        ("nproc", json::count(nproc() as u64)),
        (
            "caches",
            Value::Arr(
                caches()
                    .iter()
                    .map(|c| {
                        json::obj([
                            ("level", json::count(u64::from(c.level))),
                            ("type", json::str(c.kind.clone())),
                            ("size_kib", json::count(c.size_kib)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system, all threads) this process has consumed.
/// Nanosecond resolution, unlike the 10 ms ticks of `/proc/self/stat`,
/// so a one-second region resolves spinning in pool barriers.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (std links it on
    // Linux), `ts` is a valid, writable `struct timespec` — two 64-bit
    // fields on every 64-bit Linux target — and the call writes nothing
    // else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn status_field_kib(field: &str) -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field_kib("VmHWM:").map_or(f64::NAN, |kib| kib as f64 / 1024.0)
}

/// `(steal, total)` jiffies of the whole machine since boot.
fn machine_jiffies() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default();
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// Live threads of this process.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, Iterator::count)
}

/// Wait (at most 200 ms) until no more than `at_most` threads are alive.
/// A dropped pool shard's workers wind down on their own time; unless
/// they are gone before the next shard starts, how many stacks and
/// malloc arenas are alive at once — and with them `peak_rss_mib` — is
/// left to a race (32 MiB instead of 25.6 in one `square_pool` run of
/// seven).
pub fn wait_for_threads(at_most: usize) {
    let deadline = Instant::now() + std::time::Duration::from_millis(200);
    while thread_count() > at_most && Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// Involuntary context switches summed over the live threads of this
/// process. Threads that already exited are not counted.
fn involuntary_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| {
            s.lines()
                .find(|l| l.starts_with("nonvoluntary_ctxt_switches:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse::<u64>().ok())
        })
        .sum()
}

/// A run is marked noisy above any of these. Runs on the 2-vCPU
/// reference host show no steal and a few tens of involuntary switches
/// per CPU-second; what slows them is a neighbour outside the guest,
/// which shows only as contended windows and a slower clock.
pub const NOISY_STEAL_SHARE: f64 = 0.01;
pub const NOISY_SWITCHES_PER_CPU_S: f64 = 100.0;
pub const NOISY_CONTENDED_SHARE: f64 = 0.5;

/// Nanoseconds per step of a dependent multiply-then-add chain: an
/// index of the core's effective clock (a step is a fixed number of
/// cycles, whatever else the core is doing). On the reference host it
/// drifts by +-5 % over tens of seconds and every timing drifts with
/// it, invisibly to the guest; two runs that disagree can be told
/// apart by it. Best of three short runs, so preemption does not count.
pub fn clock_ns_per_step() -> f64 {
    const STEPS: u32 = 1_000_000;
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut a = std::hint::black_box(1.0f64);
            for _ in 0..STEPS {
                a = a * 0.999_999_9 + 1e-9;
            }
            std::hint::black_box(a);
            t0.elapsed().as_nanos() as f64 / f64::from(STEPS)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Noise counters over an interval. Never gating: they explain an
/// unresolved comparison, they do not fail a run.
pub struct NoiseProbe {
    jiffies: (u64, u64),
    switches: u64,
    cpu_s: f64,
    clock_ns_per_step: f64,
}

pub struct Noise {
    pub steal_share: f64,
    pub involuntary_switches: u64,
    /// Mean of the clock index at the start and the end of the run.
    pub clock_ns_per_step: f64,
    /// Share of the timed region's windows that ran contended
    /// (`stats::quiet_windows`); 0 for a run without a timed region.
    pub contended_share: f64,
    pub noisy: bool,
}

impl NoiseProbe {
    pub fn start() -> Self {
        NoiseProbe {
            jiffies: machine_jiffies(),
            switches: involuntary_switches(),
            cpu_s: process_cpu_s(),
            clock_ns_per_step: clock_ns_per_step(),
        }
    }

    pub fn finish(&self, contended_share: f64) -> Noise {
        let (steal, total) = machine_jiffies();
        let d_total = total.saturating_sub(self.jiffies.1);
        let steal_share = if d_total == 0 {
            0.0
        } else {
            steal.saturating_sub(self.jiffies.0) as f64 / d_total as f64
        };
        let switches = involuntary_switches().saturating_sub(self.switches);
        let cpu_s = (process_cpu_s() - self.cpu_s).max(1e-9);
        Noise {
            steal_share,
            involuntary_switches: switches,
            clock_ns_per_step: 0.5 * (self.clock_ns_per_step + clock_ns_per_step()),
            contended_share,
            noisy: steal_share > NOISY_STEAL_SHARE
                || switches as f64 / cpu_s > NOISY_SWITCHES_PER_CPU_S
                || contended_share > NOISY_CONTENDED_SHARE,
        }
    }
}

impl Noise {
    pub fn to_json(&self) -> Value {
        json::obj([
            ("steal_share", json::num(self.steal_share)),
            (
                "involuntary_switches",
                json::count(self.involuntary_switches),
            ),
            ("clock_ns_per_step", json::num(self.clock_ns_per_step)),
            ("contended_share", json::num(self.contended_share)),
            ("noisy", Value::Bool(self.noisy)),
            ("noisy_above_steal_share", json::num(NOISY_STEAL_SHARE)),
            (
                "noisy_above_switches_per_cpu_s",
                json::num(NOISY_SWITCHES_PER_CPU_S),
            ),
            (
                "noisy_above_contended_share",
                json::num(NOISY_CONTENDED_SHARE),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Peak probe: the widest FMA micro-loop the CPU reports at run time,
// one thread, register-resident — rung 0 of the ladder.
// ---------------------------------------------------------------------

/// Independent accumulator chains. FMA latency 4 x 2 issue ports needs
/// eight in flight; twelve leaves slack and still fits 16 registers.
const CHAINS: usize = 12;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma_avx512(iters: u64) -> f64 {
    use std::arch::x86_64::{_mm512_fmadd_pd, _mm512_reduce_add_pd, _mm512_set1_pd};
    let x = _mm512_set1_pd(0.999_999_9);
    let y = _mm512_set1_pd(1e-9);
    let mut acc = [_mm512_set1_pd(1.0); CHAINS];
    for _ in 0..iters {
        for a in &mut acc {
            *a = _mm512_fmadd_pd(*a, x, y);
        }
    }
    acc.iter().map(|a| _mm512_reduce_add_pd(*a)).sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_avx2(iters: u64) -> f64 {
    use std::arch::x86_64::{_mm256_fmadd_pd, _mm256_set1_pd, _mm256_storeu_pd};
    let x = _mm256_set1_pd(0.999_999_9);
    let y = _mm256_set1_pd(1e-9);
    let mut acc = [_mm256_set1_pd(1.0); CHAINS];
    for _ in 0..iters {
        for a in &mut acc {
            *a = _mm256_fmadd_pd(*a, x, y);
        }
    }
    let mut sum = 0.0;
    for a in acc {
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` is four writable f64s, the unaligned store's
        // exact footprint.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), a) };
        sum += lanes.iter().sum::<f64>();
    }
    sum
}

#[cfg(target_arch = "aarch64")]
fn fma_neon(iters: u64) -> f64 {
    use std::arch::aarch64::{vaddvq_f64, vdupq_n_f64, vfmaq_f64};
    // SAFETY: NEON is a mandatory part of the aarch64 baseline, so the
    // intrinsics' only requirement (the `neon` feature) always holds.
    unsafe {
        let x = vdupq_n_f64(0.999_999_9);
        let y = vdupq_n_f64(1e-9);
        let mut acc = [vdupq_n_f64(1.0); CHAINS];
        for _ in 0..iters {
            for a in &mut acc {
                *a = vfmaq_f64(y, *a, x);
            }
        }
        acc.iter().map(|a| vaddvq_f64(*a)).sum()
    }
}

/// Portable fallback: separate multiply and add on scalar chains (a
/// software `mul_add` would measure the libm routine, not the CPU).
fn fma_scalar(iters: u64) -> f64 {
    let mut acc = [1.0f64; CHAINS];
    for _ in 0..iters {
        for a in &mut acc {
            *a = *a * 0.999_999_9 + 1e-9;
        }
    }
    acc.iter().sum()
}

/// The selected micro-loop: its name, f64 lanes per instruction, and
/// the function running `iters` rounds of [`CHAINS`] instructions.
fn widest_fma() -> (&'static str, usize, fn(u64) -> f64) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f check on the line above is the
            // function's only requirement.
            return ("avx512f", 8, |n| unsafe { fma_avx512(n) });
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: avx2 and fma were both detected just above.
            return ("avx2+fma", 4, |n| unsafe { fma_avx2(n) });
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return ("neon", 2, fma_neon);
    }
    #[allow(unreachable_code)]
    ("scalar", 1, fma_scalar)
}

/// Result of the peak probe.
pub struct Peak {
    pub isa: &'static str,
    pub gflops: f64,
}

/// Best of `reps` timed runs of the widest FMA loop (a peak is a
/// maximum: interference only ever lowers a sample).
pub fn probe_peak(reps: usize) -> Peak {
    let (isa, lanes, run) = widest_fma();
    let iters: u64 = 4_000_000;
    let flops = (iters * CHAINS as u64 * lanes as u64 * 2) as f64;
    std::hint::black_box(run(std::hint::black_box(iters / 8))); // warm the clock
    let mut best = 0.0f64;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(run(std::hint::black_box(iters)));
        best = best.max(flops / t0.elapsed().as_secs_f64() / 1e9);
    }
    Peak { isa, gflops: best }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let c0 = process_cpu_s();
        std::hint::black_box(fma_scalar(std::hint::black_box(2_000_000)));
        assert!(process_cpu_s() > c0);
    }

    #[test]
    fn peak_probe_returns_a_positive_rate() {
        let p = probe_peak(1);
        assert!(p.gflops > 0.1, "{} {}", p.isa, p.gflops);
    }

    #[test]
    fn fingerprint_names_every_stamp_field() {
        let f = fingerprint();
        for key in [
            "schema",
            "git_revision",
            "dgemm_core_features",
            "rustc",
            "cpu_model",
            "nproc",
            "caches",
        ] {
            assert!(f.get(key).is_some(), "missing {key}");
        }
    }
}
