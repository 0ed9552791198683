//! Process counters from `/proc` and the small statistics the report needs.

use std::time::Instant;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is 100 on every
/// architecture Linux supports.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process, including threads that have exited
/// (fields 14 and 15 of `/proc/self/stat`). 0 where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; the fields after it are numeric.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // `rest` starts at field 3, so field 14 is index 11.
    (ticks(11) + ticks(12)) as f64 / CLOCK_TICKS_PER_S
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// glibc's `M_TRIM_THRESHOLD`, `M_MMAP_THRESHOLD` and `M_ARENA_MAX` parameters of
/// `mallopt`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_TRIM_THRESHOLD: i32 = -1;
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_MMAP_THRESHOLD: i32 = -3;
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_ARENA_MAX: i32 = -8;

/// glibc's default mmap and trim threshold, 128 KiB.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const FIXED_THRESHOLD: i32 = 128 * 1024;

/// Makes the allocator's resident set follow the program's allocations rather than
/// thread timing. Every thread allocates from one glibc arena: with an arena per worker
/// thread, which arena a round's workers drew from depended on thread timing, and the
/// peak resident set of the same pass of the same seed moved by 4% from run to run. The
/// mmap and trim thresholds are fixed at glibc's 128 KiB default: left dynamic, glibc
/// raises them whenever a large block is freed, so whether a later large block (a
/// snapshot string, a Gram matrix) sat in the heap or in its own mapping depended on
/// which thread freed what first, and the same pass still moved by 2%. Fixed, a large
/// block is mapped on allocation and unmapped on free, and the same pass moves by less
/// than 1%. Call before any thread starts. A no-op on other C libraries.
pub fn steady_allocator() {
    // SAFETY: `mallopt` only sets allocator parameters; it is called before the process
    // starts a thread.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, FIXED_THRESHOLD);
        mallopt(M_TRIM_THRESHOLD, FIXED_THRESHOLD);
    }
}

/// Starts a new peak-resident-set window: hands the allocator's free pages back to the
/// system, then resets `VmHWM` to the current resident set (`5` to
/// `/proc/self/clear_refs`), so that a later [`peak_rss_mib`] reads the peak since this
/// call and not one that memory left over from earlier work set. Where `/proc` refuses
/// the reset, the peak stays the process's.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` only returns free heap pages to the system.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM` in `/proc/self/status`) in MiB, since the process
/// started or the last [`reset_peak_rss`]; 0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Bytes the reference kernel walks, one load per 64-byte cache line: more than a
/// core's private caches hold, so the walk slows down when other machines on the host
/// contend for the shared cache and memory.
const REFERENCE_BYTES: usize = 4 << 20;

/// Steps of the reference kernel's dependent integer chain, which slows down with the
/// core's clock.
const REFERENCE_STEPS: usize = 150_000;

/// Milliseconds [`ReferenceKernel::time_ms`] takes on the reference machine (2-vCPU
/// Intel Xeon VM) in a quiet period. Only the unit of the scaled timings depends on it.
pub const REFERENCE_MS: f64 = 0.45;

/// A fixed computation owned by the benchmark, so that no change to the fleet's crates
/// can change its cost: its time measures how fast the host runs at that moment. On a
/// host shared with other machines the fleet's speed moves by 20% or more between busy
/// and quiet periods, mostly with contention for the shared cache and memory and partly
/// with the clock; the kernel walks a buffer larger than the private caches, then runs
/// a dependent integer chain, to feel both. Of the kernels tried on the reference
/// machine (dense GP-shaped floating point on one or two threads, the walk alone, the
/// chain alone, transcendental throughput, a fresh 2 MiB allocation), this one tracked
/// the fleet best: repeating one pass of a fixed seed for minutes, it cut the spread of
/// the pass's tick time from about 10% to about 4% (see `README.md`).
pub struct ReferenceKernel {
    buffer: Vec<f64>,
}

impl ReferenceKernel {
    pub fn new() -> Self {
        ReferenceKernel {
            buffer: (0..REFERENCE_BYTES / 8).map(|i| i as f64).collect(),
        }
    }

    /// Runs the kernel once and returns its wall milliseconds.
    pub fn time_ms(&self) -> f64 {
        let start = Instant::now();
        let buffer = std::hint::black_box(&self.buffer);
        let walk: f64 = buffer.iter().step_by(8).sum();
        let mut z = walk.to_bits();
        for _ in 0..REFERENCE_STEPS {
            z = z
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407)
                ^ (z >> 17);
        }
        std::hint::black_box(z);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// `values[i]` divided by the host slowdown around it: the median of `kernel_ms` over
/// the `±radius` neighbouring samples, over [`REFERENCE_MS`]. Both slices have one entry
/// per sample, taken one right after the other. The median, because a kernel run is
/// short: one preemption that barely moves a tick can double it.
pub fn scale_by_host(values: &[f64], kernel_ms: &[f64], radius: usize) -> Vec<f64> {
    let n = kernel_ms.len();
    values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let window = &kernel_ms[i.saturating_sub(radius)..(i + radius + 1).min(n)];
            v * REFERENCE_MS / median(window)
        })
        .collect()
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The `q`-quantile (`0..=1`) by linear interpolation between order statistics;
/// 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn process_counters_read_from_proc() {
        assert!(peak_rss_mib() > 0.0);
        let mut x = 0u64;
        let (start, cpu) = (Instant::now(), cpu_seconds());
        while start.elapsed().as_secs_f64() < 0.05 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > cpu, "a busy loop must accrue CPU time");
    }

    #[test]
    fn host_scaling_divides_by_the_local_kernel_slowdown() {
        let kernel = [
            REFERENCE_MS,
            REFERENCE_MS,
            2.0 * REFERENCE_MS,
            2.0 * REFERENCE_MS,
        ];
        assert_eq!(
            scale_by_host(&[10.0; 4], &kernel, 0),
            vec![10.0, 10.0, 5.0, 5.0]
        );
        assert_eq!(
            scale_by_host(&[12.0; 4], &kernel, 1),
            vec![12.0, 12.0, 6.0, 6.0]
        );
        let preempted = [REFERENCE_MS, 10.0 * REFERENCE_MS, REFERENCE_MS];
        assert_eq!(scale_by_host(&[7.0; 3], &preempted, 1)[1], 7.0);
        assert!(ReferenceKernel::new().time_ms() > 0.0);
    }
}
