//! The benchmark-owned calibration kernels and the normalisation they drive.
//!
//! The host this benchmark runs on switches between speed regimes that are
//! about 1.5× apart and last from a fraction of a second to several
//! seconds; process CPU time swings with them, so neither wall time nor CPU
//! time of the program is comparable between runs. A fixed `ln_1p` loop
//! over a 512 KiB buffer, timed right before and right after each sample,
//! tracks the regime: dividing a sample by the mean of its two readings
//! gives a time at reference speed. [`DiskCalibrator`] does the same for
//! fsync-bound samples.
//!
//! The kernel lives here, in the benchmark, so no program change can alter
//! it. A reading is only taken while no program thread is runnable (the
//! callers pause every client and never calibrate during an in-flight
//! re-fit), and a reading whose wall time exceeds the kernel thread's own
//! CPU time by more than a few percent is retaken: that gap means the
//! kernel was descheduled, and a program that left threads busy would
//! otherwise slow the kernel and so flatter its own normalised numbers.
//!
//! Bulk samples (builds, fits, loads, refreshes) are each cut by the vCPU
//! time the hypervisor stole while it ran (`/proc/stat`), which the guarded
//! kernel never sees but a two-thread fit waits through. Fits and loads are
//! not divided by the CPU kernel: they are memory-bound, and their time
//! moves far less than the kernel's does. Builds are divided by a
//! page-fault kernel ([`fault_reading`]) and refreshes by the write
//! phase's CPU readings (README, *Calibration*, has the measurements).
//! Readings taken beside the bulk samples are kept per phase for the
//! audit.
//!
//! The thread CPU time comes from `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`.
//! `/proc/thread-self/schedstat` reports the same quantity, but only as of
//! the last scheduler tick (4 ms at HZ=250), which is longer than one
//! reading; the clock is exact to the nanosecond.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Kernel wall time, in seconds, that counts as reference speed (speed
/// factor 1.0). A reading of twice this means the host currently runs at
/// half the reference speed, and every sample taken beside it is halved.
pub const NOMINAL_S: f64 = 0.0012;

/// Accepted excess of wall time over the kernel thread's CPU time.
const MAX_DESCHEDULED: f64 = 0.03;
/// Retakes before the least-descheduled reading is accepted anyway.
const MAX_TRIES: usize = 8;
/// f64 slots in the 512 KiB kernel buffer.
const BUF_LEN: usize = 512 * 1024 / 8;
/// Passes over the buffer per kernel run.
const PASSES: usize = 2;
/// Kernel runs per reading; the reading is their median.
const RUNS_PER_READING: usize = 3;

/// What one phase of the run saw: its calibration readings, and the wall
/// time of its timed samples with the vCPU time stolen during them.
#[derive(Default)]
pub struct PhaseLog {
    /// Accepted readings, in seconds.
    pub readings: Vec<f64>,
    pub wall_s: f64,
    pub steal_s: f64,
}

/// Takes guarded readings, files them under the current phase, and keeps
/// them for the run's speed-factor audit.
pub struct Calibrator {
    buf: Vec<f64>,
    phase: &'static str,
    pub phases: BTreeMap<&'static str, PhaseLog>,
    /// Every accepted reading of the run, in seconds.
    pub readings: Vec<f64>,
    /// Kernel runs retaken because the kernel was descheduled.
    pub retakes: usize,
}

impl Calibrator {
    pub fn new() -> Self {
        let buf = (0..BUF_LEN).map(|i| (i % 1021) as f64 * 1e-3).collect();
        let c = Self {
            buf,
            phase: "setup",
            phases: BTreeMap::new(),
            readings: Vec::new(),
            retakes: 0,
        };
        // Warm the buffer into cache and the code into the icache.
        c.kernel();
        c
    }

    /// Files later readings and bulk samples under `phase`.
    pub fn enter(&mut self, phase: &'static str) {
        self.phase = phase;
    }

    fn kernel(&self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..PASSES {
            for &x in black_box(&self.buf) {
                acc += x.ln_1p();
            }
        }
        black_box(acc)
    }

    /// One guarded reading: the median of three kernel runs, each retaken
    /// while the kernel thread was descheduled. In seconds.
    pub fn reading(&mut self) -> f64 {
        let mut runs = [0.0; RUNS_PER_READING];
        for r in &mut runs {
            *r = self.guarded_run();
        }
        runs.sort_by(f64::total_cmp);
        let reading = runs[RUNS_PER_READING / 2];
        self.readings.push(reading);
        self.phases
            .entry(self.phase)
            .or_default()
            .readings
            .push(reading);
        reading
    }

    /// One kernel run's wall time, retaken while it exceeds the thread's
    /// CPU time by more than `MAX_DESCHEDULED`.
    fn guarded_run(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        let mut best_gap = f64::INFINITY;
        for _ in 0..MAX_TRIES {
            let cpu0 = thread_cpu_ns();
            let t = Instant::now();
            self.kernel();
            let wall = t.elapsed().as_secs_f64();
            let gap = match (cpu0, thread_cpu_ns()) {
                (Some(a), Some(b)) if b > a => wall / ((b - a) as f64 * 1e-9) - 1.0,
                // No thread CPU clock: accept the run as is.
                _ => 0.0,
            };
            if gap < best_gap {
                best_gap = gap;
                best = wall;
            }
            if gap <= MAX_DESCHEDULED {
                break;
            }
            self.retakes += 1;
        }
        best
    }

    /// Speed factor of a sample bracketed by two readings: >1 means the host
    /// ran slower than reference speed.
    pub fn factor(before: f64, after: f64) -> f64 {
        (before + after) / 2.0 / NOMINAL_S
    }

    /// Times a bulk sample `f` that keeps `threads` threads busy, with a
    /// reading on each side for the phase's audit; returns its result and
    /// the sample.
    pub fn timed<T>(&mut self, threads: usize, f: impl FnOnce() -> T) -> (T, Sample) {
        self.reading();
        let stolen = steal_s();
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed().as_secs_f64();
        let sample = self.sample(wall, threads, stolen, steal_s());
        self.reading();
        (out, sample)
    }

    /// A bulk sample of `wall` seconds on `threads` threads, between two
    /// [`steal_s`] readings, booked to the current phase.
    ///
    /// Threads that meet at barriers all wait while any one of them has
    /// lost its vCPU, so a sample that keeps every vCPU busy loses all the
    /// stolen time, and a single thread on one of `n` vCPUs about `1/n` of
    /// it.
    pub fn sample(
        &mut self,
        wall: f64,
        threads: usize,
        stolen_at_start: Option<f64>,
        stolen_at_end: Option<f64>,
    ) -> Sample {
        let stolen = match (stolen_at_start, stolen_at_end) {
            (Some(a), Some(b)) => (b - a).max(0.0),
            _ => 0.0,
        };
        let log = self.phases.entry(self.phase).or_default();
        log.wall_s += wall;
        log.steal_s += stolen;
        let cpus = vcpus();
        let lost = stolen * threads.clamp(1, cpus) as f64 / cpus as f64;
        Sample {
            wall,
            // Stolen time is counted in 10 ms ticks, so a short sample can
            // show more of it than it lasted.
            ran: (wall - lost).max(wall / 2.0),
        }
    }

    /// Median speed factor over every reading of the run.
    pub fn median_factor(&self) -> f64 {
        crate::stats::median(&self.readings) / NOMINAL_S
    }

    /// Median speed factor of `phase`'s readings (of the whole run if the
    /// phase took none).
    pub fn phase_factor(&self, phase: &str) -> f64 {
        match self.phases.get(phase) {
            Some(log) if !log.readings.is_empty() => {
                crate::stats::median(&log.readings) / NOMINAL_S
            }
            _ => self.median_factor(),
        }
    }

    /// Share of the vCPU time during `phase`'s bulk samples that the host
    /// stole.
    pub fn steal_share(&self, phase: &str) -> f64 {
        match self.phases.get(phase) {
            Some(log) if log.wall_s > 0.0 => {
                (log.steal_s / (vcpus() as f64 * log.wall_s)).clamp(0.0, 0.9)
            }
            _ => 0.0,
        }
    }
}

/// One timed bulk sample: its wall time, and the part of it its threads
/// would have run had the hypervisor stolen none of the vCPUs' time.
#[derive(Clone, Copy)]
pub struct Sample {
    pub wall: f64,
    pub ran: f64,
}

fn vcpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Page-fault kernel time, in seconds, that counts as reference speed.
pub const NOMINAL_FAULT_S: f64 = 0.02;
/// Bytes the page-fault kernel maps and touches: beyond the allocator's
/// largest mmap threshold (32 MiB), so every run faults in fresh pages.
const FAULT_BYTES: usize = 48 << 20;

/// One reading of the page-fault kernel, in seconds: map fresh zeroed
/// memory, write one byte per 4 KiB page, unmap it. Building a network
/// faults in a lot of fresh memory, and the cost of a fault in this VM
/// swings between runs by about 1.25× with the host's state, which the CPU
/// kernel does not see. Owned by the benchmark, so no program change can
/// alter it.
pub fn fault_reading() -> f64 {
    let t = Instant::now();
    let mut buf = vec![0u8; FAULT_BYTES];
    for i in (0..FAULT_BYTES).step_by(4096) {
        buf[i] = 1;
    }
    black_box(&buf);
    drop(buf);
    t.elapsed().as_secs_f64()
}

/// fsync time, in seconds, that counts as reference disk speed.
pub const NOMINAL_FSYNC_S: f64 = 0.0002;

/// The disk counterpart of [`Calibrator`]: a 256-byte append plus
/// `sync_data` on a scratch file, the same durability call a WAL append
/// makes. Durable acks are dominated by it, and the disk's flush latency
/// drifts by tens of percent over minutes independently of the CPU, so a
/// commit is reported at reference disk speed: raw × (nominal ÷ mean of the
/// readings around its window). Owned by the benchmark, so no program
/// change can alter it.
pub struct DiskCalibrator {
    file: std::fs::File,
    /// Every reading, in seconds.
    pub readings: Vec<f64>,
}

impl DiskCalibrator {
    pub fn new(dir: &Path) -> std::io::Result<Self> {
        // lint: allow(durable-io-containment) -- a benchmark-owned scratch file timed for its fsync latency; its contents are never read
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("fsync-calibration"))?;
        Ok(Self {
            file,
            readings: Vec::new(),
        })
    }

    /// One reading: the median of three appends, each synced, in seconds.
    pub fn reading(&mut self) -> f64 {
        let mut runs = [0.0; RUNS_PER_READING];
        for r in &mut runs {
            let t = Instant::now();
            let synced = self
                .file
                .write_all(&[0x5a; 256])
                .and_then(|()| self.file.sync_data());
            *r = if synced.is_ok() {
                t.elapsed().as_secs_f64()
            } else {
                NOMINAL_FSYNC_S
            };
        }
        runs.sort_by(f64::total_cmp);
        let reading = runs[RUNS_PER_READING / 2];
        self.readings.push(reading);
        reading
    }

    pub fn factor(before: f64, after: f64) -> f64 {
        (before + after) / 2.0 / NOMINAL_FSYNC_S
    }
}

/// CPU time the hypervisor has stolen from this host's vCPUs so far,
/// summed over them, in seconds: the `steal` column of `/proc/stat`.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    // The counters are in USER_HZ units, 100 per second on Linux.
    Some(ticks / 100.0)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux clock id of the calling thread's CPU-time clock.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time this thread has spent running, in nanoseconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) and the clock id is a constant the kernel accepts;
    // clock_gettime writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> Option<u64> {
    None
}
