//! Thread CPU time, the clock of every untraced timing.
//!
//! Every timed call of the untraced run executes on the main thread
//! (each pool dispatch takes the pool's one-worker inline path), so the
//! CPU time of that thread is the program's cost. Unlike wall time it
//! leaves out the time the thread is runnable but not running: while
//! the shared host schedules another process on its core, and while
//! the hypervisor steals the virtual CPU (the kernel subtracts steal
//! time from task run time when paravirtual time accounting is on).
//! On a shared two-vCPU host, the middle half of ten wall-clock runs of
//! the same program spread over 60 % of their median; this clock does
//! not see those waits. It still sees a slower core (frequency, cache
//! and memory-bandwidth contention).

use std::time::Duration;

/// `CLOCK_THREAD_CPUTIME_ID` of Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time consumed by the calling thread so far.
fn thread_cpu_time() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of
    // the call, and the clock id is a constant the kernel supports.
    #[allow(unsafe_code)]
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A reading of the calling thread's CPU clock, used like
/// [`std::time::Instant`] but on one thread only.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant(Duration);

impl CpuInstant {
    /// The calling thread's CPU time now.
    pub fn now() -> Self {
        CpuInstant(thread_cpu_time())
    }

    /// CPU time the calling thread has used since `self`, in seconds.
    /// Read it on the thread that took `self`.
    pub fn elapsed_s(&self) -> f64 {
        thread_cpu_time().saturating_sub(self.0).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_and_not_sleep() {
        let start = CpuInstant::now();
        std::thread::sleep(Duration::from_millis(50));
        let slept = start.elapsed_s();
        let start = CpuInstant::now();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        let worked = start.elapsed_s();
        assert!(slept < 0.02, "sleep counted {slept} s");
        assert!(worked > 0.0, "work counted no time");
    }
}
