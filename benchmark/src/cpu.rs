//! CPU time of the whole process (every thread), from the kernel.
//!
//! A shared host lends its cores to other work, so wall time measures the
//! neighbours as much as the program. CPU time counts only the cycles the
//! program's own threads ran.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the process has used so far, summed over its threads.
pub fn process() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU milliseconds the process has used since `before`.
pub fn ms_since(before: Duration) -> f64 {
    process().saturating_sub(before).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = super::process();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(super::process() > before, "{x}");
    }
}
