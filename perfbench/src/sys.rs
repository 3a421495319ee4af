//! Process resource usage: CPU time of all threads from
//! `getrusage(2)`, and the peak resident set from Linux's `/proc`.

use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn usage() -> Rusage {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a properly laid-out, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    u
}

/// User plus system CPU time consumed so far by every thread of this
/// process (joined threads included).
pub fn cpu_time() -> Duration {
    let u = usage();
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(&u.utime) + micros(&u.stime))
}

/// Peak resident set size of this process, in bytes: `VmHWM`, which
/// covers this address space only (`ru_maxrss`, the fallback, also
/// counts what the process held before its `execve`).
pub fn peak_rss_bytes() -> u64 {
    let hwm_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        });
    hwm_kb.unwrap_or_else(|| usage().maxrss as u64) * 1024
}
