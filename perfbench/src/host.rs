//! Process counters (the process CPU clock and `/proc/self/task`), and the
//! host fingerprint every result is stamped with.

use std::fs;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process counters and assumes a 64-bit `struct timespec`");

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux: two 64-bit fields.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Process CPU time (user + system, all threads including exited ones) in
/// microseconds. The per-process CPU clock counts in nanoseconds, where
/// `/proc/self/stat` would count 10 ms ticks: too coarse for the few
/// hundred operations `qos-renegotiate` completes in a run.
pub fn cpu_us() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `Timespec` whose layout matches the
    // C `struct timespec` on 64-bit Linux (checked by the cfg above), and
    // the clock id is a valid constant; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

fn task_dirs() -> Vec<std::path::PathBuf> {
    fs::read_dir("/proc/self/task")
        .map(|dir| dir.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default()
}

/// Voluntary plus nonvoluntary context switches summed over the threads
/// alive now. Threads that exited earlier are not counted.
pub fn ctx_switches() -> u64 {
    task_dirs()
        .into_iter()
        .filter_map(|dir| fs::read_to_string(dir.join("status")).ok())
        .flat_map(|status| {
            status
                .lines()
                .filter(|l| l.contains("ctxt_switches:"))
                .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
                .collect::<Vec<_>>()
        })
        .sum()
}

/// Entries in `/proc/self/task`: the process's live threads.
pub fn threads() -> usize {
    task_dirs().len()
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// `nproc`, `rustc -V`, kernel release and CPU model, as a JSON object.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\":{nproc},\"rustc\":{},\"kernel\":{},\"cpu\":{}}}",
        json_str(&rustc),
        json_str(&kernel),
        json_str(&cpu)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_live_values() {
        let before = cpu_us();
        let busy: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        std::hint::black_box(busy);
        assert!(cpu_us() > before);
        assert!(threads() >= 1);
        let _ = ctx_switches();
    }

    #[test]
    fn fingerprint_is_a_json_object_with_every_field() {
        let fp = fingerprint_json();
        for key in ["\"nproc\":", "\"rustc\":", "\"kernel\":", "\"cpu\":"] {
            assert!(fp.contains(key), "{fp}");
        }
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c \"");
    }
}
