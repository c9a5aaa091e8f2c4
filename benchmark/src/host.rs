//! What the benchmark needs from the host: CPU pinning, the process's
//! peak resident set, and the fingerprint a result is stamped with.

use std::process::Command;

// The two affinity calls of glibc/musl (Linux only). `mask` points at
// `cpusetsize` bytes; pid 0 is the calling thread, and threads spawned
// afterwards inherit its mask.
#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// 1024 CPUs, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// A CPU affinity mask as the kernel hands it out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuMask([u64; MASK_WORDS]);

impl CpuMask {
    /// The calling thread's current mask (`None` where the call is
    /// unavailable or refused).
    pub fn current() -> Option<CpuMask> {
        #[cfg(target_os = "linux")]
        {
            let mut mask = [0u64; MASK_WORDS];
            // SAFETY: `mask` is a live, writable buffer of exactly the
            // byte length passed; the kernel writes at most that many
            // bytes and keeps no pointer.
            let rc =
                unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
            (rc == 0).then_some(CpuMask(mask))
        }
        #[cfg(not(target_os = "linux"))]
        None
    }

    /// Restricts the calling thread (and threads it spawns later) to
    /// this mask. Returns whether the kernel accepted it.
    pub fn apply(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: `self.0` is a live buffer of exactly the byte
            // length passed; the kernel only reads it.
            let rc =
                unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
            rc == 0
        }
        #[cfg(not(target_os = "linux"))]
        false
    }

    /// The mask holding only this mask's highest-numbered CPU (CPU 0
    /// takes most of a VM's interrupts, so the last one is quieter).
    pub fn last_cpu_only(&self) -> Option<CpuMask> {
        let (word, bits) = self.0.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let mut one = [0u64; MASK_WORDS];
        one[word] = 1u64 << (63 - bits.leading_zeros());
        Some(CpuMask(one))
    }
}

/// Pins the calling thread to one CPU of its current mask. Returns
/// `false` (and changes nothing) when the host does not allow it; the
/// result then says `pinned: false` and its wall figures are those of
/// an unpinned simulator (about 3× higher on 2 cores).
pub fn pin_to_one_cpu() -> bool {
    CpuMask::current()
        .and_then(|m| m.last_cpu_only())
        .is_some_and(|one| one.apply())
}

/// A `kB` field of `/proc/self/status` in MB (0.0 where `/proc` is not
/// available).
fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':').map(str::to_owned))
        })
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The header a result is only comparable under: same CPU, same
/// compiler, same commit.
pub struct Fingerprint {
    pub cpu_model: String,
    pub nproc: usize,
    /// The diff codec has an AVX-512 path and a portable one.
    pub avx512: bool,
    pub rustc: String,
    /// `unknown` outside a git checkout (the driver's copies are not
    /// repositories).
    pub git_commit: String,
}

impl Fingerprint {
    pub fn collect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        #[cfg(target_arch = "x86_64")]
        let avx512 = std::arch::is_x86_feature_detected!("avx512f");
        #[cfg(not(target_arch = "x86_64"))]
        let avx512 = false;
        Fingerprint {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            avx512,
            rustc: command_line("rustc", &["-V"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_only_picks_the_highest_set_bit() {
        let mut m = [0u64; MASK_WORDS];
        m[0] = 0b1011;
        assert_eq!(CpuMask(m).last_cpu_only().unwrap().0[0], 0b1000);
        m[2] = 1 << 5;
        let one = CpuMask(m).last_cpu_only().unwrap();
        assert_eq!((one.0[0], one.0[2]), (0, 1 << 5));
        assert_eq!(CpuMask([0; MASK_WORDS]).last_cpu_only(), None);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
