//! Whole-process readings: CPU time and context switches (`getrusage`,
//! exited threads included), peak resident memory (`/proc`), and a
//! directory's on-disk size.

use std::path::Path;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("spbench reads 64-bit Linux process counters");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// maxrss … nsignals, then nvcsw and nivcsw.
    longs: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU time and context switches of the whole process at one instant,
/// for per-phase deltas.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    cpu_s: f64,
    switches: u64,
}

impl Usage {
    /// Reads both counters now.
    pub fn now() -> Result<Self, String> {
        let mut ru = Rusage::default();
        // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
        // Linux (two `struct timeval {long, long}` then 14 `long`s), and
        // the pointer is to a live, writable, exclusively borrowed value.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        if rc != 0 {
            return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Ok(Self {
            cpu_s: secs(&ru.utime) + secs(&ru.stime),
            switches: (ru.longs[12] + ru.longs[13]) as u64,
        })
    }

    /// `(cpu seconds, context switches)` elapsed since `earlier`.
    pub fn since(&self, earlier: &Usage) -> (f64, u64) {
        (self.cpu_s - earlier.cpu_s, self.switches.saturating_sub(earlier.switches))
    }
}

/// Wall seconds of a fixed integer loop (xorshift, multiplies and an
/// L1-resident table), the median of five samples: the host's speed right
/// now, from code no change to the repository can move.
pub fn calibrate() -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut table = [0u64; 512];
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            let start = std::time::Instant::now();
            for i in 0..400_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let j = (x as usize) & 511;
                table[j] = table[j].wrapping_add(x.wrapping_mul(i | 1));
                x = x.wrapping_add(table[(j * 7) & 511]);
            }
            std::hint::black_box((&table, x));
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// Total bytes of the regular files under `dir`, in MiB.
pub fn dir_mb(dir: &Path) -> f64 {
    fn walk(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => walk(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    }
    walk(dir) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_plausible() {
        let before = Usage::now().unwrap();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let (cpu, switches) = Usage::now().unwrap().since(&before);
        assert!(cpu > 0.0 && cpu < 60.0, "cpu {cpu}");
        assert!(switches >= 1, "the sleep switched at least once");
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
