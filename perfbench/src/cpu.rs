//! CPU time from `/proc`, and a probe of the host's speed. On a shared
//! VM the same work's wall time moved by a third with the host's load.
//! CPU time leaves out the time the hypervisor takes back (steal) and the
//! time a thread waits to be scheduled; the probe scales what is left to
//! a reference host, since the other tenants also slow the work itself.

use crate::stats::median;
use std::io;

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at 100
/// in Linux's user ABI).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds the calling thread has run, from its `schedstat`
/// (nanoseconds).
pub fn thread_s() -> io::Result<f64> {
    // A yield makes the scheduler bring this thread's run time up to
    // date; without it the figure lags by up to a scheduler tick.
    std::thread::yield_now();
    let s = std::fs::read_to_string("/proc/thread-self/schedstat")?;
    s.split_whitespace()
        .next()
        .and_then(|ns| ns.parse::<u64>().ok())
        .map(|ns| ns as f64 * 1e-9)
        .ok_or_else(|| io::Error::other(format!("bad schedstat: {s}")))
}

/// CPU seconds of one process, at a 10 ms resolution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcessCpu {
    /// User + system time of all its threads, exited ones included.
    pub own_s: f64,
    /// User + system time of its children that it has waited for.
    pub children_s: f64,
}

impl ProcessCpu {
    /// Everything this process and its reaped children ran.
    pub fn total_s(&self) -> f64 {
        self.own_s + self.children_s
    }
}

/// [`ProcessCpu`] of process `pid` (`"self"` for this one).
pub fn process(pid: &str) -> io::Result<ProcessCpu> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat(&stat).ok_or_else(|| io::Error::other(format!("bad /proc/{pid}/stat: {stat}")))
}

/// Reads `utime`, `stime`, `cutime` and `cstime` (fields 14–17) from a
/// `/proc/<pid>/stat` line. The command name (field 2) is parenthesised
/// and may hold spaces, so fields are counted from its closing `)`.
fn parse_stat(stat: &str) -> Option<ProcessCpu> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let ticks: Vec<f64> = rest
        .split_whitespace()
        .skip(11) // fields 3–13
        .take(4)
        .map(|t| t.parse::<f64>().ok())
        .collect::<Option<_>>()?;
    if ticks.len() < 4 {
        return None;
    }
    Some(ProcessCpu {
        own_s: (ticks[0] + ticks[1]) / TICKS_PER_S,
        children_s: (ticks[2] + ticks[3]) / TICKS_PER_S,
    })
}

/// Probe time of a host on which scaled figures are quoted.
pub const REFERENCE_PROBE_S: f64 = 1e-3;

/// [`MemProbe`] time of a host on which memory-scaled figures are
/// quoted, in µs.
pub const REFERENCE_MEM_PROBE_US: f64 = 5.0;

/// A fixed allocation-and-copy kernel in the harness, shaped like an
/// in-process warm repeat: copy 64 boxed arrays of 32 floats (16 KiB in
/// 64 allocations) and hash the copy. `probe_s`'s arithmetic does not
/// follow such few-µs work; this does. Taken at the same moments as the
/// work it scales, it is the host's speed for that kind of work. The
/// kernel is the harness's own, so no change to the repository moves it.
pub struct MemProbe {
    source: Vec<Box<[f64; 32]>>,
    samples_us: Vec<f64>,
}

impl Default for MemProbe {
    fn default() -> MemProbe {
        MemProbe {
            source: (0..64).map(|k| Box::new([k as f64 * 0.5; 32])).collect(),
            samples_us: Vec::new(),
        }
    }
}

impl MemProbe {
    /// Runs the kernel `n` times.
    pub fn take(&mut self, n: usize) {
        for _ in 0..n {
            let t0 = std::time::Instant::now();
            let copy: Vec<Box<[f64; 32]>> = self.source.iter().map(|b| Box::new(**b)).collect();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for x in copy.iter().flat_map(|b| b.iter()) {
                h = (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3);
            }
            std::hint::black_box(h);
            drop(copy);
            self.samples_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }

    /// [`REFERENCE_MEM_PROBE_US`] ÷ the median kernel time: a latency
    /// measured beside the kernel, multiplied by it, is the latency on
    /// the reference host.
    pub fn scale(&self) -> f64 {
        let probe = median(&self.samples_us);
        eprintln!(
            "# host: median of {} memory probes {probe:.3} us",
            self.samples_us.len()
        );
        REFERENCE_MEM_PROBE_US / probe
    }
}

/// CPU seconds this thread takes for a fixed floating-point kernel: a
/// chain of 8×8 complex matrix products, each into a freshly allocated
/// buffer and renormalised through square roots, the kind of arithmetic
/// block synthesis spends its time in. The kernel is the harness's own,
/// so no change to the repository moves it; only the host's speed does.
pub fn probe_s() -> io::Result<f64> {
    const N: usize = 8;
    const ROUNDS: usize = 1200;
    let a: Vec<(f64, f64)> = (0..N * N)
        .map(|k| {
            let t = k as f64 * 0.37;
            (t.cos() / N as f64, t.sin() / N as f64)
        })
        .collect();
    let mut m = a.clone();
    let c0 = thread_s()?;
    for _ in 0..ROUNDS {
        let mut p = vec![(0.0f64, 0.0f64); N * N];
        for i in 0..N {
            for k in 0..N {
                let (xr, xi) = m[i * N + k];
                for j in 0..N {
                    let (yr, yi) = a[k * N + j];
                    let z = &mut p[i * N + j];
                    z.0 += xr * yr - xi * yi;
                    z.1 += xr * yi + xi * yr;
                }
            }
        }
        for z in p.iter_mut() {
            let norm = (z.0 * z.0 + z.1 * z.1).sqrt().max(1e-300) * N as f64;
            *z = (z.0 / norm, z.1 / norm);
        }
        m = std::hint::black_box(p);
    }
    Ok(thread_s()? - c0)
}

/// Probe times taken through a run. Their median is the host's speed
/// during the run. It scales the run's CPU times to the reference host,
/// so a spell in which the shared host runs all work slower does not
/// read as a slower program.
#[derive(Debug, Default)]
pub struct Probes(Vec<f64>);

impl Probes {
    /// Runs the probe `n` times.
    pub fn take(&mut self, n: usize) -> io::Result<()> {
        for _ in 0..n {
            self.0.push(probe_s()?);
        }
        Ok(())
    }

    /// CPU seconds the probes took.
    pub fn total_s(&self) -> f64 {
        self.0.iter().sum()
    }

    /// [`REFERENCE_PROBE_S`] ÷ the median probe time: a CPU time measured
    /// in this run, multiplied by it, is the time on the reference host.
    pub fn scale(&self) -> f64 {
        let probe = median(&self.0);
        eprintln!(
            "# host: median of {} probes {:.1} us",
            self.0.len(),
            probe * 1e6
        );
        REFERENCE_PROBE_S / probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_probe_gives_a_finite_scale() {
        let mut m = MemProbe::default();
        m.take(9);
        let scale = m.scale();
        assert!(scale.is_finite() && scale > 0.0, "scale {scale}");
    }

    #[test]
    fn parses_stat_lines_with_spaces_in_the_name() {
        let line =
            "4242 (re q) S 1 4242 1 0 -1 4194304 82 0 0 0 150 25 7 3 20 0 1 0 13 2703360 335";
        assert_eq!(
            parse_stat(line),
            Some(ProcessCpu {
                own_s: 1.75,
                children_s: 0.10
            })
        );
        assert_eq!(parse_stat("4242 (x) S 1 2"), None);
    }

    #[test]
    fn this_process_and_thread_have_run() {
        let before = thread_s().expect("schedstat");
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_s().expect("schedstat") > before);
        assert!(process("self").expect("stat").own_s >= 0.0);
    }
}
