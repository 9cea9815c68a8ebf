//! Host facts and process counters read from `/proc`, without
//! dependencies: they let a reader tell a noisy host from a code change.

use std::fs;
use std::time::Instant;

/// Clock ticks per second of the `/proc/stat` counters (`USER_HZ`, 100
/// on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// Static facts about the machine, read once per run.
#[derive(Debug, Clone, PartialEq)]
pub struct HostFacts {
    /// Processors listed in `/proc/cpuinfo`.
    pub nproc: u64,
    /// Lanes the process may use (`available_parallelism`), which is
    /// what the global pool is sized by.
    pub lanes: usize,
    /// `MemTotal` in MiB.
    pub mem_total_mb: f64,
    /// The first `model name` in `/proc/cpuinfo`.
    pub cpu_model: String,
}

impl HostFacts {
    /// Read the facts; fields the host does not expose read as 0 / "unknown".
    pub fn read() -> HostFacts {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let meminfo = fs::read_to_string("/proc/meminfo").unwrap_or_default();
        let (nproc, cpu_model) = parse_cpuinfo(&cpuinfo);
        HostFacts {
            nproc,
            lanes: std::thread::available_parallelism().map_or(1, |n| n.get()),
            mem_total_mb: kb_field(&meminfo, "MemTotal").unwrap_or(0) as f64 / 1024.0,
            cpu_model,
        }
    }
}

/// Counters that move while a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Host-wide steal ticks (`/proc/stat`, aggregate `cpu` line).
    pub steal_ticks: u64,
    /// Minor faults of this process.
    pub minflt: u64,
    /// Minor faults of this process's reaped children.
    pub cminflt: u64,
}

impl Counters {
    /// Sample the counters now.
    pub fn read() -> Counters {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let self_stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let (minflt, cminflt) = parse_faults(&self_stat).unwrap_or((0, 0));
        Counters {
            steal_ticks: parse_steal(&stat).unwrap_or(0),
            minflt,
            cminflt,
        }
    }

    /// Steal seconds between `self` (earlier) and `later`.
    pub fn steal_s_until(&self, later: &Counters) -> f64 {
        later.steal_ticks.saturating_sub(self.steal_ticks) as f64 / USER_HZ
    }
}

/// The share of CPU time the hypervisor left this VM over an interval.
///
/// On a shared host the hypervisor runs other tenants on this VM's vCPUs
/// (steal time, `/proc/stat`); an operation that overlaps a steal storm
/// then takes longer without any change in the program. The timed
/// figures of each operation are scaled by this share, so they estimate
/// the time the operation took on the CPU the VM actually got.
#[derive(Debug, Clone, Copy)]
pub struct StealWindow {
    ticks: u64,
    cpus: u64,
    start: Instant,
}

impl StealWindow {
    pub fn open() -> StealWindow {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        StealWindow {
            ticks: parse_steal(&stat).unwrap_or(0),
            cpus: parse_cpu_count(&stat),
            start: Instant::now(),
        }
    }

    /// The share of the VM's CPU time not stolen since `open`.
    pub fn kept_share(&self) -> f64 {
        let wall_s = self.start.elapsed().as_secs_f64();
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks = parse_steal(&stat).unwrap_or(0).saturating_sub(self.ticks);
        kept_share(ticks, self.cpus, wall_s)
    }
}

/// `1 − steal ÷ (vCPUs × wall)`, kept within [0.05, 1]: steal is counted
/// in 10 ms ticks, so a short interval can read more steal than it lasted.
pub fn kept_share(steal_ticks: u64, cpus: u64, wall_s: f64) -> f64 {
    if cpus == 0 || wall_s <= 0.0 {
        return 1.0;
    }
    let stolen_s = steal_ticks as f64 / USER_HZ;
    (1.0 - stolen_s / (cpus as f64 * wall_s)).clamp(0.05, 1.0)
}

/// Minor faults of this process so far (one `/proc/self/stat` read).
pub fn minor_faults() -> u64 {
    let self_stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_faults(&self_stat).map_or(0, |(minflt, _)| minflt)
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    kb_field(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Steal ticks from the aggregate `cpu` line of `/proc/stat`
/// (`cpu user nice system idle iowait irq softirq steal …`).
pub fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The vCPUs `/proc/stat` lists (`cpu0`, `cpu1`, …).
pub fn parse_cpu_count(stat: &str) -> u64 {
    stat.lines()
        .filter(|l| {
            l.strip_prefix("cpu")
                .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
        })
        .count() as u64
}

/// `(minflt, cminflt)` from `/proc/[pid]/stat`. The command name sits in
/// parentheses and may itself hold spaces or parentheses, so fields are
/// counted from the last `)`: `state` is field 3 and `minflt`/`cminflt`
/// are fields 10 and 11.
pub fn parse_faults(self_stat: &str) -> Option<(u64, u64)> {
    let rest = &self_stat[self_stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(7);
    let minflt = fields.next()?.parse().ok()?;
    let cminflt = fields.next()?.parse().ok()?;
    Some((minflt, cminflt))
}

/// A `Key:   1234 kB` field of `/proc/meminfo` or `/proc/self/status`.
pub fn kb_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Processor count and the first model name from `/proc/cpuinfo`.
pub fn parse_cpuinfo(cpuinfo: &str) -> (u64, String) {
    let field = |line: &str, key: &str| -> Option<String> {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_owned())
    };
    let nproc = cpuinfo
        .lines()
        .filter(|l| field(l, "processor").is_some())
        .count() as u64;
    let model = cpuinfo
        .lines()
        .find_map(|l| field(l, "model name"))
        .unwrap_or_else(|| "unknown".to_owned());
    (nproc, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  4705 356 584 3699176 23 23 0 127 0 0\n\
                        cpu0 1393 280 262 1848467 13 21 0 60 0 0\n\
                        cpu1 3312 76 322 1850709 10 2 0 67 0 0\n\
                        intr 1462898 0 0\n";

    #[test]
    fn steal_comes_from_the_aggregate_line() {
        assert_eq!(parse_steal(STAT), Some(127));
        assert_eq!(parse_steal("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_steal(""), None);
        let earlier = Counters {
            steal_ticks: 100,
            ..Counters::default()
        };
        let later = Counters {
            steal_ticks: 127,
            ..Counters::default()
        };
        assert!((earlier.steal_s_until(&later) - 0.27).abs() < 1e-12);
        assert_eq!(parse_cpu_count(STAT), 2);
    }

    #[test]
    fn kept_share_discounts_steal_over_all_vcpus() {
        // 0.5 s stolen over 2 vCPUs during 1 s: a quarter of the VM's CPU.
        assert!((kept_share(50, 2, 1.0) - 0.75).abs() < 1e-12);
        assert_eq!(kept_share(0, 2, 1.0), 1.0);
        // Tick granularity can overshoot a short interval: clamped.
        assert_eq!(kept_share(10, 1, 0.01), 0.05);
        assert_eq!(kept_share(10, 0, 1.0), 1.0);
    }

    #[test]
    fn faults_survive_a_command_name_with_spaces_and_parens() {
        let plain = "4242 (pba-perfbench) R 1 4242 4242 0 -1 4194560 9731 17 0 0 \
                     12 3 0 0 20 0 3 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_faults(plain), Some((9731, 17)));
        let odd = "77 (a) b (c) S 1 77 77 0 -1 0 55 6 0 0 1 1 0 0 20 0 1 0 9 1 1";
        assert_eq!(parse_faults(odd), Some((55, 6)));
        assert_eq!(parse_faults("garbage"), None);
    }

    #[test]
    fn kb_fields_parse_from_meminfo_and_status() {
        let meminfo = "MemTotal:       16479932 kB\nMemFree:        14331204 kB\n";
        assert_eq!(kb_field(meminfo, "MemTotal"), Some(16_479_932));
        assert_eq!(kb_field(meminfo, "MemFree"), Some(14_331_204));
        assert_eq!(kb_field(meminfo, "Mem"), None);
        let status = "Name:\tpba-perfbench\nVmPeak:\t  471000 kB\nVmHWM:\t  461312 kB\n";
        assert_eq!(kb_field(status, "VmHWM"), Some(461_312));
        assert_eq!(kb_field(status, "VmRSS"), None);
    }

    #[test]
    fn cpuinfo_counts_processors_and_reads_the_model() {
        let cpuinfo = "processor\t: 0\nvendor_id\t: GenuineIntel\n\
                       model name\t: Intel(R) Xeon(R) Processor @ 2.60GHz\n\n\
                       processor\t: 1\nmodel name\t: Intel(R) Xeon(R) Processor @ 2.60GHz\n";
        let (nproc, model) = parse_cpuinfo(cpuinfo);
        assert_eq!(nproc, 2);
        assert_eq!(model, "Intel(R) Xeon(R) Processor @ 2.60GHz");
        assert_eq!(parse_cpuinfo(""), (0, "unknown".to_owned()));
    }
}
