//! Process and per-thread CPU time and peak memory, read from `/proc`.

use std::collections::BTreeMap;
use std::fs;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// architecture this runs on (std has no `sysconf` to ask).
const TICK_US: u64 = 10_000;

/// The long-lived thread groups `proc.cpu_share.*` is split into, by
/// thread-name prefix (the kernel keeps the first 15 bytes of a thread's
/// name). The load generator's threads end with their phase and report
/// their own time instead (`LoadResult::cpu_us`).
pub const THREAD_GROUPS: [(&str, &str); 4] = [
    ("gateway", "gw-"),
    ("shard", "intellitag-shar"),
    ("pool", "intellitag-pool"),
    ("trainer", "bench-trainer"),
];

/// `utime + stime` from the text of a `stat` file, in microseconds, plus the
/// thread name. The name sits in parentheses and may itself contain spaces or
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<(String, u64)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let name = text.get(open + 1..close)?.to_string();
    let mut fields = text.get(close + 1..)?.split_ascii_whitespace();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((name, (utime + stime) * TICK_US))
}

/// User + system CPU this process has used so far, in microseconds.
pub fn process_cpu_us() -> u64 {
    fs::read_to_string("/proc/self/stat").ok().and_then(|t| parse_stat(&t)).map_or(0, |(_, us)| us)
}

/// User + system CPU the calling thread has used so far, in microseconds.
pub fn thread_cpu_us() -> u64 {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .map_or(0, |(_, us)| us)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPU microseconds per live thread group (see [`THREAD_GROUPS`]); threads
/// matching no group land under `"other"`.
pub fn thread_group_cpu_us() -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return out };
    for task in tasks.flatten() {
        let Some((name, us)) =
            fs::read_to_string(task.path().join("stat")).ok().and_then(|t| parse_stat(&t))
        else {
            continue; // the thread exited between readdir and read
        };
        *out.entry(group_of(&name)).or_insert(0) += us;
    }
    out
}

fn group_of(thread_name: &str) -> &'static str {
    THREAD_GROUPS
        .iter()
        .find(|(_, prefix)| thread_name.starts_with(prefix))
        .map_or("other", |(group, _)| group)
}

/// Each group's share of `total_us`, the CPU the whole process used between
/// two [`thread_group_cpu_us`] readings.
pub fn group_shares(
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
    total_us: u64,
) -> BTreeMap<&'static str, f64> {
    let delta = |g: &str| {
        after.get(g).copied().unwrap_or(0).saturating_sub(before.get(g).copied().unwrap_or(0))
    };
    THREAD_GROUPS
        .iter()
        .map(|(g, _)| (*g, if total_us == 0 { 0.0 } else { delta(g) as f64 / total_us as f64 }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_last_paren() {
        let line = "42 (gw worker) 1) S 1 42 42 0 -1 4194304 10 0 0 0 7 5 0 0 20 0 3 0 100 0 0";
        let (name, us) = parse_stat(line).unwrap();
        assert_eq!(name, "gw worker) 1");
        assert_eq!(us, (7 + 5) * TICK_US);
        assert!(parse_stat("garbage").is_none());
    }

    #[test]
    fn vm_hwm_is_found_among_status_lines() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn shares_split_the_delta_by_group() {
        assert_eq!(group_of("gw-worker-1"), "gateway");
        assert_eq!(group_of("intellitag-shar"), "shard");
        assert_eq!(group_of("main"), "other");
        let before = BTreeMap::from([("gateway", 100), ("shard", 100), ("other", 50)]);
        let after = BTreeMap::from([("gateway", 200), ("shard", 400), ("other", 150)]);
        let shares = group_shares(&before, &after, 500);
        assert_eq!(shares["gateway"], 0.2);
        assert_eq!(shares["shard"], 0.6);
        assert_eq!(shares["pool"], 0.0);
        assert_eq!(group_shares(&before, &after, 0)["shard"], 0.0);
    }

    #[test]
    fn live_process_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(!thread_group_cpu_us().is_empty());
        assert!(thread_cpu_us() <= process_cpu_us() + TICK_US);
    }
}
