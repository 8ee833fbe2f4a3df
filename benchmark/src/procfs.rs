//! What the operating system knows about this process: per-thread CPU
//! time, peak resident memory, and the file system under the WAL.
//!
//! All of it is read from `/proc`, so the numbers are available in
//! untraced runs too and cost the program under test nothing.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Which part of the deployment a thread belongs to, from the names the
/// repository already gives its threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ThreadRole {
    /// `abcast-tcp-p<i>`: a process's single worker thread (the actor).
    Worker,
    /// `abcast-tcp-poll`: the one thread owning every socket.
    Poller,
    /// `wal-compactor`: background WAL compaction.
    Compactor,
    /// The benchmark's own threads (`bench-*` and the main thread): the
    /// generator and the controller, kept out of the system's CPU bill.
    Bench,
    /// Any thread the program starts that this list does not know yet —
    /// billed to the system, so new threads cannot hide work.
    Other,
}

fn role_of(comm: &str, is_main: bool) -> ThreadRole {
    if is_main || comm.starts_with("bench-") {
        ThreadRole::Bench
    } else if comm == "abcast-tcp-poll" {
        ThreadRole::Poller
    } else if comm
        .strip_prefix("abcast-tcp-p")
        .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
    {
        ThreadRole::Worker
    } else if comm == "wal-compactor" {
        ThreadRole::Compactor
    } else {
        ThreadRole::Other
    }
}

/// On-CPU nanoseconds of every live thread, keyed by thread id.
#[derive(Clone, Debug, Default)]
pub struct CpuSnapshot {
    threads: BTreeMap<u64, (ThreadRole, u64)>,
}

impl CpuSnapshot {
    /// Reads `/proc/self/task/*/schedstat` (nanosecond resolution), falling
    /// back to the 10 ms ticks of `stat` where schedstats are compiled out.
    pub fn take() -> CpuSnapshot {
        let mut threads = BTreeMap::new();
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return CpuSnapshot { threads };
        };
        for entry in dir.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            let base = entry.path();
            let comm = fs::read_to_string(base.join("comm")).unwrap_or_default();
            let ns = fs::read_to_string(base.join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                .or_else(|| stat_ticks(&base.join("stat")).map(|t| t * 10_000_000));
            if let Some(ns) = ns {
                threads.insert(
                    tid,
                    (
                        role_of(comm.trim(), tid == u64::from(std::process::id())),
                        ns,
                    ),
                );
            }
        }
        CpuSnapshot { threads }
    }

    /// CPU seconds each role burned between `earlier` and `self`.  A thread
    /// born inside the window counts from zero; one that ended inside it is
    /// not visible any more and is not counted (none of the deployment's
    /// threads end before the final snapshot).
    pub fn since(&self, earlier: &CpuSnapshot) -> BTreeMap<ThreadRole, f64> {
        let mut by_role = BTreeMap::new();
        for (tid, (role, ns)) in &self.threads {
            let before = earlier.threads.get(tid).map_or(0, |(_, ns)| *ns);
            *by_role.entry(*role).or_insert(0.0) += ns.saturating_sub(before) as f64 / 1e9;
        }
        by_role
    }
}

/// `utime + stime` of a `stat` file, in clock ticks.
fn stat_ticks(path: &Path) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    // The command name is parenthesised and may contain spaces.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the ')' come state (field 3), ... utime (14), stime (15).
    Some(fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn vm_hwm_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.split_whitespace().next()?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // `id parent maj:min root mountpoint opts... - fstype source opts`
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount_point), Some(fstype)) = (
            head.split_whitespace().nth(4),
            tail.split_whitespace().next(),
        ) else {
            continue;
        };
        if path.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// Median cost in µs of a 512-byte append followed by `sync_data` in
/// `dir`, over `rounds` rounds.  This is the barrier every WAL step commit
/// pays, measured where the WAL will live; a value near zero means the
/// file system does not really sync.
pub fn fsync_probe_us(dir: &Path, rounds: usize) -> io::Result<f64> {
    fs::create_dir_all(dir)?;
    let path = dir.join("fsync-probe");
    let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
    let block = [0xA5u8; 512];
    let mut costs = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        file.write_all(&block)?;
        file.sync_data()?;
        costs.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    fs::remove_file(&path)?;
    Ok(stats::median(&costs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_names_map_to_roles() {
        assert_eq!(role_of("abcast-tcp-poll", false), ThreadRole::Poller);
        assert_eq!(role_of("abcast-tcp-p0", false), ThreadRole::Worker);
        assert_eq!(role_of("abcast-tcp-p12", false), ThreadRole::Worker);
        assert_eq!(role_of("wal-compactor", false), ThreadRole::Compactor);
        assert_eq!(role_of("bench-gen", false), ThreadRole::Bench);
        assert_eq!(role_of("abcast_benchmar", true), ThreadRole::Bench);
        assert_eq!(role_of("somebody-new", false), ThreadRole::Other);
    }

    #[test]
    fn a_spinning_thread_shows_up_in_the_snapshot_difference() {
        let before = CpuSnapshot::take();
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let burned = CpuSnapshot::take().since(&before);
        let total: f64 = burned.values().sum();
        assert!(
            total > 0.005,
            "30 ms of spinning must register, got {total}"
        );
        assert!(vm_hwm_mib() > 0.0);
    }
}
