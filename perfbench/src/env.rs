//! The environment a run records: cores, the core the run is pinned to,
//! seed, storage settings, the data directory's filesystem and the source
//! revision.

use std::path::Path;
use std::process::Command;

use backbone_core::DurabilityOptions;

use crate::{obj, Config, Json};

/// CPUs this process may run on, before [`pin_to_one_cpu`].
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub fn capture(cfg: &Config, data_dir: &Path, nproc: usize, pinned_cpu: Option<usize>) -> Json {
    let durability = DurabilityOptions::default();
    obj([
        ("nproc", Json::Int(nproc as i64)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |c| Json::Int(c as i64)),
        ),
        ("seed", Json::Int(cfg.seed as i64)),
        ("seconds", Json::Float(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("data_dir", Json::Str(data_dir.display().to_string())),
        (
            "data_dir_fs",
            Json::Str(command(&["stat", "-f", "-c", "%T"], data_dir)),
        ),
        ("fsync_policy", Json::Str(format!("{:?}", durability.fsync))),
        (
            "checkpoint_every_ops",
            Json::Int(durability.checkpoint_every as i64),
        ),
        (
            "git_revision",
            Json::Str(command(&["git", "rev-parse", "HEAD"], Path::new(""))),
        ),
    ])
}

/// Pin the calling thread, and so every thread it starts later, to the
/// last CPU. A workload's client and server threads then hand requests to
/// each other on one core: a request costs its work and two context
/// switches. On two cores a hand-off must wake the other CPU, and on a
/// shared virtual machine that wake-up follows the load of other tenants;
/// it moved the wire workloads' throughput by 30% between sets of runs of
/// the same code. Returns the CPU, or `None` where pinning is unavailable.
pub fn pin_to_one_cpu(nproc: usize) -> Option<usize> {
    let cpu = nproc - 1;
    pin(cpu).then_some(cpu)
}

#[cfg(target_os = "linux")]
fn pin(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    if cpu >= 64 * mask.len() {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid, initialised cpu_set_t of the size passed;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin(_cpu: usize) -> bool {
    false
}

/// The trimmed output of `args` followed by `path` (when not empty), or
/// `unknown` when the command is missing or fails (as `git` does outside a
/// git checkout).
fn command(args: &[&str], path: &Path) -> String {
    let mut cmd = Command::new(args[0]);
    cmd.args(&args[1..]);
    if !path.as_os_str().is_empty() {
        cmd.arg(path);
    }
    cmd.stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
