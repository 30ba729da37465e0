//! Host fingerprint and process memory, read from `/proc` and `/sys`.

use std::path::Path;

/// What every output records about the machine it ran on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub l3: String,
    /// Whether a thread could be pinned to a core
    /// (`lightrw::baseline::affinity`, which the engines use).
    pub pinning: bool,
    pub commit: String,
}

impl Fingerprint {
    pub fn probe() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".into(), |(_, m)| m.trim().to_string());
        let l3 = (0..8)
            .map(|i| format!("/sys/devices/system/cpu/cpu0/cache/index{i}"))
            .find(|d| read_trim(&format!("{d}/level")).as_deref() == Some("3"))
            .and_then(|d| read_trim(&format!("{d}/size")))
            .unwrap_or_else(|| "unknown".into());
        let pinning = std::thread::spawn(|| lightrw::baseline::affinity::pin_current_thread(0))
            .join()
            .unwrap_or(false);
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            l3,
            pinning,
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// One JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"l3\": \"{}\", \"pinning\": {}, \"commit\": \"{}\"}}",
            self.nproc,
            self.cpu_model.replace('"', "'"),
            self.l3,
            self.pinning,
            self.commit,
        )
    }
}

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The commit `HEAD` names, read from the repository files (the
/// benchmark may run from an export that is not a repository at all).
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
