//! What the numbers were measured on.

use std::time::Duration;

use crate::calib::spin;
use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    pub governor: String,
    /// Threads used for OmpSs workers, Pthreads threads and service clients.
    pub threads: usize,
    /// How many spinning threads the host really runs at once: `threads`
    /// times the time of one spinner over the time of `threads` spinners.
    pub parallel_capacity: f64,
}

fn first_line_value(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find(|line| line.starts_with(key))
        .and_then(|line| line.split_once(':'))
        .map(|(_, value)| value.trim().to_string())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The commit of the checkout, read from `.git` without starting git; the
/// benchmark also runs in exported trees, where there is none.
fn git_rev() -> Option<String> {
    let head = read_trimmed(".git/HEAD")?;
    match head.strip_prefix("ref: ") {
        Some(reference) => read_trimmed(&format!(".git/{reference}")),
        None => Some(head),
    }
}

fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Time one spinner, then `threads` spinners side by side, best of three.
fn parallel_capacity(threads: usize) -> f64 {
    const ITERATIONS: u64 = 20_000_000;
    let best = |f: &dyn Fn() -> Duration| (0..3).map(|_| f()).min().expect("three runs");
    let alone = best(&|| spin(ITERATIONS));
    let together = best(&|| {
        std::thread::scope(|scope| {
            let spinners: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| spin(ITERATIONS)))
                .collect();
            spinners
                .into_iter()
                .map(|s| s.join().expect("spinner"))
                .max()
                .expect("at least one spinner")
        })
    });
    threads as f64 * alone.as_secs_f64() / together.as_secs_f64()
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = nproc.min(4);
        let unknown = || "unknown".to_string();
        Host {
            nproc,
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|text| first_line_value(&text, "model name"))
                .unwrap_or_else(unknown),
            rustc: rustc_version().unwrap_or_else(unknown),
            git_rev: git_rev().unwrap_or_else(unknown),
            governor: read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .unwrap_or_else(unknown),
            threads,
            parallel_capacity: parallel_capacity(threads),
        }
    }

    /// Set when the host cannot run `threads` threads at once, so that no
    /// one reads a ratio against Pthreads as scaling.
    pub fn warning(&self) -> Option<String> {
        (self.parallel_capacity < 0.75 * self.threads as f64).then(|| {
            format!(
                "warning: host.parallel_capacity {:.2} < 0.75 x T ({}): threads are time-sliced, \
                 ratios against Pthreads show overhead, not scaling",
                self.parallel_capacity, self.threads
            )
        })
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Int(self.nproc as u64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(&self.rustc)),
            ("git_rev", Json::str(&self.git_rev)),
            ("governor", Json::str(&self.governor)),
            ("threads", Json::Int(self.threads as u64)),
            ("parallel_capacity", Json::Num(self.parallel_capacity)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpuinfo_value_is_the_text_after_the_colon() {
        let text = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nmodel name\t: other\n";
        assert_eq!(
            first_line_value(text, "model name").as_deref(),
            Some("Example CPU @ 2.0GHz")
        );
        assert_eq!(first_line_value(text, "flags"), None);
    }

    #[test]
    fn warning_fires_below_three_quarters_of_t() {
        let mut host = Host {
            nproc: 2,
            cpu_model: String::new(),
            rustc: String::new(),
            git_rev: String::new(),
            governor: String::new(),
            threads: 2,
            parallel_capacity: 1.0,
        };
        assert!(host.warning().is_some());
        host.parallel_capacity = 1.9;
        assert!(host.warning().is_none());
    }
}
