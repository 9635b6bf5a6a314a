//! Sample statistics, the result hand-off between the two processes, and
//! the final JSON line.

use std::fmt::Write as _;
use std::path::Path;

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks); 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `p`-th percentile of `values`, and how many samples lie above it.
pub fn tail(values: &[f64], p: f64) -> (f64, usize) {
    let value = quantile(values, p / 100.0);
    (value, values.iter().filter(|&&v| v > value).count())
}

/// A memory figure of this process from `/proc/self/status`, such as
/// `VmHWM` (peak resident set) or `VmRSS`, in MiB.
pub fn status_mib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What one process measured. The child writes it to a file, the parent
/// reads it back and adds what it measured itself.
#[derive(Debug, Default)]
pub struct Results {
    pub metrics: Vec<(String, f64, String)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Results {
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        self.metrics
            .push((name.to_owned(), value + 0.0, unit.to_owned()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Counts one checked op or output; the run's first failure is
    /// printed.
    pub fn check(&mut self, outcome: &Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            if self.failed == 0 {
                eprintln!("perfbench: failed: {why}");
            }
            self.failed += 1;
        }
    }

    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut text = format!("attempted {}\nfailed {}\n", self.attempted, self.failed);
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(text, "metric {name} {unit} {value}");
        }
        std::fs::write(path, text)
    }

    pub fn load(path: &Path) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = Results::default();
        for line in text.lines() {
            let fields: Vec<&str> = line.split(' ').collect();
            let bad = || format!("bad result line `{line}`");
            match fields.as_slice() {
                ["attempted", n] => out.attempted = n.parse().map_err(|_| bad())?,
                ["failed", n] => out.failed = n.parse().map_err(|_| bad())?,
                ["metric", name, unit, value] => {
                    out.set(name, value.parse().map_err(|_| bad())?, unit)
                }
                _ => return Err(bad()),
            }
        }
        Ok(out)
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, with the metrics named in `names`, in that order.
    pub fn json_line(&self, names: &[&str]) -> String {
        let mut metrics = Vec::new();
        let mut correct = self.failed == 0 && self.attempted > 0;
        for name in names {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some((_, value, unit)) if value.is_finite() => metrics.push(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                )),
                _ => {
                    eprintln!("perfbench: metric {name} missing or not finite");
                    correct = false;
                }
            }
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
