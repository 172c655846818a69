//! Metric collection, the provenance header, and the result line.

use crate::stats::Summary;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value, for timings.
    pub samples: Option<usize>,
}

/// What one job produced: metrics, operations attempted and failed,
/// and correctness failures.
#[derive(Debug, Default)]
pub struct JobReport {
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (for `reconstruct`, scenes that missed
    /// the PSNR target; for `serve`, shed requests).
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub errors: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's coarse spans, as JSON lines.
    pub spans: String,
}

impl JobReport {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value, samples: None });
    }

    /// Adds a metric backed by `samples` samples.
    pub fn put_sampled(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric { name: name.to_string(), unit, value, samples: Some(samples) });
    }

    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Adds a note describing a timing summary.
    pub fn note_summary(&mut self, name: &str, unit: &str, summary: Option<Summary>) {
        let Some(s) = summary else {
            self.notes.push(format!("{name}: no samples"));
            return;
        };
        let tail = match (s.tail_p, s.tail) {
            (Some(p), Some(v)) => format!(", p{p} {v:.4} {unit}"),
            _ => ", too few samples for a tail".to_string(),
        };
        self.notes.push(format!("{name}: n {}, p50 {:.4} {unit}{tail}", s.count, s.median));
    }

    /// Appends every part of `other`.
    pub fn absorb(&mut self, other: JobReport) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.notes.extend(other.notes);
        self.spans.push_str(&other.spans);
    }
}

/// Host and build facts printed with every result.
pub fn provenance(workload: &str, threads: usize, seed: u64, seconds: u64, trace: bool) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // lint: allow(d3): reads the core count; spawns nothing
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"cpu\":\"{}\",\"nproc\":{nproc},\"threads\":{threads},\"git_revision\":\"{}\",\
         \"rustc\":\"{}\",\"profile\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\
         \"trace\":{trace},\"workload\":\"{workload}\",\
         \"jobs\":[\"reconstruct\",\"render\",\"serve\"]}}",
        escape(&cpu),
        escape(&git_revision()),
        escape(env!("HOSTBENCH_RUSTC")),
        env!("HOSTBENCH_PROFILE"),
    )
}

/// The checkout's git revision, or `unknown` outside a git checkout.
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(report: &JobReport) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.errors.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    )
}

/// A JSON number with every digit; non-finite values become 0.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut report = JobReport::default();
        report.put("setup_s", "s", 0.25);
        report.attempted = 3;
        report.failed = 1;
        assert_eq!(
            result_line(&report),
            "{\"correct\":true,\"attempted\":3,\"failed\":1,\
             \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        report.check(false, || "bad".to_string());
        assert!(result_line(&report).starts_with("{\"correct\":false"));
    }

    #[test]
    fn provenance_names_host_build_and_inputs() {
        let header = provenance("knee", 1, 42, 30, false);
        for key in ["cpu", "nproc", "threads", "git_revision", "rustc", "profile", "seed", "jobs"] {
            assert!(header.contains(&format!("\"{key}\":")), "{key} missing from {header}");
        }
    }
}
