//! Host-time benchmark of the Fusion-3D workspace.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload knee --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process runs three jobs on seeded inputs — `reconstruct`
//! (train all eight scenes), `render` (a closed loop of 128×128 frames
//! plus their chip simulation) and `serve` (cold replays of a request
//! trace) — checks their outputs, and prints a provenance header,
//! every metric with its unit and sample count, and a last line of
//! JSON. `--workload` picks the serve job's offered load: `knee` (50 K
//! rps) or `light` (6.25 K rps). Every pool dispatch runs on one worker.
//! `--seconds` is the least time the interleaved jobs run for;
//! reconstruct trains a fixed budget. `--trace 1` runs the same jobs
//! one layer at a time under host-time spans and reports the per-layer
//! split instead; see `hostbench/README.md`.

mod clock;
mod field;
mod inputs;
mod layers;
mod reconstruct;
mod render;
mod report;
mod roofline;
mod serve;
mod spans;
mod stats;

use clock::CpuInstant;
use report::{provenance, result_line, JobReport};
use roofline::HostLimits;
use std::process::ExitCode;
use std::time::Instant;

/// How much work each job does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Scenes trained and rendered (of eight).
    pub scenes: usize,
    /// Training steps per scene.
    pub train_budget: u32,
    /// Training steps per scene in one cycle of the untraced run.
    pub train_block: u32,
    /// Steps between held-out PSNR evaluations.
    pub eval_every: u32,
    /// Seconds the untraced run measures for at least; the traced run
    /// gives half to render and half to serve.
    pub seconds: f64,
    /// Frames rendered at least, enough for a p90 with ten frames
    /// beyond it.
    pub min_frames: usize,
    /// Render frame side length in pixels.
    pub render_res: u32,
    /// Serve replays at least.
    pub min_replays: usize,
    /// Requests per serve trace.
    pub serve_requests: usize,
    /// Mean simulated cycles between serve arrivals.
    pub serve_interarrival_cycles: f64,
    /// Set-ups timed for `setup_s`.
    pub setup_rounds: usize,
}

impl Scale {
    /// The benchmark's scale for a run of `seconds` with serve arrivals
    /// `serve_interarrival_cycles` apart.
    fn full(seconds: f64, serve_interarrival_cycles: f64) -> Self {
        Scale {
            scenes: 8,
            train_budget: 160,
            train_block: 16,
            eval_every: 20,
            seconds,
            min_frames: 104,
            render_res: 128,
            min_replays: 5,
            serve_requests: inputs::SERVE_REQUESTS,
            serve_interarrival_cycles,
            setup_rounds: 5,
        }
    }
}

/// Every job's inputs.
struct Setup {
    reconstruct: Vec<reconstruct::SceneData>,
    render: render::RenderSetup,
    serve: serve::ServeSetup,
}

fn build_setup(seed: u64, scale: &Scale) -> Setup {
    Setup {
        reconstruct: reconstruct::setup(seed, scale),
        render: render::setup(seed, scale),
        serve: serve::setup(seed, scale),
    }
}

/// Builds the inputs `scale.setup_rounds` times, returning the last
/// set and the median build time in seconds.
fn timed_setup(seed: u64, scale: &Scale) -> (Setup, f64) {
    let mut times = Vec::new();
    let mut setup = None;
    for _ in 0..scale.setup_rounds.max(1) {
        let start = CpuInstant::now();
        setup = Some(build_setup(seed, scale));
        times.push(start.elapsed_s());
    }
    let median = stats::median(&times).unwrap_or(0.0);
    (setup.unwrap_or_else(|| build_setup(seed, scale)), median)
}

/// The untraced run: the end-to-end metrics.
///
/// The jobs run interleaved in cycles — a block of training steps of
/// every scene, a render round, and on every third cycle a serve replay
/// — until training has used its budget, the minimum frames and
/// replays are in, and `scale.seconds` have passed. Each job's samples
/// then spread over the whole run, so a burst of load from outside the
/// process moves no job's median much.
fn run_untraced(seed: u64, scale: &Scale) -> JobReport {
    let (setup, setup_s) = timed_setup(seed, scale);
    let mut jobs = [JobReport::default(), JobReport::default(), JobReport::default()];
    let [train_report, render_report, serve_report] = &mut jobs;
    let mut training = reconstruct::Training::new(&setup.reconstruct, seed);
    let mut viewer = render::Viewer::new(&setup.render, seed);
    let mut replayer = serve::Replayer::new(&setup.serve, serve_report);
    let start = Instant::now();
    for cycle in 0usize.. {
        let done = training.done(scale)
            && viewer.frames() >= scale.min_frames
            && replayer.replays() >= scale.min_replays
            && start.elapsed().as_secs_f64() >= scale.seconds;
        if done || !serve_report.errors.is_empty() {
            break;
        }
        training.advance(scale.train_block, scale, train_report);
        viewer.render_round(scale, render_report);
        if cycle % 3 == 0 {
            replayer.replay(serve_report);
        }
    }
    training.finish(train_report);
    viewer.finish(scale, render_report);
    replayer.finish(serve_report);
    let mut report = JobReport::default();
    report.put_sampled("setup_s", "s", setup_s, scale.setup_rounds.max(1));
    for job in jobs {
        report.absorb(job);
    }
    report.put("peak_rss_mb", "MB", peak_rss_mb());
    report
}

/// The traced run: the per-layer metrics.
fn run_traced(seed: u64, scale: &Scale, limits: &HostLimits) -> JobReport {
    let setup = build_setup(seed, scale);
    let mut report = JobReport::default();
    report.absorb(reconstruct::run_traced(&setup.reconstruct, seed, scale, limits));
    report.absorb(render::run_traced(&setup.render, scale, limits));
    report.absorb(serve::run_traced(&setup.serve, scale, limits));
    report
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    serve_interarrival_cycles: f64,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: fusion3d-hostbench --workload knee|light --seed N --seconds N --trace 0|1";

/// Worker threads of every pool dispatch. Two-worker runs on a shared
/// two-core host moved by up to half from one run to the next, beyond
/// any usable regression bound, so every dispatch runs on one worker:
/// the pool's inline path.
const THREADS: usize = 1;

/// Mean serve inter-arrival gaps, in simulated cycles at 1 GHz: the
/// 50 K rps knee and the idle 6.25 K rps point of `BENCH_serve.json`.
const KNEE_INTERARRIVAL_CYCLES: f64 = 20_000.0;
const LIGHT_INTERARRIVAL_CYCLES: f64 = 160_000.0;

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse::<u64>().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = value("--workload")?.to_string();
    let serve_interarrival_cycles = match workload.as_str() {
        "knee" => KNEE_INTERARRIVAL_CYCLES,
        "light" => LIGHT_INTERARRIVAL_CYCLES,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args { workload, serve_interarrival_cycles, seed: number("--seed")?, seconds, trace })
}

/// Prints one line of the benchmark's output.
fn emit(line: &str) {
    // lint: allow(o1): stdout is this binary's output
    println!("{line}");
}

/// Prints one diagnostic line.
fn warn(line: &str) {
    // lint: allow(o1): stderr carries this binary's diagnostics
    eprintln!("{line}");
}

/// Where the traced run writes its coarse spans.
const SPANS_FILE: &str = "hostbench-spans.jsonl";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            warn(&format!("{err}\n{USAGE}"));
            return ExitCode::from(2);
        }
    };
    fusion3d_par::set_thread_override(Some(THREADS));
    let scale = Scale::full(args.seconds as f64, args.serve_interarrival_cycles);
    emit(&format!(
        "# provenance {}",
        provenance(&args.workload, THREADS, args.seed, args.seconds, args.trace)
    ));
    let report = if args.trace {
        let limits = HostLimits::measure(3);
        emit(&format!(
            "# host limits (one thread): triad {:.2} GB/s over 3 x {} MiB arrays, \
             f32 multiply-add {:.2} GFLOP/s; layer bytes and flops are computed from \
             tensor sizes, not counted",
            limits.bytes_per_s * 1e-9,
            (roofline::TRIAD_ELEMS * 4) >> 20,
            limits.flops_per_s * 1e-9
        ));
        let report = run_traced(args.seed, &scale, &limits);
        if let Err(err) = std::fs::write(SPANS_FILE, &report.spans) {
            warn(&format!("cannot write {SPANS_FILE}: {err}"));
        }
        report
    } else {
        run_untraced(args.seed, &scale)
    };
    for note in &report.notes {
        emit(&format!("# {note}"));
    }
    for m in &report.metrics {
        let samples = m.samples.map_or(String::new(), |n| format!(" (n {n})"));
        emit(&format!("# {:<44} {:>18.6} {}{samples}", m.name, m.value, m.unit));
    }
    for err in &report.errors {
        warn(&format!("correctness check failed: {err}"));
    }
    emit(&result_line(&report));
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scale small enough for a test: two scenes, a few steps, a
    /// handful of 16×16 frames and short traces.
    fn smoke() -> Scale {
        Scale {
            scenes: 2,
            train_budget: 4,
            train_block: 2,
            eval_every: 2,
            seconds: 0.0,
            min_frames: 2,
            render_res: 16,
            min_replays: 2,
            serve_requests: 24,
            serve_interarrival_cycles: KNEE_INTERARRIVAL_CYCLES,
            setup_rounds: 1,
        }
    }

    fn names(report: &JobReport) -> Vec<&str> {
        report.metrics.iter().map(|m| m.name.as_str()).collect()
    }

    fn assert_names(report: &JobReport, listed: &[String]) {
        let got = names(report);
        for name in listed {
            assert!(got.contains(&name.as_str()), "{name} missing");
        }
        assert_eq!(got.len(), listed.len(), "unlisted metrics in {got:?}");
    }

    /// The metric names `BENCHMARK.json` lists for `section`.
    fn listed(section: &str) -> Vec<String> {
        let json = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section end")];
        body.split("\"name\"")
            .skip(1)
            .filter_map(|part| part.split('"').nth(1).map(str::to_string))
            .collect()
    }

    #[test]
    fn untraced_smoke_reports_every_end_to_end_metric() {
        let report = run_untraced(7, &smoke());
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_names(&report, &listed("end_to_end"));
        assert!(report.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));
    }

    #[test]
    fn traced_smoke_reports_every_per_layer_metric() {
        let limits = HostLimits { bytes_per_s: 1e10, flops_per_s: 1e10 };
        let report = run_traced(7, &smoke(), &limits);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_names(&report, &listed("per_layer"));
        assert!(report.spans.lines().count() > 0);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let args =
            parse_args(&argv("--workload light --seed 3 --seconds 5 --trace 1")).expect("valid");
        assert_eq!((args.seed, args.seconds, args.trace), (3, 5, true));
        assert_eq!(args.serve_interarrival_cycles, LIGHT_INTERARRIVAL_CYCLES);
        assert!(parse_args(&argv("--workload other --seed 3 --seconds 5 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload knee --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload knee --seed 3 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload knee --seconds 5 --trace 0")).is_err());
    }
}
