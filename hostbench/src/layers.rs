//! Per-layer metrics shared by the traced jobs.

use crate::report::JobReport;
use crate::roofline::{encoding_work, mlp_work, render_work, HostLimits};
use crate::spans::{Layer, Tracer};
use fusion3d_nerf::model::NerfModel;
use fusion3d_nerf::sampler::RayWorkload;

/// Retained samples over fine-lattice steps of a set of rays.
pub fn keep_ratio<'a>(workloads: impl IntoIterator<Item = &'a RayWorkload>) -> f64 {
    let (samples, steps) = workloads.into_iter().fold((0u64, 0u64), |(s, l), w| {
        (s + u64::from(w.total_samples()), l + u64::from(w.total_lattice_steps()))
    });
    ratio(samples as f64, steps as f64)
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-ray stage metrics: `nerf.sampler`, `nerf.encoding`,
/// `nerf.mlp` and `nerf.render` under `job.`.
pub fn stage_metrics(
    report: &mut JobReport,
    job: &str,
    tracer: &Tracer,
    model: &NerfModel,
    limits: &HostLimits,
    keep: f64,
) {
    let c = &tracer.counts;
    let t = &tracer.layers;
    let enc = encoding_work(model, c.samples);
    let mlp = mlp_work(model, c.samples, c.mlp_calls);
    let render = render_work(c.samples);
    report.put(format!("{job}.nerf.sampler.s"), "s", t.seconds(Layer::Sampler));
    report.put(format!("{job}.nerf.sampler.rays"), "count", c.rays as f64);
    report.put(format!("{job}.nerf.sampler.samples"), "count", c.samples as f64);
    report.put(format!("{job}.nerf.sampler.keep_ratio"), "ratio", keep);
    report.put(format!("{job}.nerf.encoding.s"), "s", t.seconds(Layer::Encoding));
    report.put(format!("{job}.nerf.encoding.points"), "count", c.samples as f64);
    report.put(format!("{job}.nerf.encoding.bytes"), "bytes", enc.bytes);
    report.put(
        format!("{job}.nerf.encoding.roofline_pct"),
        "%",
        limits.percent(enc, t.seconds(Layer::Encoding)),
    );
    report.put(format!("{job}.nerf.mlp.s"), "s", t.seconds(Layer::Mlp));
    report.put(format!("{job}.nerf.mlp.points"), "count", c.samples as f64);
    report.put(format!("{job}.nerf.mlp.flops"), "flop", mlp.flops);
    report.put(
        format!("{job}.nerf.mlp.roofline_pct"),
        "%",
        limits.percent(mlp, t.seconds(Layer::Mlp)),
    );
    report.put(format!("{job}.nerf.render.s"), "s", t.seconds(Layer::Render));
    report.put(format!("{job}.nerf.render.samples"), "count", c.samples as f64);
    report.put(
        format!("{job}.nerf.render.early_stop_ratio"),
        "ratio",
        ratio(c.early_stopped as f64, c.early_stop_rays as f64),
    );
    report.put(
        format!("{job}.nerf.render.roofline_pct"),
        "%",
        limits.percent(render, t.seconds(Layer::Render)),
    );
}

/// `par.*` and `trace.*` under `job.`: dispatch statistics, the
/// covered share of the traced wall time `wall_ns`, and the traced
/// run's cost over the untraced one, in percent.
pub fn par_and_trace_metrics(
    report: &mut JobReport,
    job: &str,
    tracer: &Tracer,
    wall_ns: u64,
    overhead_pct: f64,
) {
    report.put(format!("{job}.par.dispatches"), "count", tracer.dispatches as f64);
    report.put(
        format!("{job}.par.dispatch_overhead_s"),
        "s",
        tracer.dispatch_overhead_ns as f64 * 1e-9,
    );
    report.put(format!("{job}.par.worker_imbalance"), "ratio", tracer.worker_imbalance());
    report.put(format!("{job}.trace.coverage"), "ratio", tracer.coverage(wall_ns));
    report.put(format!("{job}.trace.overhead_pct"), "%", overhead_pct);
}

/// Traced cost over untraced cost, in percent above 100.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    100.0 * (ratio(traced_s, untraced_s) - 1.0)
}
