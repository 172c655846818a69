//! `render`: a closed loop of 128×128 orbit frames over all eight
//! scenes, like a viewer waiting on each frame — the real-time
//! rendering path. It reads parameters only, through large row-parallel
//! dispatches, and is the only job that exercises `core`: each frame's
//! Stage-I workload is traced and simulated on the scaled-up chip.
//!
//! The fields are seeded, untrained default models over each scene's
//! ground-truth occupancy grid, so a change to training cannot show up
//! as a render change.

use crate::clock::CpuInstant;
use crate::field::Stages;
use crate::inputs::{self, RenderScene, Stream, FOV_Y};
use crate::layers::{overhead_pct, par_and_trace_metrics, ratio, stage_metrics};
use crate::report::JobReport;
use crate::roofline::HostLimits;
use crate::spans::{Layer, Tracer};
use crate::stats::{median, percentile, Summary};
use crate::Scale;
use fusion3d_core::chip::{FusionChip, SimReport};
use fusion3d_nerf::camera::{Camera, Pose};
use fusion3d_nerf::image::Image;
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::pipeline::{render_image, trace_frame, PipelineConfig};
use fusion3d_nerf::reference::model_forward;
use fusion3d_nerf::render::{composite, ShadedSample};
use fusion3d_nerf::sampler::sample_ray;
use fusion3d_par::Pool;
use rand::rngs::SmallRng;
use rand::Rng;
use std::time::Instant;

/// Distinct viewer poses the loop cycles through: one per round of the
/// 104 frames a run renders at least, so every scene is seen from every
/// pose.
const POSES: usize = 13;
/// The paper's frame size for its simulated frame rate.
const PAPER_FRAME_PIXELS: f64 = 800.0 * 800.0;

/// The render job's inputs.
#[derive(Debug)]
pub struct RenderSetup {
    scenes: Vec<RenderScene>,
    poses: Vec<Pose>,
}

/// Builds the seeded fields and viewer poses.
pub fn setup(seed: u64, scale: &Scale) -> RenderSetup {
    let mut scenes = inputs::render_scenes(seed);
    scenes.truncate(scale.scenes);
    RenderSetup {
        scenes,
        poses: inputs::orbit(&mut inputs::rng(seed, Stream::RenderPoses, 0), POSES),
    }
}

/// One frame of the loop.
struct Frame<'a> {
    scene: &'a RenderScene,
    camera: Camera,
    config: PipelineConfig,
}

impl RenderSetup {
    /// Frame `k` of round `round`: scene `k` at pose `round + k`, so
    /// every scene walks through every pose.
    fn frame(&self, round: usize, k: usize, res: u32) -> Option<Frame<'_>> {
        let scene = self.scenes.get(k)?;
        let pose = *self.poses.get((round + k) % self.poses.len())?;
        Some(Frame {
            scene,
            camera: Camera::new(pose, res, res, FOV_Y),
            config: PipelineConfig { background: scene.background, ..PipelineConfig::default() },
        })
    }
}

/// Whether every pixel of row `y` of `image` equals, bit for bit, the
/// scalar reference re-render: `sample_ray`, the per-sample scalar
/// `reference::model_forward`, and `composite`.
fn row_matches_reference(frame: &Frame<'_>, image: &Image, y: u32) -> bool {
    (0..frame.camera.width()).all(|x| {
        let ray = frame.camera.ray_for_pixel(x, y);
        let (samples, _) = sample_ray(&ray, &frame.scene.occupancy, &frame.config.sampler);
        let positions: Vec<Vec3> = samples.iter().map(|s| s.position).collect();
        let (sigmas, colors) = model_forward(&frame.scene.model, &positions, ray.direction);
        let shaded: Vec<ShadedSample> = samples
            .iter()
            .zip(sigmas.iter().zip(&colors))
            .map(|(s, (&sigma, &color))| ShadedSample { sigma, color, dt: s.dt })
            .collect();
        let reference = composite(&shaded, frame.config.background, frame.config.early_stop).color;
        bits(reference) == bits(image.get(x, y))
    })
}

fn bits(v: Vec3) -> [u32; 3] {
    [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
}

/// Simulated cycles per frame and frame rate at 800×800 over one round
/// of frames — a fixed set, so the figures do not depend on how many
/// frames the host had time for.
fn simulated_figures(reports: &[SimReport], res: u32) -> (f64, f64) {
    let n = reports.len() as f64;
    let cycles = ratio(reports.iter().map(|r| r.cycles as f64).sum(), n);
    let seconds = ratio(reports.iter().map(|r| r.seconds).sum(), n);
    let scale = PAPER_FRAME_PIXELS / f64::from(res * res);
    (cycles, ratio(1.0, seconds * scale))
}

/// The untraced job: `render_image`, then `trace_frame` and
/// `simulate_frame`, per frame, one round (a frame of every scene) at
/// a time so that the run can interleave it with the other jobs.
///
/// Rates are taken over rounds, a fixed unit of work, by their median,
/// which a burst of load from outside the process does not move.
pub struct Viewer<'a> {
    setup: &'a RenderSetup,
    chip: FusionChip,
    rows: SmallRng,
    frame_ms: Vec<f64>,
    round_s: Vec<f64>,
    sim_round_s: Vec<f64>,
    first_round: Vec<SimReport>,
}

impl<'a> Viewer<'a> {
    /// A viewer over the render scenes.
    pub fn new(setup: &'a RenderSetup, seed: u64) -> Self {
        Viewer {
            setup,
            chip: FusionChip::scaled_up(),
            rows: inputs::rng(seed, Stream::CheckRows, 0),
            frame_ms: Vec::new(),
            round_s: Vec::new(),
            sim_round_s: Vec::new(),
            first_round: Vec::new(),
        }
    }

    /// Frames rendered so far.
    pub fn frames(&self) -> usize {
        self.frame_ms.len()
    }

    /// Renders and simulates one round; the first round is also
    /// checked against the scalar reference.
    pub fn render_round(&mut self, scale: &Scale, report: &mut JobReport) {
        let round = self.round_s.len();
        let (mut render_s, mut sim_s) = (0.0, 0.0);
        for k in 0..self.setup.scenes.len() {
            let Some(frame) = self.setup.frame(round, k, scale.render_res) else { continue };
            let (scene, camera, config) = (frame.scene, &frame.camera, &frame.config);
            let t = CpuInstant::now();
            let image = render_image(&scene.model, &scene.occupancy, camera, config);
            let dt = t.elapsed_s();
            self.frame_ms.push(dt * 1e3);
            render_s += dt;
            let t = CpuInstant::now();
            let trace = trace_frame(&scene.occupancy, camera, &config.sampler);
            let sim = self.chip.simulate_frame(&trace);
            sim_s += t.elapsed_s();
            report.attempted += 1;
            if round == 0 {
                self.first_round.push(sim);
                let y = self.rows.gen_range(0..camera.height());
                report.check(row_matches_reference(&frame, &image, y), || {
                    format!("render: {} row {y} differs from the scalar reference", scene.name)
                });
            }
        }
        self.round_s.push(render_s);
        self.sim_round_s.push(sim_s);
    }

    /// Reports the job's metrics.
    pub fn finish(self, scale: &Scale, report: &mut JobReport) {
        let (frames, per_round) = (self.frame_ms.len(), self.setup.scenes.len() as f64);
        let fps = ratio(per_round, median(&self.round_s).unwrap_or(0.0));
        report.put_sampled("render_fps", "1/s", fps, frames);
        let p50 = percentile(&self.frame_ms, 50.0).unwrap_or(0.0);
        let p90 = percentile(&self.frame_ms, 90.0).unwrap_or(0.0);
        report.put_sampled("render_frame_ms_p50", "ms", p50, frames);
        report.put_sampled("render_frame_ms_p90", "ms", p90, frames);
        let sim_fps = ratio(per_round, median(&self.sim_round_s).unwrap_or(0.0));
        report.put_sampled("sim_frames_per_s", "1/s", sim_fps, frames);
        report.note_summary("render frame time", "ms", Summary::of(&self.frame_ms));
        let (cycles, fps_800) = simulated_figures(&self.first_round, scale.render_res);
        report.notes.push(format!(
            "render simulated (first round): {cycles} cycles/frame, {fps_800} frames/s at 800x800"
        ));
    }
}

/// Renders one frame through [`Stages`], one pixel row per chunk as
/// `render_image` dispatches it.
fn render_staged(frame: &Frame<'_>, tracer: &mut Tracer) -> Vec<Vec3> {
    let (scene, camera, config) = (frame.scene, &frame.camera, &frame.config);
    let width = camera.width() as usize;
    let count = width * camera.height() as usize;
    let pool = Pool::new();
    tracer.dispatch(pool.threads(), || {
        let chunks = pool.parallel_chunks_with(
            count,
            width.max(1),
            Stages::default,
            |_, range, stages: &mut Stages| {
                stages.chunk(|stages| {
                    range
                        .map(|i| {
                            let ray = camera.ray_for_pixel((i % width) as u32, (i / width) as u32);
                            let background = config.background;
                            stages
                                .shade(
                                    &scene.model,
                                    &scene.occupancy,
                                    &config.sampler,
                                    &ray,
                                    background,
                                    config.early_stop,
                                    false,
                                )
                                .0
                        })
                        .collect::<Vec<Vec3>>()
                })
            },
        );
        let mut pixels = Vec::with_capacity(count);
        let mut times = Vec::with_capacity(chunks.len());
        for (row, chunk) in chunks {
            pixels.extend(row);
            times.push(chunk);
        }
        (pixels, times)
    })
}

/// The traced job: the same frames through [`Stages`], with the first
/// round also rendered untraced by `render_image` — the two must agree
/// bitwise, and their times give the tracing overhead.
pub fn run_traced(setup: &RenderSetup, scale: &Scale, limits: &HostLimits) -> JobReport {
    let mut report = JobReport::default();
    let mut tracer = Tracer::default();
    let chip = FusionChip::scaled_up();
    let mut reference = Vec::new();
    let t = Instant::now();
    for k in 0..setup.scenes.len() {
        if let Some(frame) = setup.frame(0, k, scale.render_res) {
            let (scene, camera, config) = (frame.scene, &frame.camera, &frame.config);
            reference.push(render_image(&scene.model, &scene.occupancy, camera, config));
        }
    }
    let untraced_s = t.elapsed().as_secs_f64();
    let (mut frames, mut first_round_s, mut first_round) = (0usize, 0.0, Vec::new());
    let (mut samples, mut lattice) = (0u64, 0u64);
    let start = Instant::now();
    let mut round = 0;
    while start.elapsed().as_secs_f64() < scale.seconds / 2.0 || frames < scale.min_frames {
        for k in 0..setup.scenes.len() {
            let Some(frame) = setup.frame(round, k, scale.render_res) else { continue };
            let span = tracer.begin("render/frame");
            let t = Instant::now();
            let pixels = render_staged(&frame, &mut tracer);
            let render_s = t.elapsed().as_secs_f64();
            let (occupancy, camera) = (&frame.scene.occupancy, &frame.camera);
            let trace = tracer.time("core/trace_frame", Layer::CoreTrace, || {
                trace_frame(occupancy, camera, &frame.config.sampler)
            });
            let sim = tracer
                .time("core/simulate_frame", Layer::CoreSimulate, || chip.simulate_frame(&trace));
            tracer.end(span);
            samples += trace.total_samples;
            lattice +=
                trace.workloads.iter().map(|w| u64::from(w.total_lattice_steps())).sum::<u64>();
            frames += 1;
            report.attempted += 1;
            if round == 0 {
                first_round_s += render_s;
                first_round.push(sim);
                let same = reference.get(k).is_some_and(|image| {
                    image.pixels().iter().map(|&p| bits(p)).eq(pixels.iter().map(|&p| bits(p)))
                });
                report.check(same, || {
                    format!(
                        "render: staged frame of {} differs from render_image",
                        frame.scene.name
                    )
                });
            }
        }
        round += 1;
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let Some(first) = setup.scenes.first() else { return report };
    stage_metrics(
        &mut report,
        "render",
        &tracer,
        &first.model,
        limits,
        ratio(samples as f64, lattice as f64),
    );
    let (cycles, fps_800) = simulated_figures(&first_round, scale.render_res);
    let t = &tracer.layers;
    report.put("render.core.trace_s", "s", t.seconds(Layer::CoreTrace));
    report.put("render.core.simulate_s", "s", t.seconds(Layer::CoreSimulate));
    report.put("render.core.sim_cycles_per_frame", "cycles", cycles);
    report.put("render.core.sim_fps_800", "1/s", fps_800);
    par_and_trace_metrics(
        &mut report,
        "render",
        &tracer,
        wall_ns,
        overhead_pct(first_round_s, untraced_s),
    );
    report.spans = tracer.spans_jsonl("render");
    report
}
