//! `serve`: an open loop in simulated time. A seeded Poisson/Zipf(0.9)
//! trace of 120 requests over eight scenes replays through
//! `ServeSim::synthetic(8, …)` with `BENCH_serve.json`'s settings, at
//! the workload's offered load: the 50 K rps knee of that file's sweep,
//! where queues build and scenes evict, or its idle 6.25 K rps point.
//! It drives the render kernel differently from `render`: many 40×40
//! views coalesced 1–4 per dispatch, a 4-level/16-wide model, and
//! container decodes on every registry miss.
//!
//! Every replay starts from a cold registry, so replays are identical;
//! the host figure is completed requests per host second.

use crate::clock::CpuInstant;
use crate::field::Stages;
use crate::inputs::{self, serve_config};
use crate::layers::{keep_ratio, overhead_pct, par_and_trace_metrics, ratio, stage_metrics};
use crate::report::JobReport;
use crate::roofline::HostLimits;
use crate::spans::{Layer, Tracer};
use crate::stats::{median, percentile, Summary};
use crate::Scale;
use fusion3d_nerf::camera::{orbit_poses, Camera};
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::model::NerfModel;
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::pipeline::{trace_frame, PipelineConfig};
use fusion3d_par::{current_threads, set_thread_override, Pool};
use fusion3d_serve::queue::Ticket;
use fusion3d_serve::{
    AdmissionQueue, Request, SceneId, SceneRegistry, SceneStore, ServeConfig, ServeError,
    ServeOutcome, ServeSim,
};
use rand::SeedableRng;
use std::time::Instant;

/// Scenes in the store.
const SCENES: usize = 8;
/// Simulated clock the scheduler's cycles are read at
/// (`BENCH_serve.json`'s convention).
const CLOCK_HZ: f64 = 1.0e9;

/// The serve job's inputs.
#[derive(Debug)]
pub struct ServeSetup {
    config: ServeConfig,
    trace: Vec<Request>,
    store: SceneStore,
}

/// Builds the scene store and the seeded trace.
pub fn setup(seed: u64, scale: &Scale) -> ServeSetup {
    ServeSetup {
        config: serve_config(),
        trace: inputs::serve_trace(seed, scale.serve_requests, scale.serve_interarrival_cycles),
        store: SceneStore::synthetic(SCENES),
    }
}

/// One cold replay through `ServeSim::run_trace`.
fn replay(setup: &ServeSetup) -> Result<ServeOutcome, ServeError> {
    ServeSim::synthetic(SCENES, &setup.config)?.run_trace(&setup.trace)
}

/// The determinism reference: a replay on another worker count than
/// the timed replays — every core when they run on one, else one.
fn replay_other_threads(setup: &ServeSetup) -> Result<ServeOutcome, ServeError> {
    let threads = current_threads();
    // lint: allow(d3): reads the core count; spawns nothing
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    set_thread_override(Some(if threads == 1 { cores } else { 1 }));
    let outcome = replay(setup);
    set_thread_override(Some(threads));
    outcome
}

/// The untraced job: cold replays through `ServeSim::run_trace`, one
/// at a time so that the run can interleave them with the other jobs,
/// each checked against a replay on another worker count, run outside
/// the timing.
///
/// Every replay completes the same requests; the rate is taken at the
/// median replay time.
pub struct Replayer<'a> {
    setup: &'a ServeSetup,
    reference: Option<ServeOutcome>,
    replay_s: Vec<f64>,
}

impl<'a> Replayer<'a> {
    /// Runs the reference replay.
    pub fn new(setup: &'a ServeSetup, report: &mut JobReport) -> Self {
        let reference = match replay_other_threads(setup) {
            Ok(outcome) => Some(outcome),
            Err(err) => {
                report.errors.push(format!("serve: reference replay failed: {err}"));
                None
            }
        };
        Replayer { setup, reference, replay_s: Vec::new() }
    }

    /// Replays completed so far.
    pub fn replays(&self) -> usize {
        self.replay_s.len()
    }

    /// One cold, timed replay.
    pub fn replay(&mut self, report: &mut JobReport) {
        let Some(reference) = &self.reference else { return };
        let sent = self.setup.trace.len() as u64;
        let sim = ServeSim::synthetic(SCENES, &self.setup.config);
        let t = CpuInstant::now();
        let outcome = sim.and_then(|mut sim| sim.run_trace(&self.setup.trace));
        let dt = t.elapsed_s();
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(err) => {
                report.errors.push(format!("serve: replay failed: {err}"));
                return;
            }
        };
        report.check(outcome.completed + outcome.rejected == sent, || {
            format!(
                "serve: {} completed + {} rejected != {sent} sent",
                outcome.completed, outcome.rejected
            )
        });
        report.check(outcome.response_checksum == reference.response_checksum, || {
            format!(
                "serve: checksum {:016x} differs from the reference replay's {:016x}",
                outcome.response_checksum, reference.response_checksum
            )
        });
        self.replay_s.push(dt);
        report.attempted += sent;
        report.failed += outcome.rejected;
    }

    /// Reports the job's metrics.
    pub fn finish(self, report: &mut JobReport) {
        let Some(reference) = self.reference else { return };
        let n = self.replay_s.len();
        let rps = ratio(reference.completed as f64, median(&self.replay_s).unwrap_or(0.0));
        report.put_sampled("serve_rps", "1/s", rps, n);
        let ms: Vec<f64> = self.replay_s.iter().map(|s| s * 1e3).collect();
        report.note_summary("serve replay time", "ms", Summary::of(&ms));
        report.notes.push(format!(
            "serve simulated: p50 {} p99 {} latency cycles, {:.1} rps, hit rate {:.4}, \
             checksum {:016x}",
            reference.latency_percentile(0.5),
            reference.latency_percentile(0.99),
            reference.throughput_rps(CLOCK_HZ),
            reference.hit_rate(),
            reference.response_checksum
        ));
    }
}

/// What a staged replay produced.
#[derive(Debug, Default)]
struct Staged {
    latencies: Vec<u64>,
    checksum: u64,
    completed: u64,
    rejected: u64,
    queue_depths: Vec<f64>,
    batches: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a fold of a frame's pixel bits (the scheduler's response
/// checksum).
fn fold_pixels(mut hash: u64, pixels: &[Vec3]) -> u64 {
    for p in pixels {
        for bits in [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()] {
            hash ^= u64::from(bits);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The orbit camera path requests replay (`ServeSim::new`'s).
fn path_cameras(config: &ServeConfig) -> Vec<Camera> {
    let resolution = config.resolution.max(1);
    orbit_poses(Vec3::new(0.5, 0.4, 0.5), 1.25, config.path_len.max(1))
        .iter()
        .map(|&pose| Camera::new(pose, resolution, resolution, config.fov_y))
        .collect()
}

/// `ServeSim::run_trace`'s event loop, calling the queue, the registry
/// and the render kernel one layer at a time.
struct StagedSim<'a> {
    setup: &'a ServeSetup,
    registry: SceneRegistry,
    queue: AdmissionQueue,
    path: Vec<Camera>,
    executors: Vec<u64>,
    out: Staged,
}

impl<'a> StagedSim<'a> {
    fn new(setup: &'a ServeSetup) -> Result<Self, ServeError> {
        let config = &setup.config;
        Ok(StagedSim {
            setup,
            registry: SceneRegistry::new(&setup.store, config.budget_bytes)?,
            queue: AdmissionQueue::new(setup.store.len(), config.queue_capacity.max(1)),
            path: path_cameras(config),
            executors: vec![0; config.executors.max(1)],
            out: Staged { checksum: FNV_OFFSET, ..Staged::default() },
        })
    }

    fn admit_until(&mut self, next: usize, now: u64, seq: &mut u64, tracer: &mut Tracer) -> usize {
        let StagedSim { queue, out, setup, .. } = self;
        tracer.time("serve/admit", Layer::Queue, || {
            let mut next = next;
            while let Some(request) = setup.trace.get(next) {
                if request.cycle > now {
                    break;
                }
                let ticket = Ticket { arrival_cycle: request.cycle, pose: request.pose, seq: *seq };
                *seq += 1;
                queue.admit(request.scene, ticket);
                out.queue_depths.push(queue.queued() as f64);
                next += 1;
            }
            next
        })
    }

    fn run(mut self, tracer: &mut Tracer) -> Result<Staged, ServeError> {
        let config = self.setup.config;
        let trace = &self.setup.trace;
        let max_batch = config.max_batch.max(1);
        let mut batch: Vec<Ticket> = Vec::with_capacity(max_batch);
        let (mut seq, mut next, mut now) = (0u64, 0usize, 0u64);
        while next < trace.len() || !self.queue.is_empty() {
            if self.queue.is_empty() {
                now = now.max(trace.get(next).map_or(now, |r| r.cycle));
            }
            next = self.admit_until(next, now, &mut seq, tracer);
            if self.queue.is_empty() {
                continue;
            }
            let (free_at, executor) = self
                .executors
                .iter()
                .copied()
                .enumerate()
                .map(|(k, busy_until)| (busy_until, k))
                .min()
                .unwrap_or((0, 0));
            if free_at > now {
                now = free_at;
                next = self.admit_until(next, now, &mut seq, tracer);
            }
            let queue = &mut self.queue;
            let Some(scene) =
                tracer.time("serve/oldest_scene", Layer::Queue, || queue.oldest_scene())
            else {
                continue;
            };
            let (registry, store) = (&mut self.registry, &self.setup.store);
            let id = tracer.begin("serve/ensure_resident");
            let resident = registry.ensure_resident(store, scene);
            let ns = tracer.end(id);
            let (hit, loaded) = resident?;
            tracer.attribute(if hit { Layer::Registry } else { Layer::Io }, ns);
            let load_cycles =
                if hit { 0 } else { loaded.div_ceil(config.load_bytes_per_cycle.max(1)) };
            let queue = &mut self.queue;
            tracer.time("serve/pop_batch", Layer::Queue, || {
                queue.pop_batch_into(scene, max_batch, &mut batch)
            });
            let registry = &mut self.registry;
            tracer.time("serve/touch", Layer::Registry, || registry.touch(scene));
            let Some((model, occupancy)) = self.registry.scene(scene) else { continue };
            let pipeline = PipelineConfig {
                background: self.setup.store.background(scene).unwrap_or(Vec3::ONE),
                ..PipelineConfig::default()
            };
            let path_len = self.path.len().max(1);
            let cameras: Vec<Camera> = batch
                .iter()
                .filter_map(|t| self.path.get(t.pose as usize % path_len).copied())
                .collect();
            let (frames, samples) =
                render_views_staged(model, occupancy, &cameras, &pipeline, tracer);
            let mut done = now + load_cycles + config.batch_overhead_cycles;
            for (k, ticket) in batch.iter().enumerate() {
                done += samples.get(k).copied().unwrap_or(0) * config.cycles_per_sample
                    + config.request_overhead_cycles;
                self.out.latencies.push(done.saturating_sub(ticket.arrival_cycle));
                if let Some(frame) = frames.get(k) {
                    self.out.checksum = fold_pixels(self.out.checksum, frame);
                }
            }
            self.out.batches += 1;
            if let Some(slot) = self.executors.get_mut(executor) {
                *slot = done;
            }
        }
        self.out.completed = self.out.latencies.len() as u64;
        self.out.rejected = self.queue.stats().rejected;
        Ok(self.out)
    }
}

/// `render_views_into` through [`Stages`]: one chunk per pixel row of
/// every view. Returns each view's frame and retained-sample count.
fn render_views_staged(
    model: &NerfModel,
    occupancy: &OccupancyGrid,
    cameras: &[Camera],
    config: &PipelineConfig,
    tracer: &mut Tracer,
) -> (Vec<Vec<Vec3>>, Vec<u64>) {
    let rows: Vec<(usize, u32)> = cameras
        .iter()
        .enumerate()
        .flat_map(|(view, camera)| (0..camera.height()).map(move |y| (view, y)))
        .collect();
    let pool = Pool::new();
    let chunks = tracer.dispatch(pool.threads(), || {
        let chunks = pool.parallel_chunks_with(
            rows.len(),
            1,
            Stages::default,
            |_, range, stages: &mut Stages| {
                stages.chunk(|stages| {
                    let (view, y) = rows[range.start];
                    let mut samples = 0u64;
                    let row: Vec<Vec3> = cameras.get(view).map_or_else(Vec::new, |camera| {
                        (0..camera.width())
                            .map(|x| {
                                let ray = camera.ray_for_pixel(x, y);
                                let background = config.background;
                                let (pixel, _) = stages.shade(
                                    model,
                                    occupancy,
                                    &config.sampler,
                                    &ray,
                                    background,
                                    config.early_stop,
                                    false,
                                );
                                samples += stages.sample_count() as u64;
                                pixel
                            })
                            .collect()
                    });
                    (view, y, row, samples)
                })
            },
        );
        let mut outputs = Vec::with_capacity(chunks.len());
        let mut times = Vec::with_capacity(chunks.len());
        for (output, chunk) in chunks {
            outputs.push(output);
            times.push(chunk);
        }
        (outputs, times)
    });
    let mut frames: Vec<Vec<Vec3>> =
        cameras.iter().map(|c| vec![Vec3::ZERO; (c.width() * c.height()) as usize]).collect();
    let mut samples = vec![0u64; cameras.len()];
    for (view, y, row, s) in chunks {
        let start = y as usize * row.len();
        if let Some(dst) = frames.get_mut(view).and_then(|f| f.get_mut(start..start + row.len())) {
            dst.copy_from_slice(&row);
        }
        if let Some(slot) = samples.get_mut(view) {
            *slot += s;
        }
    }
    (frames, samples)
}

/// The traced job: cold replays through [`StagedSim`], checked against
/// `ServeSim::run_trace` — same responses, latencies and counters — and
/// timed against it for the tracing overhead.
pub fn run_traced(setup: &ServeSetup, scale: &Scale, limits: &HostLimits) -> JobReport {
    let mut report = JobReport::default();
    let mut tracer = Tracer::default();
    let t = Instant::now();
    let reference = match replay(setup) {
        Ok(outcome) => outcome,
        Err(err) => {
            report.errors.push(format!("serve: reference replay failed: {err}"));
            return report;
        }
    };
    let untraced_s = t.elapsed().as_secs_f64();
    let (mut replays, mut wall_ns, mut first_s) = (0usize, 0u64, 0.0);
    let mut last = Staged::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < scale.seconds / 2.0 || replays < scale.min_replays {
        let sim = match StagedSim::new(setup) {
            Ok(sim) => sim,
            Err(err) => {
                report.errors.push(format!("serve: staged setup failed: {err}"));
                return report;
            }
        };
        let span = tracer.begin("serve/replay");
        let t = Instant::now();
        let outcome = sim.run(&mut tracer);
        let dt = t.elapsed();
        tracer.end(span);
        last = match outcome {
            Ok(staged) => staged,
            Err(err) => {
                report.errors.push(format!("serve: staged replay failed: {err}"));
                return report;
            }
        };
        if replays == 0 {
            first_s = dt.as_secs_f64();
        }
        wall_ns += dt.as_nanos() as u64;
        replays += 1;
        report.attempted += setup.trace.len() as u64;
        report.failed += last.rejected;
    }
    report.check(
        last.checksum == reference.response_checksum
            && last.latencies == reference.latencies
            && last.completed == reference.completed
            && last.rejected == reference.rejected,
        || "serve: staged replay differs from ServeSim::run_trace".to_string(),
    );
    let model = NerfModel::new(
        setup.store.config(SceneId(0)).copied().unwrap_or_default(),
        &mut rand::rngs::SmallRng::seed_from_u64(0),
    );
    stage_metrics(&mut report, "serve", &tracer, &model, limits, serve_keep_ratio(setup));
    let t = &tracer.layers;
    let replays_f = replays.max(1) as f64;
    report.put("serve.nerf.io.decode_s", "s", t.seconds(Layer::Io));
    report.put("serve.nerf.io.decodes", "count", t.calls(Layer::Io) as f64);
    report.put("serve.nerf.io.bytes", "bytes", reference.bytes_loaded as f64 * replays_f);
    report.put("serve.registry.hit_rate", "ratio", reference.hit_rate());
    report.put("serve.registry.misses", "count", reference.misses as f64);
    report.put("serve.registry.evictions", "count", reference.evictions as f64);
    report.put("serve.registry.bytes_loaded", "bytes", reference.bytes_loaded as f64);
    report.put(
        "serve.queue.depth_p99",
        "requests",
        percentile(&last.queue_depths, 99.0).unwrap_or(0.0),
    );
    report.put("serve.queue.rejected", "count", reference.rejected as f64);
    report.put(
        "serve.queue.batch_size_mean",
        "requests",
        ratio(last.completed as f64, last.batches as f64),
    );
    report.put(
        "serve.scheduler.sim_latency_p50_cycles",
        "cycles",
        reference.latency_percentile(0.5) as f64,
    );
    report.put(
        "serve.scheduler.sim_latency_p99_cycles",
        "cycles",
        reference.latency_percentile(0.99) as f64,
    );
    report.put("serve.scheduler.sim_rps", "1/s", reference.throughput_rps(CLOCK_HZ));
    let attributed = t.seconds(Layer::Io) + tracer.dispatch_wall_ns as f64 * 1e-9;
    report.put("serve.scheduler.other_s", "s", (wall_ns as f64 * 1e-9 - attributed).max(0.0));
    par_and_trace_metrics(
        &mut report,
        "serve",
        &tracer,
        wall_ns,
        overhead_pct(first_s, untraced_s),
    );
    report.spans = tracer.spans_jsonl("serve");
    report
}

/// Retained samples over lattice steps of every scene's first path
/// view, against the scene's decoded occupancy grid.
fn serve_keep_ratio(setup: &ServeSetup) -> f64 {
    let Ok(mut registry) = SceneRegistry::new(&setup.store, u64::MAX) else { return 0.0 };
    let Some(camera) = path_cameras(&setup.config).first().copied() else { return 0.0 };
    let sampler = PipelineConfig::default().sampler;
    let mut workloads = Vec::new();
    for k in 0..setup.store.len() as u32 {
        if registry.ensure_resident(&setup.store, SceneId(k)).is_ok() {
            if let Some((_, occupancy)) = registry.scene(SceneId(k)) {
                workloads.extend(trace_frame(occupancy, &camera, &sampler).workloads);
            }
        }
    }
    keep_ratio(&workloads)
}
