//! `reconstruct`: train all eight synthetic scenes from scratch — the
//! paper's instant-reconstruction path, and the only job that runs the
//! backward pass, Adam and occupancy refreshes.
//!
//! Each scene trains a fresh default model with the default trainer
//! for a fixed iteration budget on 20 of 24 seeded orbit views, and is
//! scored on the 4 held-out views every [`Scale::eval_every`] steps,
//! outside the timed region. A scene whose held-out PSNR never reaches
//! [`TARGET_PSNR_DB`] is a failed operation, charged its whole budget
//! in `train_to_psnr_s`.
//!
//! `train_to_psnr_s` therefore sums, over scenes, the step time spent
//! until held-out PSNR reaches the target. The step is read off the
//! first evaluation at or above the target by linear interpolation from
//! the evaluation before it, so that it does not jump by whole
//! evaluation intervals from one seed to the next.

use crate::clock::CpuInstant;
use crate::field::Stages;
use crate::inputs::{self, Stream};
use crate::layers::{keep_ratio, overhead_pct, par_and_trace_metrics, ratio, stage_metrics};
use crate::report::JobReport;
use crate::roofline::{adam_work, HostLimits};
use crate::spans::{Layer, Tracer};
use crate::stats::Summary;
use crate::Scale;
use fusion3d_nerf::dataset::Dataset;
use fusion3d_nerf::model::{ModelGrads, ModelOptimizer, NerfModel};
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::sampler::sample_ray;
use fusion3d_nerf::scenes::SyntheticScene;
use fusion3d_nerf::trainer::{Trainer, TrainerConfig};
use fusion3d_par::Pool;
use rand::rngs::SmallRng;
use std::time::Instant;

/// Held-out PSNR a scene must reach, fixed before any scene was
/// trained: a reconstruction recognisably close to the ground truth.
/// It is not tuned to the scenes — those that miss it are reported as
/// failed.
pub const TARGET_PSNR_DB: f64 = 20.0;

/// Gradient shards per training batch (`Trainer::step`'s sharding).
const GRAD_SHARDS: usize = 16;

/// One scene's training and held-out views.
#[derive(Debug)]
pub struct SceneData {
    /// The scene.
    pub scene: SyntheticScene,
    /// Training views.
    pub train: Dataset,
    /// Held-out views.
    pub test: Dataset,
}

/// Builds the training data of the first `scale.scenes` scenes.
pub fn setup(seed: u64, scale: &Scale) -> Vec<SceneData> {
    SyntheticScene::ALL
        .iter()
        .take(scale.scenes)
        .map(|&scene| {
            let (train, test) = inputs::training_split(scene, seed);
            SceneData { scene, train, test }
        })
        .collect()
}

/// One scene's training in the untraced job.
struct SceneRun<'a> {
    data: &'a SceneData,
    trainer: Trainer,
    rng: SmallRng,
    step_ms: Vec<f64>,
    reached: Option<f64>,
    psnr: f64,
    evaluated_at: u32,
}

/// The untraced job: every scene through `Trainer::step`, advanced a
/// few steps per scene at a time so that the run can interleave it
/// with the other jobs.
///
/// Step times are summed, not taken at a median: step cost falls by up
/// to four times as occupancy refreshes prune empty space, by an amount
/// and at a pace that depend on the seed, so the median lands on either
/// side of that fall. Between two seeds the sum of the eight scenes'
/// median step times moved by 32 %, the sum of their mean step times
/// by 3 %.
pub struct Training<'a> {
    scenes: Vec<SceneRun<'a>>,
    iteration: u32,
}

impl<'a> Training<'a> {
    /// Fresh trainers for every scene.
    pub fn new(data: &'a [SceneData], seed: u64) -> Self {
        let scenes = data
            .iter()
            .enumerate()
            .map(|(index, data)| SceneRun {
                data,
                trainer: Trainer::new(inputs::model(seed, index), TrainerConfig::default()),
                rng: inputs::rng(seed, Stream::Batches, index),
                step_ms: Vec::new(),
                reached: None,
                psnr: 0.0,
                evaluated_at: 0,
            })
            .collect();
        Training { scenes, iteration: 0 }
    }

    /// Whether every scene has trained its whole budget.
    pub fn done(&self, scale: &Scale) -> bool {
        self.iteration >= scale.train_budget
    }

    /// Trains every scene `steps` more steps (up to the budget),
    /// evaluating held-out PSNR outside the timing when due.
    pub fn advance(&mut self, steps: u32, scale: &Scale, report: &mut JobReport) {
        let end = (self.iteration + steps).min(scale.train_budget);
        for scene in &mut self.scenes {
            for iteration in self.iteration + 1..=end {
                let start = CpuInstant::now();
                let stats = scene.trainer.step(&scene.data.train, &mut scene.rng);
                scene.step_ms.push(start.elapsed_s() * 1e3);
                report.check(stats.loss.is_finite(), || {
                    format!("reconstruct: {} loss is not finite", scene.data.scene.name())
                });
                if iteration % scale.eval_every == 0 || iteration == scale.train_budget {
                    let psnr = scene.trainer.evaluate_psnr(&scene.data.test);
                    if scene.reached.is_none() && psnr >= TARGET_PSNR_DB {
                        let before =
                            (scene.evaluated_at > 0).then_some((scene.evaluated_at, scene.psnr));
                        scene.reached = Some(crossing_step(before, (iteration, psnr)));
                    }
                    (scene.evaluated_at, scene.psnr) = (iteration, psnr);
                }
            }
        }
        self.iteration = end;
    }

    /// Reports the job's metrics.
    pub fn finish(self, report: &mut JobReport) {
        let (mut step_ms, mut budget_s, mut to_target_s, mut psnr_sum) =
            (Vec::new(), 0.0, 0.0, 0.0);
        let scenes = self.scenes.len();
        for scene in self.scenes {
            report.attempted += 1;
            if scene.reached.is_none() {
                report.failed += 1;
            }
            budget_s += scene.step_ms.iter().sum::<f64>() * 1e-3;
            let reached = scene.reached.unwrap_or(f64::from(self.iteration));
            to_target_s += time_through(&scene.step_ms, reached) * 1e-3;
            psnr_sum += scene.psnr;
            report.notes.push(format!(
                "reconstruct {}: held-out {:.2} dB after {} steps, target {TARGET_PSNR_DB} dB {}",
                scene.data.scene.name(),
                scene.psnr,
                self.iteration,
                scene.reached.map_or("missed".to_string(), |it| format!("reached at step {it:.1}")),
            ));
            step_ms.extend(scene.step_ms);
        }
        let steps = step_ms.len();
        report.put_sampled("train_steps_per_s", "1/s", ratio(steps as f64, budget_s), steps);
        report.put_sampled("train_to_psnr_s", "s", to_target_s, steps);
        report.put_sampled("train_psnr_db", "dB", ratio(psnr_sum, scenes as f64), scenes);
        report.note_summary("reconstruct step time", "ms", Summary::of(&step_ms));
    }
}

/// The step at which held-out PSNR crossed [`TARGET_PSNR_DB`], given
/// the evaluation `at` that first reached it and the evaluation
/// `before` it, if any: the linear interpolation between the two, or
/// `at`'s step when there is no earlier evaluation.
fn crossing_step(before: Option<(u32, f64)>, at: (u32, f64)) -> f64 {
    let (step, psnr) = (f64::from(at.0), at.1);
    match before {
        Some((prev_step, prev_psnr)) if prev_psnr < TARGET_PSNR_DB && psnr > prev_psnr => {
            let prev_step = f64::from(prev_step);
            let t = (TARGET_PSNR_DB - prev_psnr) / (psnr - prev_psnr);
            prev_step + t * (step - prev_step)
        }
        _ => step,
    }
}

/// Time of the first `steps` of `step_ms`, a fractional step counting
/// that share of the next step's time.
fn time_through(step_ms: &[f64], steps: f64) -> f64 {
    let whole = (steps.max(0.0) as usize).min(step_ms.len());
    let part = step_ms.get(whole).map_or(0.0, |next| (steps - whole as f64) * next);
    step_ms[..whole].iter().sum::<f64>() + part
}

/// `Trainer::step` called one layer at a time.
struct StagedTrainer {
    model: NerfModel,
    occupancy: OccupancyGrid,
    optimizer: ModelOptimizer,
    grads: ModelGrads,
    shards: Vec<(Stages, ModelGrads)>,
    config: TrainerConfig,
    iteration: u32,
    params_updated: u64,
}

impl StagedTrainer {
    fn new(model: NerfModel, config: TrainerConfig) -> Self {
        let mut occupancy =
            OccupancyGrid::new(config.occupancy_resolution, config.occupancy_threshold);
        occupancy.fill();
        StagedTrainer {
            optimizer: ModelOptimizer::new(config.adam, &model),
            grads: model.alloc_grads(),
            model,
            occupancy,
            shards: Vec::new(),
            config,
            iteration: 0,
            params_updated: 0,
        }
    }

    fn staged_step(&mut self, dataset: &Dataset, rng: &mut SmallRng, tracer: &mut Tracer) {
        let config = self.config;
        let it = self.iteration;
        if config.lr_decay != 1.0
            && config.lr_decay_interval > 0
            && it > 0
            && it.is_multiple_of(config.lr_decay_interval)
        {
            let decays = it / config.lr_decay_interval;
            self.optimizer
                .set_learning_rate(config.adam.learning_rate * config.lr_decay.powi(decays as i32));
        }
        if it >= config.occupancy_warmup && it.is_multiple_of(config.occupancy_update_interval) {
            let StagedTrainer { model, occupancy, .. } = self;
            tracer.time("nerf/occupancy_update", Layer::Occupancy, || {
                occupancy.update(|p| model.density_at(p), config.occupancy_decay, rng)
            });
        }
        let batch = tracer.time("nerf/sample_batch", Layer::Model, || {
            dataset.sample_batch(config.rays_per_batch, rng)
        });
        let max_shards = GRAD_SHARDS.min(batch.len()).max(1);
        let rays_per_shard = batch.len().div_ceil(max_shards);
        let shard_count = batch.len().div_ceil(rays_per_shard.max(1)).max(1);
        while self.shards.len() < shard_count {
            self.shards.push((Stages::default(), self.model.alloc_grads()));
        }
        let inv_norm = 1.0 / (batch.len() as f32 * 3.0);
        let StagedTrainer { model, occupancy, shards, .. } = self;
        let (model, occupancy): (&NerfModel, &OccupancyGrid) = (model, occupancy);
        let pool = Pool::new();
        tracer.dispatch(pool.threads(), || {
            let chunks = pool.run_tasks(&mut shards[..shard_count], |index, (stages, grads)| {
                stages
                    .chunk(|stages| {
                        grads.zero();
                        let start = (index * rays_per_shard).min(batch.len());
                        let end = (start + rays_per_shard).min(batch.len());
                        for (ray, target) in &batch[start..end] {
                            let (color, _) = stages.shade(
                                model,
                                occupancy,
                                &config.sampler,
                                ray,
                                config.background,
                                false,
                                true,
                            );
                            let d_pixel = (color - *target) * (2.0 * inv_norm);
                            stages.backward(model, config.background, d_pixel, grads);
                        }
                    })
                    .1
            });
            ((), chunks)
        });
        let StagedTrainer { grads, shards, model, optimizer, .. } = self;
        tracer.time("nerf/grad_merge", Layer::Model, || {
            grads.zero();
            for (_, shard) in &shards[..shard_count] {
                grads.accumulate(shard);
            }
        });
        tracer.time("nerf/adam_step", Layer::Adam, || optimizer.step(model, grads));
        self.params_updated += self.model.param_count() as u64;
        self.iteration += 1;
    }
}

fn same_params(a: &NerfModel, b: &NerfModel) -> bool {
    let bits = |m: &NerfModel| -> Vec<u32> {
        [m.grid().params(), m.density_mlp().params(), m.color_mlp().params()]
            .iter()
            .flat_map(|p| p.iter().map(|x| x.to_bits()))
            .collect()
    };
    bits(a) == bits(b)
}

/// The traced job: every scene through [`StagedTrainer`], plus the
/// first scene through `Trainer::step` untraced, which must end with
/// bitwise the same parameters and gives the tracing overhead.
pub fn run_traced(data: &[SceneData], seed: u64, scale: &Scale, limits: &HostLimits) -> JobReport {
    let mut report = JobReport::default();
    let mut tracer = Tracer::default();
    let mut wall_ns = 0u64;
    let mut overhead = 0.0;
    let (mut occupied, mut probe, mut params) = (0.0, Vec::new(), 0u64);
    for (index, scene) in data.iter().enumerate() {
        let mut trainer = StagedTrainer::new(inputs::model(seed, index), TrainerConfig::default());
        let mut rng = inputs::rng(seed, Stream::Batches, index);
        let start = Instant::now();
        for _ in 0..scale.train_budget {
            let step = tracer.begin("reconstruct/step");
            trainer.staged_step(&scene.train, &mut rng, &mut tracer);
            tracer.end(step);
        }
        let elapsed = start.elapsed();
        wall_ns += elapsed.as_nanos() as u64;
        if index == 0 {
            let mut reference = Trainer::new(inputs::model(seed, 0), TrainerConfig::default());
            let mut rng = inputs::rng(seed, Stream::Batches, 0);
            let start = Instant::now();
            for _ in 0..scale.train_budget {
                reference.step(&scene.train, &mut rng);
            }
            let untraced_s = start.elapsed().as_secs_f64();
            report.check(same_params(reference.model(), &trainer.model), || {
                "reconstruct: staged training diverged from Trainer::step".to_string()
            });
            overhead = overhead_pct(elapsed.as_secs_f64(), untraced_s);
        }
        occupied += trainer.occupancy.occupancy_ratio();
        let mut probe_rng = inputs::rng(seed, Stream::CheckRows, index);
        for (ray, _) in scene.train.sample_batch(trainer.config.rays_per_batch, &mut probe_rng) {
            probe.push(sample_ray(&ray, &trainer.occupancy, &trainer.config.sampler).1);
        }
        params += trainer.params_updated;
        report.attempted += 1;
    }
    let shape = inputs::model(seed, 0);
    stage_metrics(&mut report, "reconstruct", &tracer, &shape, limits, keep_ratio(&probe));
    let t = &tracer.layers;
    report.put("reconstruct.nerf.backward.s", "s", t.seconds(Layer::Backward));
    report.put("reconstruct.nerf.backward.points", "count", tracer.counts.backward_points as f64);
    report.put("reconstruct.nerf.adam.s", "s", t.seconds(Layer::Adam));
    report.put("reconstruct.nerf.adam.params", "count", params as f64);
    report.put(
        "reconstruct.nerf.adam.roofline_pct",
        "%",
        limits.percent(adam_work(params), t.seconds(Layer::Adam)),
    );
    report.put("reconstruct.nerf.occupancy.s", "s", t.seconds(Layer::Occupancy));
    report.put("reconstruct.nerf.occupancy.refreshes", "count", t.calls(Layer::Occupancy) as f64);
    report.put(
        "reconstruct.nerf.occupancy.occupied_ratio",
        "ratio",
        ratio(occupied, data.len() as f64),
    );
    par_and_trace_metrics(&mut report, "reconstruct", &tracer, wall_ns, overhead);
    report.spans = tracer.spans_jsonl("reconstruct");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_step_interpolates_between_evaluations() {
        let target = TARGET_PSNR_DB;
        assert_eq!(crossing_step(Some((40, target - 1.0)), (60, target + 1.0)), 50.0);
        assert_eq!(crossing_step(Some((40, target - 3.0)), (60, target + 1.0)), 55.0);
        assert_eq!(crossing_step(Some((40, target - 1.0)), (60, target)), 60.0);
        assert_eq!(crossing_step(None, (20, target + 5.0)), 20.0);
    }

    #[test]
    fn time_through_counts_whole_and_partial_steps() {
        let steps = [4.0, 2.0, 1.0];
        assert_eq!(time_through(&steps, 0.0), 0.0);
        assert_eq!(time_through(&steps, 2.0), 6.0);
        assert_eq!(time_through(&steps, 1.5), 5.0);
        assert_eq!(time_through(&steps, 3.0), 7.0);
        assert_eq!(time_through(&steps, 9.0), 7.0);
    }
}
