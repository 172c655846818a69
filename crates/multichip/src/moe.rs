//! The Mixture-of-Experts NeRF model (Technique T3, Level-1 Tiling).
//!
//! Instead of one large model, the scene is learned by `N` complete
//! small models ("experts"), one per chip, each with its own hash
//! tables and — crucially — its own occupancy grid, which acts as the
//! MoE *gating function* the paper identifies in the NeRF pipeline
//! itself. A pixel is produced by compositing each expert's samples
//! independently on its chip and *adding* the per-expert pixel values
//! in the I/O module:
//!
//! ```text
//! C = Σ_e C_e + background · Π_e T_e
//! ```
//!
//! where `C_e` is expert `e`'s composited radiance (black background)
//! and `T_e` its residual transmittance. Only per-pixel partial sums
//! ever cross chips, which is what slashes chip-to-chip communication
//! by ~94 % (Fig. 12(a)). During training, gradients flow to each
//! expert through its own compositing (including the shared
//! background product), and the per-expert occupancy grids gradually
//! prune the regions an expert does not own — the specialization
//! visualized in the paper's Fig. 8.

use fusion3d_nerf::adam::AdamConfig;
use fusion3d_nerf::camera::Camera;
use fusion3d_nerf::dataset::Dataset;
use fusion3d_nerf::encoding::{Encoding, HashGrid};
use fusion3d_nerf::image::Image;
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::model::{ModelConfig, ModelGrads, ModelOptimizer, NerfModel};
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::pipeline::{render_radiance, trace_frame, PipelineConfig};
use fusion3d_nerf::sampler::{RayWorkload, SamplerConfig};
use fusion3d_nerf::trainer::{TrainerConfig, TrainingRay};
use rand::Rng;

/// One expert: a complete small NeRF model plus its gating occupancy
/// grid, resident on one chip.
#[derive(Debug)]
pub struct Expert<E: Encoding = HashGrid> {
    /// The expert's field.
    pub model: NerfModel<E>,
    /// The expert's occupancy grid (the MoE gate).
    pub occupancy: OccupancyGrid,
}

/// A Mixture-of-Experts NeRF: `N` complete small models whose pixel
/// outputs are fused by addition. Generic over the experts' spatial
/// encoding — the paper applies the same Level-1 tiling to TensoRF's
/// dense grids (Sec. VI-C).
#[derive(Debug)]
pub struct MoeNerf<E: Encoding = HashGrid> {
    experts: Vec<Expert<E>>,
}

impl MoeNerf<HashGrid> {
    /// Creates `expert_count` experts of the given per-expert
    /// architecture, with all occupancy grids initially full.
    ///
    /// # Panics
    ///
    /// Panics if `expert_count` is zero.
    pub fn new<R: Rng>(
        expert_count: usize,
        per_expert: ModelConfig,
        occupancy_resolution: u32,
        occupancy_threshold: f32,
        rng: &mut R,
    ) -> Self {
        assert!(expert_count > 0, "MoE needs at least one expert");
        let experts = (0..expert_count)
            .map(|_| {
                let mut model = NerfModel::new(per_expert, rng);
                // Pixel values are summed across experts, so each
                // expert's initial density is scaled down by 1/N
                // (through the exponential activation's bias) to keep
                // the fused output at single-model brightness.
                *model.density_mlp_mut().output_bias_mut(0) -= (expert_count as f32).ln();
                let mut occupancy = OccupancyGrid::new(occupancy_resolution, occupancy_threshold);
                occupancy.fill();
                Expert { model, occupancy }
            })
            .collect();
        MoeNerf { experts }
    }

    /// Creates experts whose gates are seeded with an azimuthal
    /// partition of the model cube (equal sectors around the vertical
    /// axis, with a 10 % overlap band shared between neighbours).
    ///
    /// At the paper's training scale expert specialization emerges by
    /// itself (Fig. 8); at reduced scale a symmetric start can
    /// collapse onto a single expert, so the reproduction seeds the
    /// regional structure through the gates — the occupancy-gating
    /// feedback then maintains and refines it, since an expert is
    /// never supervised (and therefore never exceeds the gating
    /// density threshold) outside its region.
    ///
    /// # Panics
    ///
    /// Panics if `expert_count` is zero.
    pub fn with_partitioned_gates<R: Rng>(
        expert_count: usize,
        per_expert: ModelConfig,
        occupancy_resolution: u32,
        occupancy_threshold: f32,
        rng: &mut R,
    ) -> Self {
        assert!(expert_count > 0, "MoE needs at least one expert");
        let sector = std::f32::consts::TAU / expert_count as f32;
        let experts = (0..expert_count)
            .map(|e| {
                let model = NerfModel::new(per_expert, rng);
                let mut occupancy = OccupancyGrid::new(occupancy_resolution, occupancy_threshold);
                for cell in 0..occupancy.cell_count() {
                    let c = occupancy.cell_center(cell);
                    let angle = (c.z - 0.5).atan2(c.x - 0.5) + std::f32::consts::PI;
                    let center = (e as f32 + 0.5) * sector;
                    let mut d = (angle - center).abs();
                    if d > std::f32::consts::PI {
                        d = std::f32::consts::TAU - d;
                    }
                    occupancy.set_cell(cell, d <= sector * 0.6);
                }
                Expert { model, occupancy }
            })
            .collect();
        MoeNerf { experts }
    }
}

impl<E: Encoding> MoeNerf<E> {
    /// Builds an MoE from pre-constructed experts (any encoding).
    ///
    /// # Panics
    ///
    /// Panics if `experts` is empty.
    pub fn from_experts(experts: Vec<Expert<E>>) -> Self {
        assert!(!experts.is_empty(), "MoE needs at least one expert");
        MoeNerf { experts }
    }

    /// The experts.
    pub fn experts(&self) -> &[Expert<E>] {
        &self.experts
    }

    /// Number of experts (chips).
    pub fn expert_count(&self) -> usize {
        self.experts.len()
    }

    /// Total learnable parameters across all experts.
    pub fn param_count(&self) -> usize {
        self.experts.iter().map(|e| e.model.param_count()).sum()
    }

    /// Renders every expert's frame on its own, as its chip would:
    /// the single-chip pipeline over the expert's gate, with a black
    /// background and early stop off. Returns one raster-order
    /// `(color, transmittance)` frame per expert, in expert order.
    pub fn expert_frames(&self, camera: &Camera, sampler: &SamplerConfig) -> Vec<Vec<(Vec3, f32)>> {
        let config =
            PipelineConfig { sampler: *sampler, background: Vec3::ZERO, early_stop: false };
        self.experts
            .iter()
            .map(|e| render_radiance(&e.model, &e.occupancy, camera, &config))
            .collect()
    }

    /// Renders a full frame: the expert frames fused per pixel in
    /// expert order, `C = Σ_e C_e + background · Π_e T_e`.
    pub fn render_image(
        &self,
        camera: &Camera,
        sampler: &SamplerConfig,
        background: Vec3,
    ) -> Image {
        let frames = self.expert_frames(camera, sampler);
        let mut img = Image::new(camera.width(), camera.height());
        for (i, pixel) in img.pixels_mut().iter_mut().enumerate() {
            let mut color = Vec3::ZERO;
            let mut trans_product = 1.0f32;
            for frame in &frames {
                let (c, t) = frame[i];
                color += c;
                trans_product *= t;
            }
            *pixel = color + background * trans_product;
        }
        img
    }

    /// Captures per-expert (per-chip) Stage-I workloads for one frame,
    /// for the multi-chip workload-balance analysis.
    pub fn per_chip_workloads(
        &self,
        camera: &Camera,
        sampler: &SamplerConfig,
    ) -> Vec<Vec<RayWorkload>> {
        trace_gates(self.experts.iter().map(|e| &e.occupancy), camera, sampler)
    }
}

/// Every chip's Stage-I workload for one frame: the full camera ray
/// set marched through each gate in turn, one raster-order
/// [`RayWorkload`] list per gate.
pub fn trace_gates<'a>(
    gates: impl IntoIterator<Item = &'a OccupancyGrid>,
    camera: &Camera,
    sampler: &SamplerConfig,
) -> Vec<Vec<RayWorkload>> {
    gates.into_iter().map(|gate| trace_frame(gate, camera, sampler).workloads).collect()
}

/// Partitions a scene occupancy grid into `experts` per-chip gates,
/// emulating the *partial* spatial specialization MoE training
/// produces (Fig. 8: regions are dominated by one expert, but many are
/// shared by two or more). Cells deep inside another expert's
/// azimuthal sector (the inner half around its center) are pruned from
/// an expert's gate; boundary regions stay shared by all.
pub fn partition_occupancy(full: &OccupancyGrid, experts: usize) -> Vec<OccupancyGrid> {
    let mut grids: Vec<OccupancyGrid> =
        (0..experts).map(|_| OccupancyGrid::new(full.resolution(), full.threshold())).collect();
    if experts == 1 {
        grids[0] = full.clone();
        return grids;
    }
    let sector = std::f32::consts::TAU / experts as f32;
    for cell in full.occupied_cells() {
        let c = full.cell_center(cell);
        let angle = (c.z - 0.5).atan2(c.x - 0.5) + std::f32::consts::PI;
        for (e, grid) in grids.iter_mut().enumerate() {
            // Angular distance to each *other* expert's sector center.
            let strongly_owned_by_other = (0..experts).any(|m| {
                if m == e {
                    return false;
                }
                let center = (m as f32 + 0.5) * sector;
                let mut d = (angle - center).abs();
                if d > std::f32::consts::PI {
                    d = std::f32::consts::TAU - d;
                }
                d < 0.25 * sector
            });
            if !strongly_owned_by_other {
                grid.set_cell(cell, true);
            }
        }
    }
    grids
}

/// Trains a [`MoeNerf`] end to end with pixel-sum fusion.
#[derive(Debug)]
pub struct MoeTrainer<E: Encoding = HashGrid> {
    moe: MoeNerf<E>,
    optimizers: Vec<ModelOptimizer>,
    grads: Vec<ModelGrads>,
    /// One training-ray working set per expert: every expert's forward
    /// pass over a ray is retained until the fused pixel's backward
    /// pass.
    scratch: Vec<TrainingRay>,
    config: TrainerConfig,
    iteration: u32,
}

impl<E: Encoding> MoeTrainer<E> {
    /// Creates a trainer over an existing MoE model.
    pub fn new(moe: MoeNerf<E>, config: TrainerConfig, adam: AdamConfig) -> Self {
        let optimizers = moe.experts.iter().map(|e| ModelOptimizer::new(adam, &e.model)).collect();
        let grads = moe.experts.iter().map(|e| e.model.alloc_grads()).collect();
        let scratch = moe.experts.iter().map(|_| TrainingRay::new()).collect();
        MoeTrainer { moe, optimizers, grads, scratch, config, iteration: 0 }
    }

    /// The MoE model.
    pub fn moe(&self) -> &MoeNerf<E> {
        &self.moe
    }

    /// Iterations completed.
    pub fn iteration(&self) -> u32 {
        self.iteration
    }

    /// Consumes the trainer, returning the trained MoE.
    pub fn into_moe(self) -> MoeNerf<E> {
        self.moe
    }

    fn maybe_refresh_occupancy<R: Rng>(&mut self, rng: &mut R) {
        if self.iteration >= self.config.occupancy_warmup
            && self.iteration.is_multiple_of(self.config.occupancy_update_interval)
        {
            for expert in &mut self.moe.experts {
                let model = &expert.model;
                expert.occupancy.update(|p| model.density_at(p), self.config.occupancy_decay, rng);
            }
        }
    }

    /// One optimization step on a random ray batch.
    pub fn step<R: Rng>(&mut self, dataset: &Dataset, rng: &mut R) -> f64 {
        self.maybe_refresh_occupancy(rng);
        let batch = dataset.sample_batch(self.config.rays_per_batch, rng);
        for g in &mut self.grads {
            g.zero();
        }
        let mut loss_sum = 0.0f64;
        let inv_norm = 1.0 / (batch.len() as f32 * 3.0);
        // lint: allow(h2): one buffer per step, sized by the expert count
        let mut trans = vec![1.0f32; self.moe.experts.len()];

        for (ray, target) in &batch {
            // Forward each expert, retaining its samples and kernel
            // state in its own scratch.
            let mut color = Vec3::ZERO;
            for ((expert, scratch), t) in
                self.moe.experts.iter().zip(&mut self.scratch).zip(&mut trans)
            {
                // Named by type: the lint's call graph resolves a bare
                // `.forward(` to every `forward` method.
                let (c, transmittance) = TrainingRay::forward(
                    scratch,
                    &expert.model,
                    &expert.occupancy,
                    &self.config.sampler,
                    ray,
                    Vec3::ZERO,
                );
                color += c;
                *t = transmittance;
            }
            let trans_product: f32 = trans.iter().product();
            color += self.config.background * trans_product;

            let err = color - *target;
            loss_sum += (err.length_squared() / 3.0) as f64;
            let d_pixel = err * (2.0 * inv_norm);

            // Backward per expert: each expert sees the shared
            // background attenuated by the other experts'
            // transmittances, so composite_backward's background term
            // carries exactly ∂(bg · Π T)/∂(this expert).
            for (e, ((expert, scratch), grads)) in
                self.moe.experts.iter().zip(&mut self.scratch).zip(&mut self.grads).enumerate()
            {
                let others: f32 =
                    trans.iter().enumerate().filter(|&(j, _)| j != e).map(|(_, &t)| t).product();
                let effective_bg = self.config.background * others;
                scratch.backward(&expert.model, effective_bg, d_pixel, grads);
            }
        }

        for (expert, (opt, grads)) in
            self.moe.experts.iter_mut().zip(self.optimizers.iter_mut().zip(self.grads.iter()))
        {
            opt.step(&mut expert.model, grads);
        }
        self.iteration += 1;
        loss_sum / batch.len() as f64
    }

    /// Runs `iterations` steps, returning the mean loss of the final
    /// quarter.
    pub fn train<R: Rng>(&mut self, dataset: &Dataset, iterations: u32, rng: &mut R) -> f64 {
        let mut tail = Vec::new();
        for i in 0..iterations {
            let loss = self.step(dataset, rng);
            if i >= iterations - iterations.div_ceil(4) {
                tail.push(loss);
            }
        }
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        }
    }

    /// Mean PSNR of the MoE render against every dataset view.
    pub fn evaluate_psnr(&self, dataset: &Dataset) -> f64 {
        let mut total = 0.0;
        for view in dataset.views() {
            let rendered =
                self.moe.render_image(&view.camera, &self.config.sampler, self.config.background);
            total += rendered.psnr(&view.image);
        }
        total / dataset.views().len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion3d_nerf::camera::orbit_poses;
    use fusion3d_nerf::encoding::HashGridConfig;
    use fusion3d_nerf::math::Ray;
    use fusion3d_nerf::reference;
    use fusion3d_nerf::render::{composite, composite_backward, ShadedSample};
    use fusion3d_nerf::sampler::sample_ray;
    use fusion3d_nerf::scenes::{ProceduralScene, SyntheticScene};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_expert_config() -> ModelConfig {
        ModelConfig {
            grid: HashGridConfig {
                levels: 3,
                features_per_level: 2,
                log2_table_size: 9,
                base_resolution: 4,
                max_resolution: 16,
            },
            hidden_dim: 12,
            geo_feature_dim: 3,
        }
    }

    fn quick_trainer_config() -> TrainerConfig {
        TrainerConfig {
            rays_per_batch: 32,
            sampler: SamplerConfig { steps_per_diagonal: 32, max_samples_per_ray: 24 },
            occupancy_resolution: 12,
            occupancy_update_interval: 16,
            occupancy_warmup: 24,
            ..TrainerConfig::default()
        }
    }

    #[test]
    fn construction_and_capacity() {
        let mut rng = SmallRng::seed_from_u64(0);
        let moe = MoeNerf::new(4, small_expert_config(), 12, 0.5, &mut rng);
        assert_eq!(moe.expert_count(), 4);
        // Four experts hold four times one expert's parameters.
        let single = MoeNerf::new(1, small_expert_config(), 12, 0.5, &mut rng);
        assert_eq!(moe.param_count(), 4 * single.param_count());
    }

    #[test]
    #[should_panic(expected = "at least one expert")]
    fn zero_experts_rejected() {
        let mut rng = SmallRng::seed_from_u64(0);
        MoeNerf::new(0, small_expert_config(), 12, 0.5, &mut rng);
    }

    fn small_camera() -> Camera {
        Camera::new(orbit_poses(Vec3::splat(0.5), 1.2, 1)[0], 6, 6, 0.8)
    }

    #[test]
    fn empty_gates_render_pure_background() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut moe = MoeNerf::new(2, small_expert_config(), 8, 0.5, &mut rng);
        for e in &mut moe.experts {
            e.occupancy = OccupancyGrid::new(8, 0.5); // all empty
        }
        let bg = Vec3::new(0.2, 0.5, 0.8);
        let img = moe.render_image(&small_camera(), &SamplerConfig::default(), bg);
        assert!(img.pixels().iter().all(|&c| c == bg));
    }

    #[test]
    fn fusion_is_additive_across_experts() {
        // With a black background, the MoE pixel is the sum of the
        // per-expert pixels.
        let mut rng = SmallRng::seed_from_u64(2);
        let moe = MoeNerf::new(3, small_expert_config(), 8, 0.5, &mut rng);
        let camera = small_camera();
        let sampler = SamplerConfig::default();
        let img = moe.render_image(&camera, &sampler, Vec3::ZERO);
        for (x, y, ray) in camera.rays() {
            let mut manual = Vec3::ZERO;
            for expert in moe.experts() {
                let (_, shaded) = reference_shade(expert, &ray, &sampler);
                manual += composite(&shaded, Vec3::ZERO, false).color;
            }
            assert!((img.get(x, y) - manual).length() < 1e-5);
        }
    }

    /// One expert's samples along `ray`, shaded through the scalar
    /// oracle.
    fn reference_shade(
        expert: &Expert,
        ray: &Ray,
        sampler: &SamplerConfig,
    ) -> (Vec<Vec3>, Vec<ShadedSample>) {
        let (samples, _) = sample_ray(ray, &expert.occupancy, sampler);
        let positions: Vec<Vec3> = samples.iter().map(|s| s.position).collect();
        let (sigmas, colors) = reference::model_forward(&expert.model, &positions, ray.direction);
        let shaded = samples
            .iter()
            .zip(sigmas.iter().zip(&colors))
            .map(|(s, (&sigma, &color))| ShadedSample { sigma, color, dt: s.dt })
            .collect();
        (positions, shaded)
    }

    #[test]
    fn step_is_bitwise_the_reference_step() {
        // One MoeTrainer::step against the same step spelled out with
        // the scalar oracle: per ray, every expert's samples shaded by
        // reference::model_forward, fused, then backpropagated through
        // reference::model_backward and one Adam update per expert.
        let scene = ProceduralScene::synthetic(SyntheticScene::Lego);
        let dataset = Dataset::from_scene(&scene, 3, 16, 0.9);
        let config = quick_trainer_config();
        let adam = AdamConfig::default();
        let build =
            || MoeNerf::new(2, small_expert_config(), 12, 0.5, &mut SmallRng::seed_from_u64(5));
        let mut trainer = MoeTrainer::new(build(), config, adam);
        trainer.step(&dataset, &mut SmallRng::seed_from_u64(6));

        let mut moe = build();
        let batch = dataset.sample_batch(config.rays_per_batch, &mut SmallRng::seed_from_u64(6));
        let mut grads: Vec<ModelGrads> =
            moe.experts.iter().map(|e| e.model.alloc_grads()).collect();
        let inv_norm = 1.0 / (batch.len() as f32 * 3.0);
        for (ray, target) in &batch {
            let shaded: Vec<_> =
                moe.experts.iter().map(|e| reference_shade(e, ray, &config.sampler)).collect();
            let outs: Vec<_> =
                shaded.iter().map(|(_, s)| composite(s, Vec3::ZERO, false)).collect();
            let trans: Vec<f32> = outs.iter().map(|o| o.final_transmittance).collect();
            let mut color = Vec3::ZERO;
            for o in &outs {
                color += o.color;
            }
            color += config.background * trans.iter().product::<f32>();
            let d_pixel = (color - *target) * (2.0 * inv_norm);
            for (e, (expert, (positions, samples))) in moe.experts.iter().zip(&shaded).enumerate() {
                let others: f32 =
                    trans.iter().enumerate().filter(|&(j, _)| j != e).map(|(_, &t)| t).product();
                let sample_grads = composite_backward(samples, config.background * others, d_pixel);
                let d_sigma: Vec<f32> = sample_grads.iter().map(|g| g.d_sigma).collect();
                let d_color: Vec<Vec3> = sample_grads.iter().map(|g| g.d_color).collect();
                reference::model_backward(
                    &expert.model,
                    positions,
                    ray.direction,
                    &d_sigma,
                    &d_color,
                    &mut grads[e],
                );
            }
        }
        for (expert, g) in moe.experts.iter_mut().zip(&grads) {
            ModelOptimizer::new(adam, &expert.model).step(&mut expert.model, g);
        }

        for (a, b) in trainer.moe().experts().iter().zip(moe.experts()) {
            for (pa, pb) in [
                (a.model.grid().params(), b.model.grid().params()),
                (a.model.density_mlp().params(), b.model.density_mlp().params()),
                (a.model.color_mlp().params(), b.model.color_mlp().params()),
            ] {
                let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(pa), bits(pb), "expert parameters diverged from the oracle");
            }
        }
    }

    #[test]
    fn moe_training_reduces_loss() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Hotdog);
        let dataset = Dataset::from_scene(&scene, 4, 16, 0.9);
        let mut rng = SmallRng::seed_from_u64(3);
        let moe = MoeNerf::new(2, small_expert_config(), 12, 0.5, &mut rng);
        let mut trainer = MoeTrainer::new(moe, quick_trainer_config(), AdamConfig::default());
        let first: f64 = (0..3).map(|_| trainer.step(&dataset, &mut rng)).sum::<f64>() / 3.0;
        for _ in 0..60 {
            trainer.step(&dataset, &mut rng);
        }
        let last: f64 = (0..3).map(|_| trainer.step(&dataset, &mut rng)).sum::<f64>() / 3.0;
        // The 0.8 factor leaves headroom for the vendored RNG's
        // stream (see vendor/README.md), which shifts this margin
        // slightly; the substantial-decrease intent is unchanged.
        assert!(last < first * 0.8, "MoE loss should drop: {first} -> {last}");
        assert_eq!(trainer.iteration(), 66);
    }

    #[test]
    fn partitioned_gates_cover_and_specialize() {
        let mut rng = SmallRng::seed_from_u64(9);
        let moe = MoeNerf::with_partitioned_gates(4, small_expert_config(), 12, 0.5, &mut rng);
        // Every cell is owned by at least one expert, and no expert
        // owns everything.
        let total_cells = moe.experts()[0].occupancy.cell_count();
        for cell in 0..total_cells {
            assert!(
                moe.experts().iter().any(|e| e.occupancy.is_cell_occupied(cell)),
                "cell {cell} unowned"
            );
        }
        for (i, e) in moe.experts().iter().enumerate() {
            let r = e.occupancy.occupancy_ratio();
            assert!(r > 0.1 && r < 0.6, "expert {i} gate ratio {r}");
        }
    }

    #[test]
    fn partition_covers_and_overlaps() {
        let full = ProceduralScene::synthetic(SyntheticScene::Hotdog).occupancy_grid(32);
        let parts = partition_occupancy(&full, 4);
        assert_eq!(parts.len(), 4);
        // Every occupied cell is owned by at least one expert.
        for cell in full.occupied_cells() {
            assert!(parts.iter().any(|g| g.is_cell_occupied(cell)));
        }
        // Each expert holds a strict subset.
        let total: f64 = parts.iter().map(|g| g.occupancy_ratio()).sum();
        assert!(total >= full.occupancy_ratio());
        for p in &parts {
            assert!(p.occupancy_ratio() < full.occupancy_ratio());
        }
    }

    #[test]
    fn per_chip_workloads_have_frame_shape() {
        let mut rng = SmallRng::seed_from_u64(4);
        let moe = MoeNerf::new(3, small_expert_config(), 8, 0.5, &mut rng);
        let pose = fusion3d_nerf::camera::orbit_poses(Vec3::splat(0.5), 1.2, 1)[0];
        let cam = fusion3d_nerf::camera::Camera::new(pose, 8, 8, 0.8);
        let per_chip = moe.per_chip_workloads(&cam, &SamplerConfig::default());
        assert_eq!(per_chip.len(), 3);
        for chip in &per_chip {
            assert_eq!(chip.len(), 64);
        }
    }
}
