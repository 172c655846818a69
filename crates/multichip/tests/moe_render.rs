//! The MoE renders and traces through `fusion3d-nerf`'s one sampler
//! and tile routine. These tests pin both to the per-ray code the
//! experts used to run on their own, bit for bit.

use fusion3d_multichip::moe::{partition_occupancy, trace_gates, Expert, MoeNerf};
use fusion3d_nerf::batch::{KernelScratch, SampleBatch};
use fusion3d_nerf::camera::{orbit_poses, Camera};
use fusion3d_nerf::dense_grid::{DenseGrid, DenseGridConfig};
use fusion3d_nerf::encoding::{Encoding, HashGridConfig};
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::model::{ModelConfig, NerfModel};
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::render::{composite_into, ShadedSample};
use fusion3d_nerf::sampler::{sample_ray, sample_ray_into, SamplerConfig};
use fusion3d_par::set_thread_override;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn camera() -> Camera {
    Camera::new(orbit_poses(Vec3::splat(0.5), 1.2, 3)[1], 10, 7, 0.8)
}

fn sampler() -> SamplerConfig {
    SamplerConfig { steps_per_diagonal: 48, max_samples_per_ray: 32 }
}

/// Raises an expert's initial density so most rays saturate: a fused
/// pixel then depends on every sample's exact weight, and a render
/// that stopped rays early would show.
fn dense_field<E: Encoding>(mut model: NerfModel<E>) -> NerfModel<E> {
    *model.density_mlp_mut().output_bias_mut(0) += 3.0;
    model
}

/// Three hash-grid experts over the partitioned gates of a ball.
fn hash_moe() -> MoeNerf {
    let per_expert = ModelConfig {
        grid: HashGridConfig {
            levels: 3,
            features_per_level: 2,
            log2_table_size: 9,
            base_resolution: 4,
            max_resolution: 16,
        },
        hidden_dim: 12,
        geo_feature_dim: 3,
    };
    let mut rng = SmallRng::seed_from_u64(7);
    let ball = OccupancyGrid::from_oracle(12, 0.5, |p| (p - Vec3::splat(0.5)).length() < 0.45);
    let experts = partition_occupancy(&ball, 3)
        .into_iter()
        .map(|occupancy| Expert {
            model: dense_field(NerfModel::new(per_expert, &mut rng)),
            occupancy,
        })
        .collect();
    MoeNerf::from_experts(experts)
}

/// Two dense-grid experts owning overlapping halves of the cube.
fn dense_moe() -> MoeNerf<DenseGrid> {
    let mut rng = SmallRng::seed_from_u64(8);
    let experts = (0..2)
        .map(|e| {
            let config = DenseGridConfig { resolution: 8, features_per_vertex: 4 };
            let grid = DenseGrid::with_random_init(config, &mut rng);
            let model = dense_field(NerfModel::with_encoding(grid, 8, 3, &mut rng));
            let half = e as f32 * 0.5;
            let occupancy = OccupancyGrid::from_oracle(10, 0.5, |p| p.x >= half - 0.1);
            Expert { model, occupancy }
        })
        .collect();
    MoeNerf::from_experts(experts)
}

/// The per-ray fusion `MoeNerf::render_image` replaces: every expert
/// marches, shades and composites the ray on its own over a black
/// background, and the partial sums fuse in expert order.
fn per_ray_fusion<E: Encoding>(moe: &MoeNerf<E>, camera: &Camera, background: Vec3) -> Vec<Vec3> {
    let mut samples = SampleBatch::new();
    let mut kernel = KernelScratch::new();
    let mut weights = Vec::new();
    camera
        .rays()
        .map(|(_, _, ray)| {
            let mut color = Vec3::ZERO;
            let mut trans_product = 1.0f32;
            for expert in moe.experts() {
                sample_ray_into(&ray, &expert.occupancy, &sampler(), &mut samples);
                expert.model.forward_batch_infer(samples.positions(), ray.direction, &mut kernel);
                let shaded: Vec<ShadedSample> = kernel
                    .sigma()
                    .iter()
                    .zip(kernel.color())
                    .zip(samples.dts())
                    .map(|((&sigma, &color), &dt)| ShadedSample { sigma, color, dt })
                    .collect();
                let (c, t) = composite_into(&shaded, Vec3::ZERO, false, &mut weights);
                color += c;
                trans_product *= t;
            }
            color + background * trans_product
        })
        .collect()
}

fn bits(pixels: &[Vec3]) -> Vec<[u32; 3]> {
    pixels.iter().map(|p| p.to_array().map(f32::to_bits)).collect()
}

/// One test, because the worker-count override is process-global.
#[test]
fn render_image_is_the_per_ray_fusion_at_any_thread_count() {
    let camera = camera();
    let background = Vec3::new(0.3, 0.6, 0.9);
    let hash = hash_moe();
    let dense = dense_moe();
    let hash_expected = bits(&per_ray_fusion(&hash, &camera, background));
    let dense_expected = bits(&per_ray_fusion(&dense, &camera, background));
    let bg_bits = bits(&[background])[0];
    for expected in [&hash_expected, &dense_expected] {
        let covered = expected.iter().filter(|&&p| p != bg_bits).count();
        assert!(covered * 2 > expected.len(), "the fixture must put geometry in most pixels");
    }
    for threads in [1, 4] {
        set_thread_override(Some(threads));
        let hash_img = hash.render_image(&camera, &sampler(), background);
        let dense_img = dense.render_image(&camera, &sampler(), background);
        set_thread_override(None);
        assert_eq!(bits(hash_img.pixels()), hash_expected, "hash-grid MoE at {threads} threads");
        assert_eq!(bits(dense_img.pixels()), dense_expected, "dense-grid MoE at {threads} threads");
    }
}

#[test]
fn trace_gates_is_a_serial_sample_ray_sweep() {
    let moe = hash_moe();
    let camera = camera();
    let gates: Vec<&OccupancyGrid> = moe.experts().iter().map(|e| &e.occupancy).collect();
    let traced = trace_gates(gates.iter().copied(), &camera, &sampler());
    assert_eq!(traced.len(), gates.len());
    for (gate, chip) in gates.iter().zip(&traced) {
        let serial: Vec<_> =
            camera.rays().map(|(_, _, ray)| sample_ray(&ray, gate, &sampler()).1).collect();
        assert_eq!(chip, &serial);
        assert!(chip.iter().any(|w| w.total_samples() > 0), "a gate retained no sample");
    }
    assert_eq!(moe.per_chip_workloads(&camera, &sampler()), traced);
}
