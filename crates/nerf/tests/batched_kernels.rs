//! Differential tests of the batched SoA kernels against the scalar
//! oracle in `fusion3d_nerf::reference`.
//!
//! The batched hot-path kernels ([`fusion3d_nerf::batch`],
//! `interpolate_batch` / `backward_batch`, `forward_batch` /
//! `backward_batch`) carry a bitwise-determinism contract: identical
//! inputs must produce bit-for-bit identical f32 results to the
//! oracle's independent one-sample-at-a-time loops. These tests
//! enforce the contract at batch sizes 0, 1, 7, 64, and 1000 —
//! deliberately including sizes that are not multiples of the GEMM
//! tile widths — check that a multi-ray render tile matches per-ray
//! scalar evaluation, and re-check thread-count independence on the
//! batched pipeline.

use fusion3d_nerf::batch::{KernelScratch, SampleBatch};
use fusion3d_nerf::camera::{orbit_poses, Camera};
use fusion3d_nerf::encoding::{Encoding, EncodingScratch, HashGrid, HashGridConfig};
use fusion3d_nerf::math::{Ray, Vec3};
use fusion3d_nerf::mlp::{Activation, Mlp, MlpBatchCache};
use fusion3d_nerf::model::{ModelConfig, NerfModel};
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::pipeline::{render_image, render_views_into, PipelineConfig};
use fusion3d_nerf::reference;
use fusion3d_nerf::render::{composite, ShadedSample};
use fusion3d_nerf::sampler::{sample_ray, sample_ray_into, SamplerConfig};
use fusion3d_nerf::trainer::{Trainer, TrainerConfig};
use fusion3d_nerf::{Dataset, ProceduralScene, SyntheticScene};
use fusion3d_par::set_thread_override;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Batch sizes exercised by every differential test: empty, singleton,
/// non-multiples of the 4-wide GEMM tiles, and a large batch.
const BATCH_SIZES: [usize; 5] = [0, 1, 7, 64, 1000];

fn positions(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen())).collect()
}

fn randoms(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect()
}

fn assert_bits_eq(batched: &[f32], scalar: &[f32], what: &str) {
    assert_eq!(batched.len(), scalar.len(), "{what}: length mismatch");
    for (i, (b, s)) in batched.iter().zip(scalar).enumerate() {
        assert_eq!(b.to_bits(), s.to_bits(), "{what}[{i}]: batched {b} vs scalar {s}");
    }
}

fn test_grid(features_per_level: usize, seed: u64) -> HashGrid {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Resolutions straddle the dense/hash threshold so both addressing
    // modes are exercised.
    HashGrid::with_random_init(
        HashGridConfig {
            levels: 4,
            features_per_level,
            log2_table_size: 10,
            base_resolution: 4,
            max_resolution: 32,
        },
        &mut rng,
    )
}

#[test]
fn grid_interpolate_batch_is_bitwise_scalar() {
    // f = 2 exercises the two-accumulator fast path; f = 3 the generic
    // per-feature path.
    for features in [2, 3] {
        let grid = test_grid(features, 11);
        let dim = grid.config().output_dim();
        let mut scratch = EncodingScratch::new();
        for n in BATCH_SIZES {
            let pts = positions(n, 100 + n as u64);
            let scalar = reference::encode_points(&grid, &pts);
            let mut batched = vec![0.0f32; n * dim];
            grid.interpolate_batch(&pts, &mut batched, &mut scratch);
            assert_bits_eq(&batched, &scalar, &format!("interpolate f={features} n={n}"));
        }
    }
}

#[test]
fn grid_interpolate_batch_infer_is_bitwise_scalar() {
    // The spill-free inference kernel must match the scalar path (and
    // therefore the retaining kernel) bit for bit.
    for features in [2, 3] {
        let grid = test_grid(features, 11);
        let dim = grid.config().output_dim();
        for n in BATCH_SIZES {
            let pts = positions(n, 100 + n as u64);
            let scalar = reference::encode_points(&grid, &pts);
            let mut batched = vec![0.0f32; n * dim];
            grid.interpolate_batch_infer(&pts, &mut batched);
            assert_bits_eq(&batched, &scalar, &format!("interpolate_infer f={features} n={n}"));
        }
    }
}

#[test]
fn grid_backward_batch_is_bitwise_scalar() {
    for features in [2, 3] {
        let grid = test_grid(features, 13);
        let dim = grid.config().output_dim();
        let mut scratch = EncodingScratch::new();
        for n in BATCH_SIZES {
            let pts = positions(n, 200 + n as u64);
            let d_out = randoms(n * dim, 300 + n as u64);
            let mut scalar = vec![0.0f32; grid.param_count()];
            reference::encode_backward(&grid, &pts, &d_out, &mut scalar);
            let mut batched = vec![0.0f32; grid.param_count()];
            grid.backward_batch(&pts, &d_out, &mut batched, &mut scratch);
            assert_bits_eq(&batched, &scalar, &format!("grid backward f={features} n={n}"));
        }
    }
}

#[test]
fn grid_backward_batch_reuses_forward_scratch() {
    // The backward pass must reuse the corner addresses/weights the
    // forward pass prepared — and still be correct when it cannot
    // (different positions in the scratch).
    let grid = test_grid(2, 17);
    let dim = grid.config().output_dim();
    let pts_a = positions(33, 400);
    let pts_b = positions(33, 401);
    let d_out = randoms(33 * dim, 402);
    let mut scratch = EncodingScratch::new();
    let mut out = vec![0.0f32; 33 * dim];
    // Forward on A, backward on B: the fingerprint must force a
    // re-prepare instead of scattering with stale A corners.
    grid.interpolate_batch(&pts_a, &mut out, &mut scratch);
    let mut batched = vec![0.0f32; grid.param_count()];
    grid.backward_batch(&pts_b, &d_out, &mut batched, &mut scratch);
    let mut scalar = vec![0.0f32; grid.param_count()];
    reference::encode_backward(&grid, &pts_b, &d_out, &mut scalar);
    assert_bits_eq(&batched, &scalar, "backward after mismatched forward");
}

#[test]
fn mlp_forward_batch_is_bitwise_scalar() {
    let mut rng = SmallRng::seed_from_u64(19);
    // Widths that are not multiples of the 4-wide tiles.
    let mlp = Mlp::new(&[13, 30, 5], Activation::Relu, Activation::Sigmoid, &mut rng);
    let mut cache = MlpBatchCache::new();
    for n in BATCH_SIZES {
        let inputs = randoms(n * mlp.input_dim(), 500 + n as u64);
        let scalar = reference::mlp_forward(&mlp, &inputs, n);
        let batched = mlp.forward_batch(&inputs, n, &mut cache).to_vec();
        assert_bits_eq(&batched, &scalar, &format!("mlp forward n={n}"));
    }
}

#[test]
fn mlp_backward_batch_is_bitwise_scalar() {
    let mut rng = SmallRng::seed_from_u64(23);
    let mlp = Mlp::new(&[9, 22, 22, 6], Activation::Relu, Activation::None, &mut rng);
    let mut cache = MlpBatchCache::new();
    for n in BATCH_SIZES {
        let inputs = randoms(n * mlp.input_dim(), 600 + n as u64);
        let d_out = randoms(n * mlp.output_dim(), 700 + n as u64);
        let (scalar_d_in, scalar_grads) = reference::mlp_backward(&mlp, &inputs, n, &d_out);
        mlp.forward_batch(&inputs, n, &mut cache);
        let mut batched_d_in = vec![0.0f32; n * mlp.input_dim()];
        let mut batched_grads = vec![0.0f32; mlp.param_count()];
        mlp.backward_batch(&mut cache, &d_out, &mut batched_d_in, &mut batched_grads);
        assert_bits_eq(&batched_d_in, &scalar_d_in, &format!("mlp d_input n={n}"));
        assert_bits_eq(&batched_grads, &scalar_grads, &format!("mlp grads n={n}"));
    }
}

fn test_model(seed: u64) -> NerfModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    NerfModel::new(
        ModelConfig {
            grid: HashGridConfig {
                levels: 3,
                features_per_level: 2,
                log2_table_size: 9,
                base_resolution: 4,
                max_resolution: 16,
            },
            hidden_dim: 10,
            geo_feature_dim: 5,
        },
        &mut rng,
    )
}

#[test]
fn model_forward_batch_is_bitwise_scalar() {
    let model = test_model(29);
    let dir = Vec3::new(0.3, -0.6, 0.9).normalize();
    let mut scratch = KernelScratch::new();
    for n in BATCH_SIZES {
        let pts = positions(n, 800 + n as u64);
        let (scalar_sigma, scalar_color) = reference::model_forward(&model, &pts, dir);
        model.forward_batch(&pts, dir, &mut scratch);
        assert_bits_eq(scratch.sigma(), &scalar_sigma, &format!("model sigma n={n}"));
        let batched_rgb: Vec<f32> = scratch.color().iter().flat_map(|c| c.to_array()).collect();
        let scalar_rgb: Vec<f32> = scalar_color.iter().flat_map(|c| c.to_array()).collect();
        assert_bits_eq(&batched_rgb, &scalar_rgb, &format!("model color n={n}"));
    }
}

#[test]
fn model_forward_batch_infer_is_bitwise_scalar() {
    // The render path's non-retaining forward must produce the same
    // bits as the scalar model walk (and hence the retaining forward).
    let model = test_model(29);
    let dir = Vec3::new(0.3, -0.6, 0.9).normalize();
    let mut scratch = KernelScratch::new();
    for n in BATCH_SIZES {
        let pts = positions(n, 800 + n as u64);
        let (scalar_sigma, scalar_color) = reference::model_forward(&model, &pts, dir);
        model.forward_batch_infer(&pts, dir, &mut scratch);
        assert_bits_eq(scratch.sigma(), &scalar_sigma, &format!("infer sigma n={n}"));
        let batched_rgb: Vec<f32> = scratch.color().iter().flat_map(|c| c.to_array()).collect();
        let scalar_rgb: Vec<f32> = scalar_color.iter().flat_map(|c| c.to_array()).collect();
        assert_bits_eq(&batched_rgb, &scalar_rgb, &format!("infer color n={n}"));
    }
}

#[test]
fn model_forward_rays_infer_is_bitwise_per_ray_reference() {
    // A render tile: rays of 0, 1, 3, 4, 5 and 64 samples laid end to
    // end, repeated until the tile crosses the pipeline's 256-sample
    // flush (308 samples), each ray with its own direction. Every
    // segment must carry the bits of a per-ray scalar evaluation.
    let model = test_model(30);
    let lengths: Vec<usize> = [0, 1, 3, 4, 5, 64].repeat(4);
    let mut rng = SmallRng::seed_from_u64(33);
    let mut pts = Vec::new();
    let mut segments = Vec::new();
    for (r, &len) in lengths.iter().enumerate() {
        pts.extend(positions(len, 1300 + r as u64));
        let dir = Vec3::new(rng.gen::<f32>() - 0.5, rng.gen::<f32>() - 0.5, rng.gen::<f32>() - 0.5);
        segments.push((pts.len(), dir.normalize()));
    }
    assert!(pts.len() > 256, "the tile must cross the flush threshold");
    let mut scratch = KernelScratch::new();
    model.forward_rays_infer(&pts, &segments, &mut scratch);
    let mut start = 0;
    for (r, &(end, dir)) in segments.iter().enumerate() {
        let (scalar_sigma, scalar_color) = reference::model_forward(&model, &pts[start..end], dir);
        assert_bits_eq(&scratch.sigma()[start..end], &scalar_sigma, &format!("tile sigma ray {r}"));
        let tile_rgb: Vec<f32> =
            scratch.color()[start..end].iter().flat_map(|c| c.to_array()).collect();
        let scalar_rgb: Vec<f32> = scalar_color.iter().flat_map(|c| c.to_array()).collect();
        assert_bits_eq(&tile_rgb, &scalar_rgb, &format!("tile color ray {r}"));
        start = end;
    }
}

#[test]
fn tiled_render_is_bitwise_the_per_ray_reference() {
    // Full occupancy gives every row far more than one tile of
    // samples, so rows flush mid-row; every pixel must still equal a
    // per-ray scalar render (sample, oracle forward, composite).
    let model = test_model(41);
    let mut occupancy = OccupancyGrid::new(8, 0.0);
    occupancy.fill();
    let pose = orbit_poses(Vec3::splat(0.5), 1.2, 3)[1];
    let camera = Camera::new(pose, 24, 20, 0.9);
    let config = PipelineConfig::default();
    let image = render_image(&model, &occupancy, &camera, &config);
    let mut row_samples = 0;
    for y in 0..camera.height() {
        for x in 0..camera.width() {
            let ray = camera.ray_for_pixel(x, y);
            let (samples, _) = sample_ray(&ray, &occupancy, &config.sampler);
            row_samples += samples.len();
            let pts: Vec<Vec3> = samples.iter().map(|s| s.position).collect();
            let (sigma, color) = reference::model_forward(&model, &pts, ray.direction);
            let shaded: Vec<ShadedSample> = samples
                .iter()
                .zip(sigma.iter().zip(&color))
                .map(|(s, (&sigma, &color))| ShadedSample { sigma, color, dt: s.dt })
                .collect();
            let expected = composite(&shaded, config.background, config.early_stop).color;
            let got = image.pixels()[(y * camera.width() + x) as usize];
            assert_eq!(got.to_array().map(f32::to_bits), expected.to_array().map(f32::to_bits));
        }
    }
    assert!(row_samples > 2 * 256 * camera.height() as usize, "rows must span several tiles");
}

#[test]
fn model_backward_batch_is_bitwise_scalar() {
    let model = test_model(31);
    let dir = Vec3::new(-0.2, 0.5, 0.7).normalize();
    let mut scratch = KernelScratch::new();
    for n in BATCH_SIZES {
        let pts = positions(n, 900 + n as u64);
        let d_sigma = randoms(n, 1000 + n as u64);
        let d_color: Vec<Vec3> = randoms(n * 3, 1100 + n as u64)
            .chunks_exact(3)
            .map(|c| Vec3::new(c[0], c[1], c[2]))
            .collect();
        let mut scalar = model.alloc_grads();
        reference::model_backward(&model, &pts, dir, &d_sigma, &d_color, &mut scalar);
        model.forward_batch(&pts, dir, &mut scratch);
        let mut batched = model.alloc_grads();
        model.backward_batch(&pts, &d_sigma, &d_color, &mut scratch, &mut batched);
        assert_bits_eq(&batched.grid, &scalar.grid, &format!("grid grads n={n}"));
        assert_bits_eq(&batched.density, &scalar.density, &format!("density grads n={n}"));
        assert_bits_eq(&batched.color, &scalar.color, &format!("color grads n={n}"));
    }
}

#[test]
fn sample_ray_into_matches_sample_ray() {
    // Both entry points run the one march; the batch must carry the
    // tracing path's t/dt/position sequence on a full grid, a sparse
    // one (empty-cell skips) and under a tight sample cap.
    let mut full = OccupancyGrid::new(16, 0.0);
    full.fill();
    let sparse = OccupancyGrid::from_oracle(16, 0.0, |p| (p - Vec3::splat(0.5)).length() < 0.4);
    let config = SamplerConfig { steps_per_diagonal: 64, max_samples_per_ray: 48 };
    let capped = SamplerConfig { steps_per_diagonal: 96, max_samples_per_ray: 5 };
    let mut batch = SampleBatch::new();
    for (name, occupancy, config) in
        [("full", &full, config), ("sparse", &sparse, config), ("capped", &full, capped)]
    {
        let mut rng = SmallRng::seed_from_u64(37);
        let mut total = 0;
        for _ in 0..64 {
            let origin = Vec3::new(rng.gen::<f32>() * 4.0 - 1.5, rng.gen(), rng.gen());
            let target = Vec3::new(rng.gen(), rng.gen(), rng.gen());
            let ray = Ray::new(origin, (target - origin).normalize());
            let (scalar, _) = sample_ray(&ray, occupancy, &config);
            sample_ray_into(&ray, occupancy, &config, &mut batch);
            assert_eq!(batch.len(), scalar.len(), "{name}: sample count diverged");
            for (i, s) in scalar.iter().enumerate() {
                assert_eq!(batch.ts()[i].to_bits(), s.t.to_bits(), "{name}: t[{i}]");
                assert_eq!(batch.dts()[i].to_bits(), s.dt.to_bits(), "{name}: dt[{i}]");
                assert_eq!(batch.positions()[i], s.position, "{name}: position[{i}]");
            }
            total += scalar.len();
        }
        assert!(total > 0, "{name}: no ray retained a sample");
    }
}

/// Renders a frame and runs a few training steps with `threads`
/// workers; returns every result as raw bits.
fn batched_pipeline_bits(threads: usize) -> (Vec<u32>, Vec<u32>) {
    set_thread_override(Some(threads));
    let scene = ProceduralScene::synthetic(SyntheticScene::Lego);
    let dataset = Dataset::from_scene(&scene, 3, 16, 0.9);
    let mut trainer = Trainer::new(
        test_model(43),
        TrainerConfig {
            rays_per_batch: 37,
            sampler: SamplerConfig { steps_per_diagonal: 32, max_samples_per_ray: 16 },
            occupancy_resolution: 12,
            occupancy_warmup: 1000,
            ..TrainerConfig::default()
        },
    );
    let mut rng = SmallRng::seed_from_u64(47);
    for _ in 0..8 {
        trainer.step(&dataset, &mut rng);
    }
    let pose = orbit_poses(Vec3::splat(0.5), 1.2, 4)[2];
    let camera = Camera::new(pose, 16, 16, 0.9);
    let config = PipelineConfig {
        sampler: trainer.config().sampler,
        background: Vec3::ONE,
        early_stop: true,
    };
    let image = render_image(trainer.model(), trainer.occupancy(), &camera, &config);
    let params: Vec<u32> = trainer.model().grid().params().iter().map(|p| p.to_bits()).collect();
    let pixels: Vec<u32> =
        image.pixels().iter().flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect();
    set_thread_override(None);
    (params, pixels)
}

/// A frame through `render_image` and three views through
/// `render_views_into` with `threads` workers, as raw bits, plus the
/// views' retained sample counts.
fn tiled_render_bits(threads: usize) -> (Vec<u32>, Vec<u32>, Vec<u64>) {
    set_thread_override(Some(threads));
    let model = test_model(53);
    let scene = ProceduralScene::synthetic(SyntheticScene::Lego);
    let occupancy = scene.occupancy_grid(16);
    let config = PipelineConfig::default();
    let poses = orbit_poses(Vec3::splat(0.5), 1.2, 3);
    let cameras: Vec<Camera> = poses.iter().map(|&p| Camera::new(p, 20, 12, 0.9)).collect();
    let image = render_image(&model, &occupancy, &cameras[0], &config);
    let mut frames = vec![vec![Vec3::ZERO; 20 * 12]; cameras.len()];
    let mut samples = vec![0u64; cameras.len()];
    {
        let mut slices: Vec<&mut [Vec3]> = frames.iter_mut().map(|f| f.as_mut_slice()).collect();
        render_views_into(&model, &occupancy, &cameras, &config, &mut slices, &mut samples);
    }
    set_thread_override(None);
    let bits = |pixels: &[Vec3]| -> Vec<u32> {
        pixels.iter().flat_map(|p| p.to_array().map(f32::to_bits)).collect()
    };
    (bits(image.pixels()), bits(&frames.concat()), samples)
}

#[test]
fn tiled_render_and_views_are_bitwise_identical_across_thread_counts() {
    let (image_1, views_1, samples_1) = tiled_render_bits(1);
    let (image_4, views_4, samples_4) = tiled_render_bits(4);
    assert_eq!(image_1, image_4, "render_image diverged between 1 and 4 threads");
    assert_eq!(views_1, views_4, "render_views_into diverged between 1 and 4 threads");
    assert_eq!(samples_1, samples_4, "view sample counts diverged between 1 and 4 threads");
    // The first view is the render_image frame.
    assert_eq!(image_1, views_1[..image_1.len()], "multi-view kernel diverged from render_image");
    assert!(samples_1.iter().all(|&n| n > 0), "every view must retain samples");
}

#[test]
fn batched_pipeline_is_bitwise_identical_across_thread_counts() {
    let (params_1, pixels_1) = batched_pipeline_bits(1);
    let (params_4, pixels_4) = batched_pipeline_bits(4);
    assert_eq!(params_1, params_4, "trained parameters diverged between 1 and 4 threads");
    assert_eq!(pixels_1, pixels_4, "rendered pixels diverged between 1 and 4 threads");
    assert!(!params_1.is_empty() && pixels_1.len() == 16 * 16 * 3);
}
