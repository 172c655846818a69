//! Property-based tests of the algorithm substrate's invariants,
//! complementing the per-module unit tests: compositing conservation,
//! sampler geometry, encoding linearity, and gradient additivity hold
//! for *arbitrary* inputs, not just the hand-picked ones.

use fusion3d_nerf::encoding::{Encoding, EncodingScratch, HashGrid, HashGridConfig};
use fusion3d_nerf::math::{Aabb, Ray, Vec3};
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::render::{composite, composite_backward, ShadedSample};
use fusion3d_nerf::sampler::{sample_ray, SamplerConfig};
use proptest::prelude::*;

fn arb_vec3(range: std::ops::Range<f32>) -> impl Strategy<Value = Vec3> {
    (range.clone(), range.clone(), range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn arb_samples() -> impl Strategy<Value = Vec<ShadedSample>> {
    prop::collection::vec(
        (0.0f32..50.0, arb_vec3(0.0..1.0), 0.001f32..0.5)
            .prop_map(|(sigma, color, dt)| ShadedSample { sigma, color, dt }),
        0..32,
    )
}

proptest! {
    /// Compositing is a convex combination: weights are non-negative
    /// and sum (with the residual transmittance) to exactly one.
    #[test]
    fn composite_partitions_unity(samples in arb_samples(), bg in arb_vec3(0.0..1.0)) {
        let out = composite(&samples, bg, false);
        for &w in &out.weights {
            prop_assert!(w >= 0.0);
        }
        let total: f32 = out.weights.iter().sum::<f32>() + out.final_transmittance;
        prop_assert!((total - 1.0).abs() < 1e-4, "partition {total}");
        // Therefore the pixel stays inside the color gamut.
        for c in out.color.to_array() {
            prop_assert!((-1e-4..=1.0 + 1e-4).contains(&c), "channel {c}");
        }
    }

    /// Transmittance never increases along the ray.
    #[test]
    fn transmittance_is_monotone(samples in arb_samples()) {
        let mut t_prev = 1.0f32;
        let mut t = 1.0f32;
        for s in &samples {
            let alpha = 1.0 - (-(s.sigma * s.dt).min(15.0)).exp();
            t *= 1.0 - alpha;
            prop_assert!(t <= t_prev + 1e-7);
            t_prev = t;
        }
    }

    /// The compositing backward pass is linear in the pixel gradient:
    /// doubling `d_color` doubles every sample gradient.
    #[test]
    fn composite_backward_is_linear(samples in arb_samples(), bg in arb_vec3(0.0..1.0)) {
        prop_assume!(!samples.is_empty());
        let g1 = composite_backward(&samples, bg, Vec3::new(1.0, 0.5, -0.5));
        let g2 = composite_backward(&samples, bg, Vec3::new(2.0, 1.0, -1.0));
        for (a, b) in g1.iter().zip(&g2) {
            prop_assert!((2.0 * a.d_sigma - b.d_sigma).abs() < 1e-3 * (1.0 + a.d_sigma.abs()));
            prop_assert!((a.d_color * 2.0 - b.d_color).length() < 1e-4 * (1.0 + a.d_color.length()));
        }
    }

    /// Every retained sample lies inside the model cube, on a strictly
    /// increasing `t` lattice, regardless of the ray.
    #[test]
    fn sampler_geometry_invariants(
        origin in arb_vec3(-2.0..3.0),
        dir in arb_vec3(-1.0..1.0),
        steps in 16u32..256,
    ) {
        prop_assume!(dir.length() > 1e-3);
        let ray = Ray::new(origin, dir.normalize());
        let mut grid = OccupancyGrid::new(12, 0.0);
        grid.fill();
        let cfg = SamplerConfig { steps_per_diagonal: steps, max_samples_per_ray: 64 };
        let (samples, workload) = sample_ray(&ray, &grid, &cfg);
        prop_assert!(samples.len() <= 64);
        prop_assert_eq!(samples.len() as u32, workload.total_samples());
        let cube = Aabb::unit_cube();
        let mut prev = f32::NEG_INFINITY;
        for s in &samples {
            prop_assert!(s.t > prev);
            prev = s.t;
            // Positions stay within a half-step of the cube (floating
            // point at the faces).
            prop_assert!(
                cube.contains(s.position.clamp(0.0, 1.0)),
                "sample strays: {:?}", s.position
            );
            prop_assert!(s.cube < 8);
        }
        // Steps dominate samples: every retained sample cost a step.
        prop_assert!(workload.total_steps() >= workload.total_samples());
    }

    /// Occupancy gating is conservative: pruning cells only removes
    /// samples, never adds or moves them.
    #[test]
    fn occupancy_pruning_is_monotone(
        oy in 0.05f32..0.95,
        oz in 0.05f32..0.95,
        cutoff in 0.1f32..0.9,
    ) {
        let ray = Ray::new(Vec3::new(-1.0, oy, oz), Vec3::X);
        let mut full = OccupancyGrid::new(10, 0.0);
        full.fill();
        let partial = OccupancyGrid::from_oracle(10, 0.0, |p| p.x < cutoff);
        let cfg = SamplerConfig { steps_per_diagonal: 64, max_samples_per_ray: 500 };
        let (full_samples, _) = sample_ray(&ray, &full, &cfg);
        let (partial_samples, _) = sample_ray(&ray, &partial, &cfg);
        prop_assert!(partial_samples.len() <= full_samples.len());
        // Each partial sample appears (by parameter) among the full
        // ones.
        let full_ts: Vec<f32> = full_samples.iter().map(|s| s.t).collect();
        for s in &partial_samples {
            prop_assert!(
                full_ts.iter().any(|t| (t - s.t).abs() < 1e-3),
                "sample t={} not on the full lattice", s.t
            );
        }
    }

    /// The hash-grid encoding is linear in its parameters: encoding
    /// with scaled parameters scales the features.
    #[test]
    fn encoding_is_linear_in_parameters(
        px in 0.0f32..1.0, py in 0.0f32..1.0, pz in 0.0f32..1.0,
        scale in 0.25f32..4.0,
    ) {
        let config = HashGridConfig {
            levels: 3,
            features_per_level: 2,
            log2_table_size: 8,
            base_resolution: 4,
            max_resolution: 16,
        };
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(7);
        let mut grid = HashGrid::with_random_init(config, &mut rng);
        let p = Vec3::new(px, py, pz);
        let mut base = vec![0.0f32; grid.config().output_dim()];
        grid.interpolate_batch_infer(&[p], &mut base);
        for v in grid.params_mut() {
            *v *= scale;
        }
        let mut scaled = vec![0.0f32; grid.config().output_dim()];
        grid.interpolate_batch_infer(&[p], &mut scaled);
        for (a, b) in base.iter().zip(&scaled) {
            prop_assert!(
                (a * scale - b).abs() < 1e-4 * (1.0 + a.abs() * scale),
                "{a} * {scale} != {b}"
            );
        }
    }

    /// Grid gradients accumulate additively: two backward passes
    /// deposit exactly twice one pass.
    #[test]
    fn grid_backward_accumulates(px in 0.0f32..1.0, py in 0.0f32..1.0, pz in 0.0f32..1.0) {
        let config = HashGridConfig {
            levels: 2,
            features_per_level: 2,
            log2_table_size: 8,
            base_resolution: 4,
            max_resolution: 8,
        };
        let grid = HashGrid::new(config);
        let p = Vec3::new(px, py, pz);
        let d = vec![1.0f32; config.output_dim()];
        let mut scratch = EncodingScratch::new();
        let mut once = vec![0.0f32; grid.param_count()];
        grid.backward_batch(&[p], &d, &mut once, &mut scratch);
        let mut twice = vec![0.0f32; grid.param_count()];
        grid.backward_batch(&[p], &d, &mut twice, &mut scratch);
        grid.backward_batch(&[p], &d, &mut twice, &mut scratch);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((2.0 * a - b).abs() < 1e-6);
        }
        // Trilinear weights deposit exactly the full gradient per level.
        let per_level: f32 = once.iter().sum::<f32>() / config.levels as f32
            / config.features_per_level as f32;
        prop_assert!((per_level - 1.0).abs() < 1e-4, "weight sum {per_level}");
    }
}
