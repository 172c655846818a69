//! Seeded input generation. Every input the program receives — camera
//! poses, training images, model initialisations, ray batches and the
//! request trace — is a pure function of the benchmark seed, so the
//! same seed replays the same run.

use fusion3d_nerf::camera::{Camera, Pose};
use fusion3d_nerf::dataset::{Dataset, View};
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::model::{ModelConfig, NerfModel};
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::scenes::{ProceduralScene, SyntheticScene};
use fusion3d_serve::{generate, Request, ServeConfig, TrafficConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Centre and radius of the capture orbit (the NeRF-Synthetic rig the
/// workspace's datasets use).
const ORBIT_CENTER: Vec3 = Vec3::new(0.5, 0.4, 0.5);
const ORBIT_RADIUS: f32 = 1.25;
/// Vertical field of view of every camera, radians.
pub const FOV_Y: f32 = 0.8;
/// Resolution of the ground-truth occupancy grids the render models
/// march (the serving fixture's resolution).
pub const OCCUPANCY_RES: u32 = 24;
/// Training views per scene, their side length in pixels, and the
/// hold-out stride (every sixth view is held out: 4 of 24).
pub const TRAIN_VIEWS: usize = 24;
pub const TRAIN_RES: u32 = 32;
pub const HOLDOUT_EVERY: usize = 6;

/// Independent random streams derived from one seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Capture poses of a scene's training views.
    TrainPoses,
    /// A scene's model initialisation.
    Model,
    /// A scene's training ray batches and occupancy jitter.
    Batches,
    /// The render workload's viewer poses.
    RenderPoses,
    /// The render check's sampled rows.
    CheckRows,
    /// The serve workload's request trace.
    Trace,
}

/// Seed of `stream` for scene `index` (0 where no scene applies).
pub fn stream_seed(seed: u64, stream: Stream, index: usize) -> u64 {
    // SplitMix64 finaliser over (seed, stream, index): distinct
    // streams stay uncorrelated even for adjacent seeds.
    let mut z = seed
        ^ (stream as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (index as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random stream.
pub fn rng(seed: u64, stream: Stream, index: usize) -> SmallRng {
    SmallRng::seed_from_u64(stream_seed(seed, stream, index))
}

/// `count` orbit poses around the scene: a golden-angle azimuth spiral
/// with a seeded phase and jittered elevations between about 10° and
/// 60° above the horizon.
pub fn orbit(rng: &mut SmallRng, count: usize) -> Vec<Pose> {
    let golden = std::f32::consts::PI * (3.0 - 5.0f32.sqrt());
    let phase = rng.gen_range(0.0..std::f32::consts::TAU);
    (0..count)
        .map(|i| {
            let frac = (i as f32 + 0.5) / count as f32;
            let elev = 0.17 + 0.9 * frac + rng.gen_range(-0.05..0.05);
            let azim = phase + golden * i as f32;
            let eye = ORBIT_CENTER
                + Vec3::new(
                    ORBIT_RADIUS * elev.cos() * azim.cos(),
                    ORBIT_RADIUS * elev.sin(),
                    ORBIT_RADIUS * elev.cos() * azim.sin(),
                );
            Pose::look_at(eye, ORBIT_CENTER, Vec3::Y)
        })
        .collect()
}

/// A scene's training and held-out views, rendered from the
/// procedural ground truth at seeded poses.
pub fn training_split(scene: SyntheticScene, seed: u64) -> (Dataset, Dataset) {
    let index = scene as usize;
    let procedural = ProceduralScene::synthetic(scene);
    let views = orbit(&mut rng(seed, Stream::TrainPoses, index), TRAIN_VIEWS)
        .into_iter()
        .map(|pose| {
            let camera = Camera::new(pose, TRAIN_RES, TRAIN_RES, FOV_Y);
            View { camera, image: procedural.render(&camera) }
        })
        .collect();
    Dataset::from_views(views, procedural.background()).split(HOLDOUT_EVERY)
}

/// A freshly initialised default-size model for scene `index`.
pub fn model(seed: u64, index: usize) -> NerfModel {
    NerfModel::new(ModelConfig::default(), &mut rng(seed, Stream::Model, index))
}

/// One render-workload scene: a seeded model over the scene's
/// ground-truth occupancy grid, and its background.
#[derive(Debug)]
pub struct RenderScene {
    /// Scene name.
    pub name: &'static str,
    /// Seeded (untrained) field.
    pub model: NerfModel,
    /// Ground-truth occupancy.
    pub occupancy: OccupancyGrid,
    /// Background radiance.
    pub background: Vec3,
}

/// The eight render-workload scenes.
pub fn render_scenes(seed: u64) -> Vec<RenderScene> {
    SyntheticScene::ALL
        .iter()
        .enumerate()
        .map(|(index, &scene)| {
            let procedural = ProceduralScene::synthetic(scene);
            RenderScene {
                name: scene.name(),
                model: model(seed, index),
                occupancy: procedural.occupancy_grid(OCCUPANCY_RES),
                background: procedural.background(),
            }
        })
        .collect()
}

/// The serving configuration of `BENCH_serve.json`'s sweep: 40×40
/// views, at most 4 per dispatch, 32-deep admission queues.
pub fn serve_config() -> ServeConfig {
    ServeConfig { resolution: 40, queue_capacity: 32, ..ServeConfig::default() }
}

/// Requests per replayed trace.
pub const SERVE_REQUESTS: usize = 120;

/// The seeded Poisson/Zipf(0.9) request trace over eight scenes, with
/// arrivals `interarrival_cycles` apart on average.
pub fn serve_trace(seed: u64, requests: usize, interarrival_cycles: f64) -> Vec<Request> {
    let traffic = TrafficConfig {
        scene_count: 8,
        requests,
        mean_interarrival_cycles: interarrival_cycles,
        zipf_exponent: 0.9,
        path_len: serve_config().path_len as u32,
    };
    generate(&traffic, stream_seed(seed, Stream::Trace, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pose_bits(poses: &[Pose]) -> Vec<u32> {
        let camera = |p: &Pose| Camera::new(*p, 2, 2, FOV_Y);
        poses
            .iter()
            .flat_map(|p| {
                let ray = camera(p).ray_for_pixel(1, 0);
                [ray.origin, ray.direction]
            })
            .flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
            .collect()
    }

    #[test]
    fn poses_are_a_function_of_the_seed() {
        let a = orbit(&mut rng(7, Stream::RenderPoses, 0), 16);
        let b = orbit(&mut rng(7, Stream::RenderPoses, 0), 16);
        let c = orbit(&mut rng(8, Stream::RenderPoses, 0), 16);
        assert_eq!(pose_bits(&a), pose_bits(&b));
        assert_ne!(pose_bits(&a), pose_bits(&c));
    }

    #[test]
    fn traces_are_a_function_of_the_seed() {
        assert_eq!(serve_trace(3, 64, 2e4), serve_trace(3, 64, 2e4));
        assert_ne!(serve_trace(3, 64, 2e4), serve_trace(4, 64, 2e4));
    }

    #[test]
    fn ray_batches_are_a_function_of_the_seed() {
        let batch = |seed: u64| {
            let (train, _) = training_split(SyntheticScene::Lego, seed);
            let rays = train.sample_batch(32, &mut rng(seed, Stream::Batches, 0));
            rays.iter()
                .flat_map(|(ray, target)| [ray.origin, ray.direction, *target])
                .flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
                .collect::<Vec<u32>>()
        };
        assert_eq!(batch(11), batch(11));
        assert_ne!(batch(11), batch(12));
    }

    #[test]
    fn streams_of_one_seed_differ() {
        let s = stream_seed(5, Stream::Model, 0);
        assert_ne!(s, stream_seed(5, Stream::Model, 1));
        assert_ne!(s, stream_seed(5, Stream::Batches, 0));
        assert_ne!(s, stream_seed(6, Stream::Model, 0));
    }
}
