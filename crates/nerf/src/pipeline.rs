//! The end-to-end three-stage inference pipeline and workload tracing.
//!
//! [`render_image`] chains Stage I (sampling), Stage II (feature
//! interpolation via the model's hash grid), and Stage III (MLP +
//! volumetric rendering) exactly as the accelerator does, while
//! [`trace_frame`] captures the per-ray workload statistics that the
//! cycle-level simulator in `fusion3d-core` replays.
//!
//! Frame-level entry points dispatch one row of pixels per work chunk
//! across the [`fusion3d_par::Pool`] workers. Chunk geometry and the
//! raster-order merge are independent of the thread count, so a frame
//! is bitwise-identical whether rendered on one core or sixteen.
//! Within a row, rays are shaded in tiles: Stage II/III run once per
//! tile of at least `TILE_SAMPLES` samples, and compositing runs per
//! ray, which leaves every pixel's bits unchanged.

use crate::batch::RayScratch;
use crate::camera::Camera;
use crate::encoding::Encoding;
use crate::image::Image;
use crate::math::{Ray, Vec3};
use crate::model::NerfModel;
use crate::occupancy::OccupancyGrid;
use crate::render::composite_into;
use crate::sampler::{sample_ray, sample_ray_append, RayWorkload, SamplerConfig};
use fusion3d_par::Pool;
use std::ops::Range;

/// Configuration shared by rendering and tracing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Stage-I sampler settings.
    pub sampler: SamplerConfig,
    /// Background radiance composited behind the last sample.
    pub background: Vec3,
    /// Enables early ray termination (inference only).
    pub early_stop: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            sampler: SamplerConfig::default(),
            background: Vec3::ONE,
            early_stop: true,
        }
    }
}

/// Retained samples a render tile gathers before it runs the model.
/// Rays join a tile whole, so a tile holds at most
/// `TILE_SAMPLES - 1 + max_samples_per_ray` samples.
const TILE_SAMPLES: usize = 256;

/// One ray's result as [`shade_rays`] hands it back.
struct ShadedRay<'a> {
    /// Pixel color, background included.
    color: Vec3,
    /// Transmittance left after the ray's last sample.
    transmittance: f32,
    /// The ray's sample parameters, in marching order.
    ts: &'a [f32],
    /// The ray's per-sample blend weights (zero past an early stop).
    weights: &'a [f32],
}

impl ShadedRay<'_> {
    /// The blend-weighted mean sample parameter, or `None` for rays
    /// that never absorb. Exact only for rays shaded without early
    /// stop, which would zero the trailing weights.
    fn depth(&self) -> Option<f32> {
        let opacity = 1.0 - self.transmittance;
        if opacity < 1e-3 {
            return None;
        }
        let weighted: f32 = self.ts.iter().zip(self.weights).map(|(&t, &w)| t * w).sum();
        Some(weighted / opacity)
    }
}

/// Runs all three stages for a sequence of rays, in tiles: each ray's
/// Stage-I samples are appended to the scratch's
/// [`crate::batch::SampleBatch`], and once the tile holds at least
/// [`TILE_SAMPLES`] samples (or the rays run out) one Stage-II/III
/// model forward runs over the whole tile before each ray's segment
/// is composited on its own. `emit` receives every ray's result in
/// input order. The caller owns `scratch` so frame loops reuse one
/// working set per worker instead of allocating per pixel.
///
/// Tiling never changes a bit: samples do not interact inside the
/// encode and MLP kernels, and compositing still runs per ray.
fn shade_rays<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    config: &PipelineConfig,
    early_stop: bool,
    rays: impl IntoIterator<Item = Ray>,
    scratch: &mut RayScratch,
    mut emit: impl FnMut(ShadedRay<'_>),
) {
    scratch.samples.clear();
    scratch.segments.clear();
    for ray in rays {
        sample_ray_append(&ray, occupancy, &config.sampler, &mut scratch.samples);
        // lint: allow(h2): amortized — the segment list is cleared per
        // tile and keeps its capacity across tiles
        scratch.segments.push((scratch.samples.len(), ray.direction));
        if scratch.samples.len() >= TILE_SAMPLES {
            flush_tile(model, config, early_stop, scratch, &mut emit);
        }
    }
    flush_tile(model, config, early_stop, scratch, &mut emit);
}

/// Shades the tile gathered in `scratch`: one model forward over every
/// sample, then per-ray compositing in ray order. Leaves the tile
/// empty.
fn flush_tile<E: Encoding>(
    model: &NerfModel<E>,
    config: &PipelineConfig,
    early_stop: bool,
    scratch: &mut RayScratch,
    emit: &mut impl FnMut(ShadedRay<'_>),
) {
    if scratch.segments.is_empty() {
        return;
    }
    let RayScratch { samples, segments, kernel } = scratch;
    model.forward_rays_infer(samples.positions(), segments, kernel);
    kernel.build_shaded(samples.dts());
    let mut start = 0;
    for &(end, _) in segments.iter() {
        let (color, transmittance) = composite_into(
            &kernel.shaded[start..end],
            config.background,
            early_stop,
            &mut kernel.weights,
        );
        crate::probe!({
            kernel.probes.rays += 1;
            if transmittance < 1e-4 {
                kernel.probes.rays_saturated += 1;
            }
        });
        emit(ShadedRay {
            color,
            transmittance,
            ts: &samples.ts()[start..end],
            weights: &kernel.weights,
        });
        start = end;
    }
    samples.clear();
    segments.clear();
}

/// The camera rays of raster-order pixel indices `range`.
fn pixel_rays(camera: &Camera, range: Range<usize>) -> impl Iterator<Item = Ray> + '_ {
    let width = (camera.width() as usize).max(1);
    range.map(move |i| camera.ray_for_pixel((i % width) as u32, (i / width) as u32))
}

/// Renders a single pixel: runs all three stages for one ray (a tile
/// of one).
pub fn render_pixel<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    ray: &Ray,
    config: &PipelineConfig,
) -> Vec3 {
    let mut color = config.background;
    let mut scratch = RayScratch::new();
    shade_rays(model, occupancy, config, config.early_stop, [*ray], &mut scratch, |shaded| {
        color = shaded.color
    });
    color
}

/// Shades every pixel of `camera`, one pixel row per work chunk
/// across the worker pool, and returns `pixel` of each ray's result
/// in raster order. Chunk geometry and the merge order depend only on
/// the camera, so the output is bitwise-identical for any
/// `FUSION3D_THREADS` setting.
fn shade_frame<E: Encoding, T: Send>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    camera: &Camera,
    config: &PipelineConfig,
    early_stop: bool,
    pixel: impl Fn(ShadedRay<'_>) -> T + Sync,
) -> Vec<T> {
    let width = camera.width() as usize;
    let count = width * camera.height() as usize;
    Pool::new().parallel_flat_map_with(count, width.max(1), RayScratch::new, |_, range, scratch| {
        let mut row = Vec::with_capacity(range.len());
        let rays = pixel_rays(camera, range);
        shade_rays(model, occupancy, config, early_stop, rays, scratch, |shaded| {
            // lint: allow(h2): per-chunk pixel buffer is the parallel
            // dispatch's return convention — one allocation per
            // chunk, sized up front
            row.push(pixel(shaded))
        });
        row
    })
}

/// Renders a full frame through the end-to-end pipeline, dispatching
/// one pixel row per work chunk across the worker pool. The output is
/// bitwise-identical for any `FUSION3D_THREADS` setting.
pub fn render_image<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    camera: &Camera,
    config: &PipelineConfig,
) -> Image {
    let pixels = shade_frame(model, occupancy, camera, config, config.early_stop, |s| s.color);
    let mut img = Image::new(camera.width(), camera.height());
    img.pixels_mut().copy_from_slice(&pixels);
    img
}

/// Renders a frame's per-pixel `(color, transmittance)` in raster
/// order: [`render_image`]'s pixels together with the transmittance
/// left behind each ray's last sample. A multi-chip expert renders
/// with a black background and early stop off, so its partial sums
/// fuse exactly across chips (`C = Σ C_e + bg · Π T_e`).
pub fn render_radiance<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    camera: &Camera,
    config: &PipelineConfig,
) -> Vec<(Vec3, f32)> {
    shade_frame(model, occupancy, camera, config, config.early_stop, |s| (s.color, s.transmittance))
}

/// Renders several cameras against one scene in a single batched
/// dispatch — the serving layer's multi-request kernel. Every pixel
/// row of every view becomes one work chunk, so a batch of small
/// frames saturates the pool as well as one large frame does.
///
/// Pixels are written through `pixels_out` (one raster-order slice
/// per camera, each exactly `width * height` long) and each view's
/// retained Stage-II/III sample total lands in `samples_out` — the
/// quantity the serving scheduler's cost model charges cycles for.
/// Output slices shorter or longer than their camera's frame are
/// skipped rather than partially filled. Chunk geometry and the merge
/// order depend only on the camera list, so the result is
/// bitwise-identical for any `FUSION3D_THREADS` setting.
pub fn render_views_into<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    cameras: &[Camera],
    config: &PipelineConfig,
    pixels_out: &mut [&mut [Vec3]],
    samples_out: &mut [u64],
) {
    debug_assert!(
        pixels_out.len() == cameras.len() && samples_out.len() == cameras.len(),
        "one pixel slice and one sample slot per camera"
    );
    let mut rows: Vec<(usize, u32)> =
        Vec::with_capacity(cameras.iter().map(|c| c.height() as usize).sum());
    for (view, camera) in cameras.iter().enumerate() {
        for y in 0..camera.height() {
            // lint: allow(h2): per-dispatch row table — one entry per
            // pixel row, amortized over that row's rays
            rows.push((view, y));
        }
    }
    let chunks = Pool::new().parallel_chunks_with(
        rows.len(),
        1,
        RayScratch::new,
        |_, range, scratch: &mut RayScratch| {
            let (view, y) = rows[range.start];
            let Some(camera) = cameras.get(view) else {
                return (view, 0u32, Vec::new(), 0u64);
            };
            let width = camera.width() as usize;
            let start = y as usize * width;
            let mut samples = 0u64;
            let mut row = Vec::with_capacity(width);
            let rays = pixel_rays(camera, start..start + width);
            shade_rays(model, occupancy, config, config.early_stop, rays, scratch, |shaded| {
                samples += shaded.ts.len() as u64;
                // lint: allow(h2): per-chunk pixel buffer — see
                // render_image
                row.push(shaded.color)
            });
            (view, y, row, samples)
        },
    );
    for slot in samples_out.iter_mut() {
        *slot = 0;
    }
    for (view, y, row, samples) in &chunks {
        let start = *y as usize * row.len();
        if let Some(out) = pixels_out.get_mut(*view) {
            if let Some(dst) = out.get_mut(start..start + row.len()) {
                dst.copy_from_slice(row);
            }
        }
        if let Some(slot) = samples_out.get_mut(*view) {
            *slot += samples;
        }
    }
}

/// [`render_image`] with hot-path probe counters recorded into
/// `report` (`obs` builds only). Identical pixels to [`render_image`]:
/// the probes never influence the compute. Each chunk's counter delta
/// is taken against its worker's running totals and the deltas merge
/// in chunk order, so the recorded totals are bitwise-identical for
/// any `FUSION3D_THREADS` setting.
#[cfg(feature = "obs")]
pub fn render_image_probed<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    camera: &Camera,
    config: &PipelineConfig,
    report: &mut fusion3d_obs::Report,
) -> Image {
    use crate::probes::ProbeCounters;
    let width = camera.width() as usize;
    let count = width * camera.height() as usize;
    let (chunks, dispatch): (Vec<(Vec<Vec3>, ProbeCounters)>, _) = Pool::new()
        .parallel_chunks_with_stats(
            count,
            width.max(1),
            RayScratch::new,
            |_, range, scratch: &mut RayScratch| {
                let before = scratch.kernel.probes;
                let mut pixels = Vec::with_capacity(range.len());
                let rays = pixel_rays(camera, range);
                shade_rays(model, occupancy, config, config.early_stop, rays, scratch, |shaded| {
                    // lint: allow(h2): per-chunk pixel buffer — see
                    // render_image
                    pixels.push(shaded.color)
                });
                (pixels, scratch.kernel.probes.diff(&before))
            },
        );
    dispatch.record("render", &mut report.metrics);
    let mut totals = ProbeCounters::default();
    let mut img = Image::new(camera.width(), camera.height());
    let out = img.pixels_mut();
    let mut at = 0usize;
    for (pixels, delta) in &chunks {
        out[at..at + pixels.len()].copy_from_slice(pixels);
        at += pixels.len();
        totals.add(delta);
    }
    totals.record(&mut report.metrics);
    img
}

/// Renders the expected ray-termination depth of one pixel: the
/// blend-weighted mean sample parameter, with rays that never absorb
/// returning `None`. AR/VR compositors consume this channel for
/// occlusion between virtual and reconstructed content.
pub fn render_pixel_depth<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    ray: &Ray,
    config: &PipelineConfig,
) -> Option<f32> {
    let mut depth = None;
    let mut scratch = RayScratch::new();
    // Early stop must be off: the weighted-mean depth needs every
    // sample's exact blend weight.
    shade_rays(model, occupancy, config, false, [*ray], &mut scratch, |shaded| {
        depth = shaded.depth()
    });
    depth
}

/// Renders a normalized depth map: nearer surfaces brighter, rays
/// that escape black. The normalization divides by the frame's
/// maximum depth. Depths evaluate one pixel row per work chunk across
/// the pool, with early stop off (see [`render_pixel_depth`]); the
/// max-depth reduction runs serially over the raster-ordered result,
/// so the frame is thread-count independent.
pub fn render_depth_image<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    camera: &Camera,
    config: &PipelineConfig,
) -> Image {
    let depths = shade_frame(model, occupancy, camera, config, false, |s| s.depth());
    let max = depths.iter().flatten().cloned().fold(0.0f32, f32::max).max(1e-6);
    let mut img = Image::new(camera.width(), camera.height());
    for (i, d) in depths.iter().enumerate() {
        let v = d.map_or(0.0, |t| 1.0 - (t / max).clamp(0.0, 1.0) * 0.9);
        img.pixels_mut()[i] = Vec3::splat(v);
    }
    img
}

/// Stage-level workload statistics of one frame, consumed by the
/// accelerator simulator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameTrace {
    /// Per-ray Stage-I workloads, in raster order (rays that miss the
    /// model cube entirely are included with zero pairs).
    pub workloads: Vec<RayWorkload>,
    /// Total retained samples (Stage II/III workload).
    pub total_samples: u64,
    /// Total marching steps (Stage I workload).
    pub total_steps: u64,
}

impl FrameTrace {
    /// Number of rays in the frame.
    pub fn ray_count(&self) -> usize {
        self.workloads.len()
    }

    /// Mean retained samples per ray.
    pub fn mean_samples_per_ray(&self) -> f64 {
        if self.workloads.is_empty() {
            0.0
        } else {
            self.total_samples as f64 / self.workloads.len() as f64
        }
    }

    /// Fraction of rays with at least one valid ray–cube pair.
    pub fn hit_rate(&self) -> f64 {
        if self.workloads.is_empty() {
            return 0.0;
        }
        let hits = self.workloads.iter().filter(|w| w.valid_pairs > 0).count();
        hits as f64 / self.workloads.len() as f64
    }
}

/// Captures the Stage-I workload of a frame without shading it. Rays
/// trace one pixel row per work chunk across the pool; per-chunk
/// traces merge in chunk order, so the result matches a serial sweep
/// exactly.
pub fn trace_frame(
    occupancy: &OccupancyGrid,
    camera: &Camera,
    sampler: &SamplerConfig,
) -> FrameTrace {
    let width = camera.width() as usize;
    let count = width * camera.height() as usize;
    let chunks = Pool::new().parallel_chunks(count, width.max(1), |_, range| {
        let mut chunk = FrameTrace::default();
        for i in range {
            let ray = camera.ray_for_pixel((i % width) as u32, (i / width) as u32);
            let (samples, workload) = sample_ray(&ray, occupancy, sampler);
            chunk.total_samples += samples.len() as u64;
            chunk.total_steps += workload.total_steps() as u64;
            // lint: allow(h2): the per-ray workload list is the
            // frame trace's output product, not shading scratch
            chunk.workloads.push(workload);
        }
        chunk
    });
    let mut trace = FrameTrace::default();
    for chunk in chunks {
        trace.total_samples += chunk.total_samples;
        trace.total_steps += chunk.total_steps;
        trace.workloads.extend(chunk.workloads);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{orbit_poses, Camera};
    use crate::encoding::HashGridConfig;
    use crate::model::{ModelConfig, NerfModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_model() -> NerfModel {
        let mut rng = SmallRng::seed_from_u64(0);
        NerfModel::new(
            ModelConfig {
                grid: HashGridConfig {
                    levels: 2,
                    features_per_level: 2,
                    log2_table_size: 8,
                    base_resolution: 4,
                    max_resolution: 8,
                },
                hidden_dim: 8,
                geo_feature_dim: 3,
            },
            &mut rng,
        )
    }

    fn test_camera() -> Camera {
        let pose = orbit_poses(Vec3::splat(0.5), 1.2, 1)[0];
        Camera::new(pose, 8, 8, 0.8)
    }

    #[test]
    fn empty_occupancy_renders_background() {
        let model = tiny_model();
        let occ = OccupancyGrid::new(8, 0.0);
        let cfg = PipelineConfig { background: Vec3::new(0.3, 0.6, 0.9), ..Default::default() };
        let img = render_image(&model, &occ, &test_camera(), &cfg);
        assert!(img.pixels().iter().all(|&p| p == cfg.background));
    }

    #[test]
    fn full_occupancy_renders_something_else() {
        let model = tiny_model();
        let mut occ = OccupancyGrid::new(8, 0.0);
        occ.fill();
        let cfg = PipelineConfig { background: Vec3::ONE, ..Default::default() };
        let img = render_image(&model, &occ, &test_camera(), &cfg);
        // With density exp(~0) ≈ 1 everywhere, pixels through the cube
        // blend model colors with the background.
        let non_bg = img.pixels().iter().filter(|&&p| p != Vec3::ONE).count();
        assert!(non_bg > 0, "expected some non-background pixels");
        for p in img.pixels() {
            assert!(p.is_finite());
        }
    }

    #[test]
    fn early_stop_matches_exact_within_tolerance() {
        let model = tiny_model();
        let mut occ = OccupancyGrid::new(8, 0.0);
        occ.fill();
        let cam = test_camera();
        let exact = render_image(
            &model,
            &occ,
            &cam,
            &PipelineConfig { early_stop: false, ..Default::default() },
        );
        let eager = render_image(
            &model,
            &occ,
            &cam,
            &PipelineConfig { early_stop: true, ..Default::default() },
        );
        assert!(exact.psnr(&eager) > 40.0, "psnr {}", exact.psnr(&eager));
    }

    #[test]
    fn render_views_matches_per_view_render_image() {
        let model = tiny_model();
        let mut occ = OccupancyGrid::new(8, 0.0);
        occ.fill();
        let cfg = PipelineConfig::default();
        let poses = orbit_poses(Vec3::splat(0.5), 1.2, 3);
        let cameras: Vec<Camera> = poses.iter().map(|&p| Camera::new(p, 8, 6, 0.8)).collect();
        let mut frames: Vec<Vec<Vec3>> = cameras.iter().map(|_| vec![Vec3::ZERO; 48]).collect();
        let mut samples = vec![0u64; cameras.len()];
        {
            let mut slices: Vec<&mut [Vec3]> =
                frames.iter_mut().map(|f| f.as_mut_slice()).collect();
            render_views_into(&model, &occ, &cameras, &cfg, &mut slices, &mut samples);
        }
        for (i, camera) in cameras.iter().enumerate() {
            let solo = render_image(&model, &occ, camera, &cfg);
            assert_eq!(frames[i].as_slice(), solo.pixels(), "view {i} pixels diverge");
            assert!(samples[i] > 0, "view {i} retained no samples");
        }
    }

    #[test]
    fn render_views_handles_empty_batch() {
        let model = tiny_model();
        let occ = OccupancyGrid::new(8, 0.0);
        render_views_into(&model, &occ, &[], &PipelineConfig::default(), &mut [], &mut []);
    }

    #[test]
    fn frame_trace_statistics() {
        let mut occ = OccupancyGrid::new(8, 0.0);
        occ.fill();
        let cam = test_camera();
        let trace = trace_frame(&occ, &cam, &SamplerConfig::default());
        assert_eq!(trace.ray_count(), 64);
        assert!(trace.total_samples > 0);
        assert!(trace.total_steps >= trace.total_samples);
        assert!(trace.hit_rate() > 0.3, "hit rate {}", trace.hit_rate());
        assert!(trace.mean_samples_per_ray() > 1.0);
    }

    #[test]
    fn empty_trace_is_degenerate() {
        let t = FrameTrace::default();
        assert_eq!(t.ray_count(), 0);
        assert_eq!(t.mean_samples_per_ray(), 0.0);
        assert_eq!(t.hit_rate(), 0.0);
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;
    use crate::camera::{orbit_poses, Camera};
    use crate::encoding::HashGridConfig;
    use crate::model::{ModelConfig, NerfModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dense_model() -> NerfModel {
        let mut rng = SmallRng::seed_from_u64(3);
        NerfModel::new(
            ModelConfig {
                grid: HashGridConfig {
                    levels: 2,
                    features_per_level: 2,
                    log2_table_size: 8,
                    base_resolution: 4,
                    max_resolution: 8,
                },
                hidden_dim: 8,
                geo_feature_dim: 3,
            },
            &mut rng,
        )
    }

    #[test]
    fn empty_space_has_no_depth() {
        let model = dense_model();
        let occ = OccupancyGrid::new(8, 0.0); // all empty
        let ray = Ray::new(Vec3::new(-1.0, 0.4, 0.45), Vec3::X);
        assert_eq!(render_pixel_depth(&model, &occ, &ray, &PipelineConfig::default()), None);
    }

    #[test]
    fn depth_lies_within_the_ray_span() {
        // Untrained density exp(~0) = 1 absorbs over the cube: the
        // expected depth must sit between entry and exit.
        let model = dense_model();
        let mut occ = OccupancyGrid::new(8, 0.0);
        occ.fill();
        let ray = Ray::new(Vec3::new(-1.0, 0.4, 0.45), Vec3::X);
        let depth = render_pixel_depth(&model, &occ, &ray, &PipelineConfig::default())
            .expect("ray absorbs");
        assert!((1.0..=2.0).contains(&depth), "depth {depth}");
    }

    #[test]
    fn nearer_geometry_reads_nearer() {
        // Occupancy restricted to the front slab vs the back slab:
        // front depth < back depth for the same ray.
        let model = dense_model();
        let front = OccupancyGrid::from_oracle(8, 0.0, |p| p.x < 0.3);
        let back = OccupancyGrid::from_oracle(8, 0.0, |p| p.x > 0.7);
        let ray = Ray::new(Vec3::new(-1.0, 0.4, 0.45), Vec3::X);
        let cfg = PipelineConfig::default();
        let d_front = render_pixel_depth(&model, &front, &ray, &cfg).expect("front absorbs");
        let d_back = render_pixel_depth(&model, &back, &ray, &cfg).expect("back absorbs");
        assert!(d_front < d_back, "front {d_front} vs back {d_back}");
    }

    #[test]
    fn depth_image_shape_and_range() {
        let model = dense_model();
        let mut occ = OccupancyGrid::new(8, 0.0);
        occ.fill();
        let pose = orbit_poses(Vec3::splat(0.5), 1.2, 1)[0];
        let cam = Camera::new(pose, 8, 8, 0.8);
        let img = render_depth_image(&model, &occ, &cam, &PipelineConfig::default());
        assert_eq!(img.pixel_count(), 64);
        for p in img.pixels() {
            assert!(p.x >= 0.0 && p.x <= 1.0);
            assert_eq!(p.x, p.y);
            assert_eq!(p.y, p.z);
        }
    }
}
