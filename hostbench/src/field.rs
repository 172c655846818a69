//! The per-ray stages of the NeRF pipeline, called one layer at a
//! time so the traced run can put a span around each.
//!
//! The program fuses these calls inside `NerfModel::forward_batch`,
//! `render_image` and `Trainer::step`. Here the same public kernels
//! are called in the same order on the same buffers, and the traced
//! workloads check the results bitwise against the fused program path
//! — a span layout that drifted from the program would fail the run.

use crate::spans::{ChunkTimes, Layer, LayerTimes, StageCounts};
use fusion3d_nerf::batch::SampleBatch;
use fusion3d_nerf::encoding::{Encoding, EncodingScratch};
use fusion3d_nerf::math::{Ray, Vec3};
use fusion3d_nerf::mlp::{sh_encode, MlpBatchCache, SH_DIM};
use fusion3d_nerf::model::{ModelGrads, NerfModel};
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::render::{composite_backward_into, composite_into, SampleGrad, ShadedSample};
use fusion3d_nerf::sampler::SamplerConfig;
use std::time::Instant;

/// Bound on the raw density logit before its exponential
/// (`NerfModel`'s density activation).
const RAW_DENSITY_CLAMP: f32 = 12.0;

/// Transmittance below which early ray termination stops compositing.
const EARLY_STOP_TRANSMITTANCE: f32 = 1e-4;

/// One worker's buffers for the staged pipeline.
#[derive(Debug, Default)]
pub struct Stages {
    samples: SampleBatch,
    enc: EncodingScratch,
    encoded: Vec<f32>,
    density: MlpBatchCache,
    color: MlpBatchCache,
    color_input: Vec<f32>,
    sigma: Vec<f32>,
    clamped: Vec<bool>,
    rgb: Vec<Vec3>,
    shaded: Vec<ShadedSample>,
    weights: Vec<f32>,
    sample_grads: Vec<SampleGrad>,
    d_rgb: Vec<f32>,
    d_color_in: Vec<f32>,
    d_density_out: Vec<f32>,
    d_encoded: Vec<f32>,
    /// Layer times of the spans this worker ran.
    pub times: LayerTimes,
    /// Work counted by this worker.
    pub counts: StageCounts,
}

impl Stages {
    /// Runs `f` as one pool chunk, returning its output with the
    /// chunk's worker, busy time, and the layer times and counts it
    /// added.
    pub fn chunk<T>(&mut self, f: impl FnOnce(&mut Stages) -> T) -> (T, ChunkTimes) {
        let start = Instant::now();
        let out = f(self);
        let busy_ns = start.elapsed().as_nanos() as u64;
        let chunk = ChunkTimes {
            // lint: allow(d3): names the pool worker running the chunk;
            // spawns nothing
            worker: std::thread::current().id(),
            busy_ns,
            layers: std::mem::take(&mut self.times),
            counts: std::mem::take(&mut self.counts),
        };
        (out, chunk)
    }

    /// Samples retained for the last ray.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// Shades one ray: sample, encode, MLP, composite, each its own
    /// span. `retain` keeps the encoding corners for [`Stages::backward`].
    /// Returns the pixel colour and final transmittance.
    #[allow(clippy::too_many_arguments)]
    pub fn shade(
        &mut self,
        model: &NerfModel,
        occupancy: &OccupancyGrid,
        sampler: &SamplerConfig,
        ray: &Ray,
        background: Vec3,
        early_stop: bool,
        retain: bool,
    ) -> (Vec3, f32) {
        let Stages { samples, times, .. } = self;
        times.time(Layer::Sampler, || {
            fusion3d_nerf::sampler::sample_ray_into(ray, occupancy, sampler, samples)
        });
        let n = self.samples.len();
        self.counts.rays += 1;
        self.counts.samples += n as u64;
        self.encode(model, retain);
        self.mlp(model, ray.direction);
        let Stages { shaded, weights, sigma, rgb, samples, times, .. } = self;
        let result = times.time(Layer::Render, || {
            shaded.clear();
            for ((&sigma, &color), &dt) in sigma.iter().zip(rgb.iter()).zip(samples.dts()) {
                shaded.push(ShadedSample { sigma, color, dt });
            }
            composite_into(shaded, background, early_stop, weights)
        });
        if early_stop {
            self.counts.early_stop_rays += 1;
            if result.1 < EARLY_STOP_TRANSMITTANCE {
                self.counts.early_stopped += 1;
            }
        }
        result
    }

    fn encode(&mut self, model: &NerfModel, retain: bool) {
        let grid = model.grid();
        let n = self.samples.len();
        let dim = grid.output_dim();
        let Stages { samples, enc, encoded, times, .. } = self;
        times.time(Layer::Encoding, || {
            encoded.resize(n * dim, 0.0);
            if retain {
                grid.reserve_batch_scratch(enc, n);
                grid.interpolate_batch(samples.positions(), encoded, enc);
            } else {
                grid.interpolate_batch_infer(samples.positions(), encoded);
            }
        });
    }

    fn mlp(&mut self, model: &NerfModel, direction: Vec3) {
        let n = self.samples.len();
        self.counts.mlp_calls += 1;
        let Stages { encoded, density, color, color_input, sigma, clamped, rgb, times, .. } = self;
        times.time(Layer::Mlp, || {
            let density_mlp = model.density_mlp();
            let color_mlp = model.color_mlp();
            let geo = model.geo_feature_dim();
            let d_out_dim = density_mlp.output_dim();
            let c_in = color_mlp.input_dim();
            let d_out = density_mlp.forward_batch(encoded, n, density);
            let mut sh = [0.0f32; SH_DIM];
            sh_encode(direction.to_array(), &mut sh);
            sigma.resize(n, 0.0);
            clamped.resize(n, false);
            color_input.resize(n * c_in, 0.0);
            for s in 0..n {
                let row = &d_out[s * d_out_dim..(s + 1) * d_out_dim];
                let raw = row[0].clamp(-RAW_DENSITY_CLAMP, RAW_DENSITY_CLAMP);
                sigma[s] = raw.exp();
                clamped[s] = raw != row[0];
                let ci = &mut color_input[s * c_in..(s + 1) * c_in];
                ci[..geo].copy_from_slice(&row[1..]);
                ci[geo..].copy_from_slice(&sh);
            }
            let out = color_mlp.forward_batch(color_input, n, color);
            rgb.clear();
            rgb.extend(out.chunks_exact(3).map(|c| Vec3::new(c[0], c[1], c[2])));
        });
    }

    /// Backpropagates `d_pixel` through the last [`Stages::shade`]
    /// (which must have run with `retain` and without early stop) into
    /// `grads`, as one span.
    pub fn backward(
        &mut self,
        model: &NerfModel,
        background: Vec3,
        d_pixel: Vec3,
        grads: &mut ModelGrads,
    ) {
        let n = self.samples.len();
        self.counts.backward_points += n as u64;
        let Stages {
            samples,
            enc,
            density,
            color,
            sigma,
            clamped,
            shaded,
            sample_grads,
            d_rgb,
            d_color_in,
            d_density_out,
            d_encoded,
            times,
            ..
        } = self;
        times.time(Layer::Backward, || {
            composite_backward_into(shaded, background, d_pixel, sample_grads);
            let density_mlp = model.density_mlp();
            let color_mlp = model.color_mlp();
            let geo = model.geo_feature_dim();
            let c_in = color_mlp.input_dim();
            let d_out_dim = density_mlp.output_dim();
            let enc_dim = density_mlp.input_dim();
            d_rgb.clear();
            d_rgb.extend(sample_grads.iter().flat_map(|g| g.d_color.to_array()));
            d_color_in.resize(n * c_in, 0.0);
            color_mlp.backward_batch(color, d_rgb, d_color_in, &mut grads.color);
            d_density_out.resize(n * d_out_dim, 0.0);
            for (s, g) in sample_grads.iter().enumerate() {
                let row = &mut d_density_out[s * d_out_dim..(s + 1) * d_out_dim];
                row[0] = if clamped[s] { 0.0 } else { g.d_sigma * sigma[s] };
                row[1..].copy_from_slice(&d_color_in[s * c_in..s * c_in + geo]);
            }
            d_encoded.resize(n * enc_dim, 0.0);
            density_mlp.backward_batch(density, d_density_out, d_encoded, &mut grads.density);
            model.grid().backward_batch(samples.positions(), d_encoded, &mut grads.grid, enc);
        });
    }
}
