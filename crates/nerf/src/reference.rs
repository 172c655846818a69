//! Scalar reference oracle for differential testing of the batched
//! kernels.
//!
//! This module restates the field's mathematics independently, one
//! sample at a time, with the plainest loops that compute it: its own
//! hash-grid locate, gather and scatter, its own matrix–vector MLP
//! forward and backward, and its own composition of the two networks.
//! It reads the models only through public accessors
//! ([`HashGrid::resolutions`], [`HashGrid::params`],
//! [`Mlp::dims`], [`Mlp::layer_params`], [`Mlp::layer_activation`])
//! and shares only the primitives that *define* the field —
//! [`vertex_address`], [`cell_corners`], [`sh_encode`] and
//! [`Activation`](crate::mlp::Activation). It never calls a batched
//! kernel, so the batched code cannot vouch for itself.
//!
//! The production kernels in [`crate::encoding`], [`crate::mlp`] and
//! [`crate::model`] carry a bitwise-determinism contract against these
//! loops: for identical inputs they produce bit-for-bit identical f32
//! results. The contract fixes every reduction order, which these
//! loops spell out:
//!
//! * a level's feature is summed corner-ascending from zero, each
//!   weight multiplied as `(wx · wy) · wz`;
//! * a neuron is its bias plus its inputs in ascending order;
//! * a gradient element accumulates its samples in ascending order.
//!
//! The differential tests in `tests/batched_kernels.rs` enforce the
//! contract at several batch sizes, including sizes that are not
//! multiples of the GEMM tile widths.
//!
//! These functions allocate freely and are deliberately unoptimized —
//! they exist to be obviously correct, not fast. Production code paths
//! must use the batched kernels.

use crate::encoding::HashGrid;
use crate::hash::{cell_corners, vertex_address, GridVertex};
use crate::math::Vec3;
use crate::mlp::{sh_encode, Mlp, SH_DIM};
use crate::model::{ModelGrads, NerfModel, RAW_DENSITY_CLAMP};

/// Base vertex and fractional position of `p` (clamped into the unit
/// cube) on a level of virtual resolution `res`.
fn locate(p: Vec3, res: u32) -> (GridVertex, Vec3) {
    let q = p.clamp(0.0, 1.0) * res as f32;
    // The base stays one short of the far face so base + 1 exists.
    let max_base = res.saturating_sub(1);
    let base = [
        (q.x.floor() as u32).min(max_base),
        (q.y.floor() as u32).min(max_base),
        (q.z.floor() as u32).min(max_base),
    ];
    let frac = Vec3::new(q.x - base[0] as f32, q.y - base[1] as f32, q.z - base[2] as f32);
    (base, frac.clamp(0.0, 1.0))
}

/// Trilinear weight of corner `i` (bit 0 = +X, bit 1 = +Y, bit 2 = +Z).
fn corner_weight(frac: Vec3, i: usize) -> f32 {
    let wx = if i & 1 == 0 { 1.0 - frac.x } else { frac.x };
    let wy = if i & 2 == 0 { 1.0 - frac.y } else { frac.y };
    let wz = if i & 4 == 0 { 1.0 - frac.z } else { frac.z };
    wx * wy * wz
}

/// The eight `(parameter index, weight)` pairs `p` touches on `level`
/// (of virtual resolution `res`): the index of each corner's first
/// feature in [`HashGrid::params`] and its trilinear weight, in corner
/// order.
fn level_corners(grid: &HashGrid, level: usize, res: u32, p: Vec3) -> [(usize, f32); 8] {
    let config = grid.config();
    let f = config.features_per_level;
    let (base, frac) = locate(p, res);
    let offset = level * config.table_size() * f;
    let mut out = [(0, 0.0); 8];
    for (i, (&corner, slot)) in cell_corners(base).iter().zip(out.iter_mut()).enumerate() {
        let address = vertex_address(corner, res, config.log2_table_size) as usize;
        *slot = (offset + address * f, corner_weight(frac, i));
    }
    out
}

/// Encodes every position, returning point-major rows of
/// `grid.config().output_dim()` features.
pub fn encode_points(grid: &HashGrid, positions: &[Vec3]) -> Vec<f32> {
    let f = grid.config().features_per_level;
    let params = grid.params();
    let mut out = vec![0.0f32; positions.len() * grid.config().output_dim()];
    for (&p, row) in positions.iter().zip(out.chunks_exact_mut(grid.config().output_dim())) {
        for (level, (feature, &res)) in row.chunks_exact_mut(f).zip(grid.resolutions()).enumerate()
        {
            for (index, w) in level_corners(grid, level, res, p) {
                for (acc, &v) in feature.iter_mut().zip(&params[index..index + f]) {
                    *acc += w * v;
                }
            }
        }
    }
    out
}

/// Scatters feature gradients into `grads` (length
/// `grid.params().len()`), accumulating in point order. `d_out` holds
/// point-major rows of `grid.config().output_dim()` gradients.
///
/// # Panics
///
/// Panics if `d_out` is not `positions.len() * output_dim` long or
/// `grads` does not match the parameter count.
pub fn encode_backward(grid: &HashGrid, positions: &[Vec3], d_out: &[f32], grads: &mut [f32]) {
    let dim = grid.config().output_dim();
    let f = grid.config().features_per_level;
    assert_eq!(d_out.len(), positions.len() * dim, "gradient rows do not match positions");
    assert_eq!(grads.len(), grid.params().len(), "parameter gradient size mismatch");
    for (&p, d_row) in positions.iter().zip(d_out.chunks_exact(dim)) {
        for (level, (d_feature, &res)) in d_row.chunks_exact(f).zip(grid.resolutions()).enumerate()
        {
            for (index, w) in level_corners(grid, level, res, p) {
                for (g, &d) in grads[index..index + f].iter_mut().zip(d_feature) {
                    *g += w * d;
                }
            }
        }
    }
}

/// Index of each layer's weight matrix in the flat [`Mlp::params`]
/// layout (row-major `out × in` weights, then `out` biases, per layer).
fn layer_offsets(mlp: &Mlp) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(mlp.layer_count());
    let mut offset = 0;
    for w in mlp.dims().windows(2) {
        offsets.push(offset);
        offset += w[0] * w[1] + w[1];
    }
    offsets
}

/// Every layer's post-activation output for one input, input first.
fn forward_activations(mlp: &Mlp, input: &[f32]) -> Vec<Vec<f32>> {
    let mut activations = vec![input.to_vec()];
    for layer in 0..mlp.layer_count() {
        let (weights, biases) = mlp.layer_params(layer);
        let activation = mlp.layer_activation(layer);
        let x = &activations[layer];
        let y = weights
            .chunks_exact(x.len())
            .zip(biases)
            .map(|(row, &bias)| {
                let mut acc = bias;
                for (&w, &v) in row.iter().zip(x) {
                    acc += w * v;
                }
                activation.apply(acc)
            })
            .collect();
        activations.push(y);
    }
    activations
}

/// Backpropagates `d_output` through one sample whose activations are
/// `activations`, adding the parameter gradients into `grads` (the
/// [`Mlp::params`] layout) and returning the input gradient.
fn backward_one(
    mlp: &Mlp,
    activations: &[Vec<f32>],
    d_output: &[f32],
    grads: &mut [f32],
) -> Vec<f32> {
    let layers = mlp.layer_count();
    debug_assert_eq!(activations.len(), layers + 1, "one activation row per layer boundary");
    debug_assert_eq!(grads.len(), mlp.params().len(), "gradients match the parameters");
    let offsets = layer_offsets(mlp);
    let output_activation = mlp.layer_activation(layers - 1);
    // dL/d(pre-activation) of the layer being walked.
    let mut delta: Vec<f32> = d_output
        .iter()
        .zip(&activations[layers])
        .map(|(&d, &y)| d * output_activation.derivative_from_output(y))
        .collect();
    let mut layer = layers;
    loop {
        layer -= 1;
        let (weights, _) = mlp.layer_params(layer);
        let x = &activations[layer];
        let (gw, gb) = grads[offsets[layer]..offsets[layer] + weights.len() + delta.len()]
            .split_at_mut(weights.len());
        for ((&d, g_row), g_bias) in delta.iter().zip(gw.chunks_exact_mut(x.len())).zip(gb) {
            for (g, &v) in g_row.iter_mut().zip(x) {
                *g += d * v;
            }
            *g_bias += d;
        }
        let mut d_prev = vec![0.0f32; x.len()];
        for (&d, row) in delta.iter().zip(weights.chunks_exact(x.len())) {
            for (dp, &w) in d_prev.iter_mut().zip(row) {
                *dp += d * w;
            }
        }
        if layer == 0 {
            return d_prev;
        }
        let activation = mlp.layer_activation(layer - 1);
        delta =
            d_prev.iter().zip(x).map(|(&d, &y)| d * activation.derivative_from_output(y)).collect();
    }
}

/// Runs `n` sample-major input rows through the network one at a
/// time, returning sample-major output rows.
///
/// # Panics
///
/// Panics if `inputs` is not `n * mlp.input_dim()` long.
pub fn mlp_forward(mlp: &Mlp, inputs: &[f32], n: usize) -> Vec<f32> {
    let in_dim = mlp.input_dim();
    assert_eq!(inputs.len(), n * in_dim, "input rows do not match the batch size");
    let mut out = Vec::with_capacity(n * mlp.output_dim());
    for x in inputs.chunks_exact(in_dim) {
        out.extend_from_slice(&forward_activations(mlp, x)[mlp.layer_count()]);
    }
    out
}

/// Runs `n` samples forward and backward one at a time, returning
/// `(d_inputs, param_grads)` with per-element gradient contributions
/// accumulated in ascending sample order.
///
/// # Panics
///
/// Panics if `inputs` or `d_outputs` do not match the batch size.
pub fn mlp_backward(
    mlp: &Mlp,
    inputs: &[f32],
    n: usize,
    d_outputs: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let in_dim = mlp.input_dim();
    let out_dim = mlp.output_dim();
    assert_eq!(inputs.len(), n * in_dim, "input rows do not match the batch size");
    assert_eq!(d_outputs.len(), n * out_dim, "gradient rows do not match the batch size");
    let mut d_inputs = Vec::with_capacity(n * in_dim);
    let mut grads = vec![0.0f32; mlp.param_count()];
    for (x, d_y) in inputs.chunks_exact(in_dim).zip(d_outputs.chunks_exact(out_dim)) {
        let activations = forward_activations(mlp, x);
        d_inputs.extend(backward_one(mlp, &activations, d_y, &mut grads));
    }
    (d_inputs, grads)
}

/// One sample's forward state, kept for its backward pass.
struct FieldSample {
    density: Vec<Vec<f32>>,
    color: Vec<Vec<f32>>,
    sigma: f32,
    raw_clamped: bool,
}

/// The field at one point: encoding, density network, the clamped
/// exponential density activation, then the color network over the
/// geometric features followed by the view direction's SH encoding.
fn field_sample(model: &NerfModel, p: Vec3, sh: &[f32; SH_DIM]) -> FieldSample {
    let encoded = encode_points(model.grid(), &[p]);
    let density = forward_activations(model.density_mlp(), &encoded);
    let out = &density[density.len() - 1];
    let raw = out[0];
    let clamped = raw.clamp(-RAW_DENSITY_CLAMP, RAW_DENSITY_CLAMP);
    let mut color_input = out[1..].to_vec();
    color_input.extend_from_slice(sh);
    let color = forward_activations(model.color_mlp(), &color_input);
    FieldSample { density, color, sigma: clamped.exp(), raw_clamped: clamped != raw }
}

/// Evaluates the field at every position for one view direction,
/// returning `(sigmas, colors)`.
pub fn model_forward(
    model: &NerfModel,
    positions: &[Vec3],
    direction: Vec3,
) -> (Vec<f32>, Vec<Vec3>) {
    let mut sh = [0.0f32; SH_DIM];
    sh_encode(direction.to_array(), &mut sh);
    positions
        .iter()
        .map(|&p| {
            let sample = field_sample(model, p, &sh);
            let rgb = &sample.color[sample.color.len() - 1];
            (sample.sigma, Vec3::new(rgb[0], rgb[1], rgb[2]))
        })
        .unzip()
}

/// Backpropagates per-sample density/color gradients through the
/// field one sample at a time (forward `s`, then backward `s`),
/// adding the parameter gradients into `grads`.
///
/// Every parameter element accumulates its contributions in ascending
/// sample order, the order the batched backward pass reproduces.
///
/// # Panics
///
/// Panics if `d_sigma` or `d_color` do not match `positions`, or
/// `grads` does not match `model`.
pub fn model_backward(
    model: &NerfModel,
    positions: &[Vec3],
    direction: Vec3,
    d_sigma: &[f32],
    d_color: &[Vec3],
    grads: &mut ModelGrads,
) {
    assert_eq!(d_sigma.len(), positions.len(), "density gradients do not match positions");
    assert_eq!(d_color.len(), positions.len(), "color gradients do not match positions");
    assert_eq!(grads.len(), model.param_count(), "gradient buffers do not match the model");
    let mut sh = [0.0f32; SH_DIM];
    sh_encode(direction.to_array(), &mut sh);
    let geo = model.geo_feature_dim();
    for ((&p, &ds), &dc) in positions.iter().zip(d_sigma).zip(d_color) {
        let sample = field_sample(model, p, &sh);
        let d_color_in =
            backward_one(model.color_mlp(), &sample.color, &dc.to_array(), &mut grads.color);
        // Output 0 is the density logit (dσ/draw = σ through the
        // exponential, zero where clamped); outputs 1.. feed the color
        // network.
        let mut d_density_out = vec![if sample.raw_clamped { 0.0 } else { ds * sample.sigma }];
        d_density_out.extend_from_slice(&d_color_in[..geo]);
        let d_encoded =
            backward_one(model.density_mlp(), &sample.density, &d_density_out, &mut grads.density);
        encode_backward(model.grid(), &[p], &d_encoded, &mut grads.grid);
    }
}
