//! Host limits measured in the traced run's own process: a STREAM-style
//! triad for memory bandwidth and a multiply-add loop for f32
//! throughput, both on one thread, since layer times are summed per
//! thread. A layer's `roofline_pct` is its achieved flop rate over the
//! lower of peak flops and bandwidth × its arithmetic intensity. Bytes
//! and flops are computed from tensor sizes, not counted by hardware.

use fusion3d_nerf::model::NerfModel;
use std::hint::black_box;
use std::time::Instant;

/// Elements per triad array: three arrays of 32 MiB each.
pub const TRIAD_ELEMS: usize = 8 << 20;

/// Measured single-thread host limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostLimits {
    /// Triad bandwidth, bytes/s.
    pub bytes_per_s: f64,
    /// f32 multiply-add throughput, flops/s.
    pub flops_per_s: f64,
}

impl HostLimits {
    /// Measures both limits; each is the best of `rounds` repetitions.
    pub fn measure(rounds: usize) -> Self {
        HostLimits { bytes_per_s: triad(TRIAD_ELEMS, rounds), flops_per_s: fma(rounds) }
    }

    /// Percent of the roofline bound reached by `work` done in
    /// `seconds`.
    pub fn percent(&self, work: Work, seconds: f64) -> f64 {
        let Work { flops, bytes } = work;
        if flops <= 0.0 || bytes <= 0.0 || seconds <= 0.0 {
            return 0.0;
        }
        let bound = self.flops_per_s.min(self.bytes_per_s * flops / bytes);
        100.0 * flops / seconds / bound
    }
}

/// Best-of-`rounds` triad `a = b + s·c` bandwidth over `n`-element
/// arrays, counting 12 bytes per element (two reads, one write).
pub fn triad(n: usize, rounds: usize) -> f64 {
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let mut a = vec![0.0f32; n];
    let mut best = f64::INFINITY;
    for round in 0..rounds.max(1) {
        let s = black_box(0.5 + round as f32);
        let start = Instant::now();
        for ((a, &b), &c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (12 * n) as f64 / best
}

/// Best-of-`rounds` f32 throughput of independent multiply-add chains
/// wide enough to fill the vector units, counting two flops each.
pub fn fma(rounds: usize) -> f64 {
    const LANES: usize = 64;
    const ITERS: usize = 1 << 20;
    let mut best = f64::INFINITY;
    for _ in 0..rounds.max(1) {
        let mut acc = black_box([1.0f32; LANES]);
        let (x, y) = (black_box(0.999_999f32), black_box(1e-7f32));
        let start = Instant::now();
        for _ in 0..ITERS {
            for v in acc.iter_mut() {
                *v = *v * x + y;
            }
        }
        black_box(&acc);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (2 * LANES * ITERS) as f64 / best
}

/// Computed work of a layer: flops and bytes moved.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    /// Floating-point operations.
    pub flops: f64,
    /// Bytes read and written.
    pub bytes: f64,
}

/// Hash-grid encoding of `points`: per level, 8 corner weights (16
/// flops) and one multiply-add per corner feature; reads the position
/// and 8 corner rows of f32 features, writes the encoded row.
pub fn encoding_work(model: &NerfModel, points: u64) -> Work {
    let config = model.grid().config();
    let (levels, features) = (config.levels as f64, config.features_per_level as f64);
    let points = points as f64;
    Work {
        flops: points * levels * (16.0 + 16.0 * features),
        bytes: points * (12.0 + levels * 8.0 * features * 4.0 + levels * features * 4.0),
    }
}

/// Density and colour MLP forwards over `points` in `calls` batches:
/// two flops per multiply-accumulate; reads every weight once per
/// batch, and every layer's input and output activations per point.
pub fn mlp_work(model: &NerfModel, points: u64, calls: u64) -> Work {
    let (d, c) = (model.density_mlp(), model.color_mlp());
    let macs = (d.macs_per_forward() + c.macs_per_forward()) as f64;
    let activations: usize =
        [d, c].iter().map(|m| m.dims().windows(2).map(|w| w[0] + w[1]).sum::<usize>()).sum();
    let params = (d.param_count() + c.param_count()) as f64;
    Work {
        flops: 2.0 * macs * points as f64,
        bytes: 4.0 * (params * calls as f64 + activations as f64 * points as f64),
    }
}

/// Compositing `samples`: about 12 flops per sample (alpha, weight,
/// three colour multiply-adds, transmittance); reads the 20-byte shaded
/// sample and writes its 4-byte weight.
pub fn render_work(samples: u64) -> Work {
    Work { flops: 12.0 * samples as f64, bytes: 24.0 * samples as f64 }
}

/// Adam over `params` parameter visits: about 12 flops each; reads
/// parameter, gradient and both moments, writes parameter and moments.
pub fn adam_work(params: u64) -> Work {
    Work { flops: 12.0 * params as f64, bytes: 28.0 * params as f64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_positive_limits() {
        assert!(triad(1 << 16, 2) > 0.0);
        assert!(fma(1) > 0.0);
    }

    #[test]
    fn percent_takes_the_binding_limit() {
        let limits = HostLimits { bytes_per_s: 10.0, flops_per_s: 100.0 };
        // Intensity 1 flop/byte: bandwidth-bound at 10 flops/s.
        assert_eq!(limits.percent(Work { flops: 10.0, bytes: 10.0 }, 2.0), 50.0);
        // Intensity 100 flops/byte: compute-bound at 100 flops/s.
        assert_eq!(limits.percent(Work { flops: 100.0, bytes: 1.0 }, 1.0), 100.0);
        assert_eq!(limits.percent(Work::default(), 1.0), 0.0);
    }
}
