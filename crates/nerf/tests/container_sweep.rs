//! Exhaustive damage sweeps over the `.f3dm` container decoder: the
//! executable backing for the static P2/A2 proofs on `nerf::io`.
//! Every strict prefix of a container must decode to `Err`, and every
//! single-bit flip of the header, the occupancy bitmap and a strided
//! sample of the payload must decode to `Ok` or `Err` — never a panic
//! or an abort.

use fusion3d_nerf::io::{decode_model_into, encode_model, peek_header, Precision};
use fusion3d_nerf::{HashGridConfig, ModelConfig, NerfModel, OccupancyGrid};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Bytes before the occupancy bitmap: the fixed header.
const HEADER_BYTES: usize = 44;

/// A model small enough that sweeping every prefix stays cheap.
fn tiny_model(seed: u64) -> NerfModel {
    let grid = HashGridConfig {
        levels: 2,
        features_per_level: 2,
        log2_table_size: 5,
        base_resolution: 2,
        max_resolution: 4,
    };
    let config = ModelConfig { grid, hidden_dim: 4, geo_feature_dim: 2 };
    NerfModel::new(config, &mut SmallRng::seed_from_u64(seed))
}

fn container(precision: Precision) -> (Vec<u8>, usize) {
    let occupancy = OccupancyGrid::from_oracle(6, 0.25, |p| p.x + p.y < 1.0);
    let bitmap_bytes = occupancy.cell_count().div_ceil(8);
    (encode_model(&tiny_model(1), &occupancy, precision), bitmap_bytes)
}

#[test]
fn every_strict_prefix_is_rejected() {
    for precision in [Precision::F32, Precision::F16] {
        let (bytes, _) = container(precision);
        let mut model = tiny_model(2);
        assert!(decode_model_into(&bytes, &mut model).is_ok(), "the intact container decodes");
        for len in 0..bytes.len() {
            let prefix = &bytes[..len];
            assert!(
                decode_model_into(prefix, &mut model).is_err(),
                "{precision:?} prefix of {len}/{} bytes decoded",
                bytes.len()
            );
            if len < HEADER_BYTES - 4 {
                assert!(peek_header(prefix).is_err(), "{len}-byte header prefix parsed");
            }
        }
    }
}

#[test]
fn every_bit_flip_decodes_or_errors() {
    for precision in [Precision::F32, Precision::F16] {
        let (bytes, bitmap_bytes) = container(precision);
        let payload_start = HEADER_BYTES + bitmap_bytes;
        // The whole header and bitmap, then every 7th payload byte.
        let positions = (0..payload_start).chain((payload_start..bytes.len()).step_by(7));
        let mut model = tiny_model(3);
        let mut flips = 0;
        for byte in positions {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[byte] ^= 1 << bit;
                // Either outcome is fine; returning at all is the test.
                let _ = peek_header(&damaged);
                let _ = decode_model_into(&damaged, &mut model);
                flips += 1;
            }
        }
        assert!(flips > 8 * payload_start, "{precision:?}: only {flips} flips swept");
    }
}
