//! Property sweeps over the serving layer's outside input: `.f3dm`
//! container bytes and request traces. Every case must return — `Ok`
//! or `Err`, never a panic or an abort — and a container whose header
//! claims more bytes than it holds must be refused before anything
//! sized by that claim is allocated.

use fusion3d_nerf::io::{decode_model_into, encode_model, peek_header, Precision, MAGIC, VERSION};
use fusion3d_nerf::{HashGridConfig, ModelConfig, NerfModel, OccupancyGrid, Vec3};
use fusion3d_serve::{Request, SceneId, SceneRegistry, SceneStore, ServeConfig, ServeSim};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A model small enough that a complete container is a few KB.
fn tiny_config() -> ModelConfig {
    let grid = HashGridConfig {
        levels: 2,
        features_per_level: 2,
        log2_table_size: 5,
        base_resolution: 2,
        max_resolution: 4,
    };
    ModelConfig { grid, hidden_dim: 4, geo_feature_dim: 2 }
}

fn tiny_model() -> NerfModel {
    NerfModel::new(tiny_config(), &mut SmallRng::seed_from_u64(1))
}

/// The tiny model's (encoding, density, color) parameter counts, read
/// back from a real container so the sweep can claim the right shape.
fn tiny_counts() -> (u64, u64, u64) {
    let occupancy = OccupancyGrid::new(2, 0.5);
    let bytes = encode_model(&tiny_model(), &occupancy, Precision::F32);
    peek_header(&bytes).expect("a fresh container parses").param_counts
}

/// The fields of one generated 44-byte header.
#[derive(Debug, Clone, Copy)]
struct Header {
    good_magic: bool,
    good_version: bool,
    precision: u8,
    counts: (u64, u64, u64),
    resolution: u32,
    threshold: f32,
}

/// Random header fields: mostly well-formed magic and version (so the
/// sweep reaches the size checks), any of the two precision tags or
/// a bad one, counts that either match the tiny model or are
/// arbitrary, and a resolution that is either small or any `u32`.
fn arb_header() -> impl Strategy<Value = Header> {
    (
        (0u8..8, 0u8..8, 0u8..3),
        (any::<bool>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<bool>(), any::<u32>()),
        any::<f32>(),
    )
        .prop_map(
            |((magic, version, precision), (match_counts, e, d, c), (small, res), threshold)| {
                Header {
                    good_magic: magic != 0,
                    good_version: version != 0,
                    precision,
                    counts: if match_counts { tiny_counts() } else { (e, d, c) },
                    resolution: if small { res % 12 } else { res },
                    threshold,
                }
            },
        )
}

/// The header's 44 bytes followed by `tail_len` copies of `tail_byte`.
fn container(h: Header, tail_len: usize, tail_byte: u8) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(44 + tail_len);
    bytes.extend_from_slice(if h.good_magic { &MAGIC } else { b"F3DX" });
    bytes.extend_from_slice(&(if h.good_version { VERSION } else { VERSION + 1 }).to_le_bytes());
    bytes.extend_from_slice(&[h.precision, 0]);
    bytes.extend_from_slice(&2u32.to_le_bytes());
    for count in [h.counts.0, h.counts.1, h.counts.2] {
        bytes.extend_from_slice(&count.to_le_bytes());
    }
    bytes.extend_from_slice(&h.resolution.to_le_bytes());
    bytes.extend_from_slice(&h.threshold.to_le_bytes());
    bytes.resize(44 + tail_len, tail_byte);
    bytes
}

proptest! {
    /// Random headers with random tails through every entry point that
    /// reads container bytes: the header peek, the full decode and
    /// the registry's up-front validation.
    #[test]
    fn random_containers_are_refused_or_decoded(
        header in arb_header(),
        tail_len in 0usize..1200,
        tail_byte: u8,
    ) {
        let bytes = container(header, tail_len, tail_byte);
        let mut model = tiny_model();
        let decoded = decode_model_into(&bytes, &mut model);
        let mut store = SceneStore::new();
        store.register("random", tiny_config(), Vec3::ONE, bytes.clone());
        let registry = SceneRegistry::new(&store, u64::MAX);
        if let Ok(parsed) = peek_header(&bytes) {
            if parsed.container_bytes() > bytes.len() as u64 {
                prop_assert!(decoded.is_err(), "decoded a container claiming too many bytes");
                prop_assert!(registry.is_err(), "registered a container claiming too many bytes");
            }
        } else {
            prop_assert!(decoded.is_err());
            prop_assert!(registry.is_err());
        }
    }

    /// Random traces — unsorted arrival cycles, scene ids the store
    /// does not hold, any pose — replay to completion, and every
    /// request is either completed or rejected.
    #[test]
    fn random_traces_account_for_every_request(
        raw in prop::collection::vec((0u64..5_000, 0u32..4, any::<u32>()), 0..24),
        executors in 1usize..3,
        queue_capacity in 1usize..4,
    ) {
        let config = ServeConfig {
            executors,
            queue_capacity,
            max_batch: 2,
            resolution: 6,
            path_len: 3,
            ..ServeConfig::default()
        };
        let mut sim = ServeSim::synthetic(2, &config).expect("two-scene sim");
        let trace: Vec<Request> = raw
            .iter()
            .map(|&(cycle, scene, pose)| Request { cycle, scene: SceneId(scene), pose })
            .collect();
        let outcome = sim.run_trace(&trace).expect("replay");
        prop_assert_eq!(outcome.completed + outcome.rejected, trace.len() as u64);
    }
}
