//! The rule-scope table: which files, crates and functions each rule
//! covers. Every engine asks here; no rule keeps its own path list.
//! `tests/scope_table.rs` fails when an entry names a file or
//! function the workspace no longer has.

use crate::parse::FnItem;

/// Crates whose outputs feed reported results: hash-container
/// iteration (D1) and ambient nondeterminism (D2) are banned here,
/// every public fn is a P2 panic-freedom entry point, and P2/H2
/// sources count only here (a call that crosses into `bench`/`lint`
/// leaves the library surface).
pub const RESULT_BEARING_CRATES: &[&str] =
    &["nerf", "core", "mem", "multichip", "arith", "par", "obs", "serve"];

/// Crates whose library code may print (O1): the experiment harness
/// renders tables and the lint tool renders findings.
pub const PRINTING_CRATES: &[&str] = &["bench", "lint"];

/// Accounting modules where lossy casts silently corrupt cycle and
/// energy totals (A1); the A3 unit-consistency dataflow shares this
/// scope.
pub const ACCOUNTING_FILES: &[&str] = &[
    "crates/core/src/energy.rs",
    "crates/core/src/bandwidth.rs",
    "crates/core/src/pipeline_sim.rs",
    "crates/mem/src/energy.rs",
    "crates/multichip/src/comm.rs",
];

/// Hot-path kernel modules with an allocation-free contract (H1): the
/// batched SoA kernels of the NeRF compute core.
pub const HOT_PATH_FILES: &[&str] =
    &["crates/nerf/src/encoding.rs", "crates/nerf/src/mlp.rs", "crates/nerf/src/render.rs"];

/// Files under the A2 overflow-bounds contract: quantized arithmetic,
/// every cycle/energy/byte accounting module, and the `.f3dm`
/// container codec, whose header sizes come from outside bytes. The
/// float-heavy balance/moe/system models in `multichip` are out of
/// scope — their results are `f64` end to end.
pub const A2_FILES: &[&str] = &[
    "crates/arith/src/cost.rs",
    "crates/arith/src/fiem.rs",
    "crates/core/src/bandwidth.rs",
    "crates/core/src/energy.rs",
    "crates/core/src/pipeline_sim.rs",
    "crates/mem/src/banks.rs",
    "crates/mem/src/energy.rs",
    "crates/mem/src/interconnect.rs",
    "crates/mem/src/sram.rs",
    "crates/multichip/src/chiplet.rs",
    "crates/multichip/src/comm.rs",
    "crates/nerf/src/io.rs",
    "crates/nerf/src/mlp_int8.rs",
];

/// Files under the A4 quantization-width audit: the INT8 MLP and the
/// fixed-point exact-integer multiply path.
pub const A4_FILES: &[&str] = &["crates/arith/src/fiem.rs", "crates/nerf/src/mlp_int8.rs"];

/// H2 entry points as `(crate, fn)`; a `Type::name` entry matches
/// only that impl's method. `fusion3d-nerf`: the render surfaces and
/// their tile routine, the batched and multi-ray forward/backward
/// kernels, and the training step — the outer `train` epoch loop is
/// deliberately not one, since setup before the first step may
/// allocate. `fusion3d-serve`: the steady-state request path —
/// admission, batch drain and batched render; the trace event loop
/// and the registry miss path (a container load, cold by definition)
/// are not.
pub const H2_ENTRIES: &[(&str, &str)] = &[
    ("nerf", "render_image"),
    ("nerf", "render_image_probed"),
    ("nerf", "render_pixel"),
    ("nerf", "render_pixel_depth"),
    ("nerf", "render_depth_image"),
    ("nerf", "render_radiance"),
    ("nerf", "render_views_into"),
    ("nerf", "trace_frame"),
    ("nerf", "shade_rays"),
    ("nerf", "flush_tile"),
    ("nerf", "forward_batch"),
    ("nerf", "forward_batch_infer"),
    ("nerf", "forward_rays_infer"),
    ("nerf", "backward_batch"),
    ("nerf", "interpolate_batch"),
    ("nerf", "interpolate_batch_infer"),
    ("nerf", "Trainer::step"),
    ("serve", "admit"),
    ("serve", "pop_batch_into"),
    ("serve", "render_batch"),
    ("serve", "touch"),
    ("serve", "scene"),
];

/// The deterministic dispatch combinators of `fusion3d-par`; closures
/// passed to these run on worker threads (D4/D5 scope).
pub const PAR_COMBINATORS: &[&str] = &[
    "parallel_chunks",
    "parallel_chunks_with",
    "parallel_chunks_with_stats",
    "parallel_map_reduce",
    "parallel_flat_map",
    "parallel_flat_map_with",
    "run_tasks",
];

/// Which rules apply to the file at a workspace-relative path. P2 and
/// H2 read it per function: P2 entries and sources, and H2 sources.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Scope {
    /// D1 hash containers.
    pub(crate) d1: bool,
    /// D2 wall clock, ambient randomness, environment reads.
    pub(crate) d2: bool,
    /// D3 raw threads; D4/D5 par-closure reductions and captures.
    /// `par`'s own threads and index-addressed slots *are* the
    /// deterministic dispatch mechanism, so it is exempt from all
    /// three.
    pub(crate) d3: bool,
    /// P1 panicking constructs: library code, not binaries.
    pub(crate) p1: bool,
    /// P2 panic reachability.
    pub(crate) p2: bool,
    /// A1 lossy casts and A3 unit consistency.
    pub(crate) a1: bool,
    /// A2 overflow bounds.
    pub(crate) a2: bool,
    /// A4 quantization widths.
    pub(crate) a4: bool,
    /// H1 allocations in hot-path modules.
    pub(crate) h1: bool,
    /// H2 allocation sources. `par` is exempt: its per-dispatch slot
    /// vectors are the fan-out mechanism, amortized across a chunk
    /// batch.
    pub(crate) h2: bool,
    /// O1 printing.
    pub(crate) o1: bool,
}

impl Scope {
    /// The scope of the file at `path` (workspace-relative, forward
    /// slashes).
    pub(crate) fn of(path: &str) -> Scope {
        let krate = crate_of(path).unwrap_or("");
        let result_bearing = RESULT_BEARING_CRATES.contains(&krate);
        let bin = path.contains("/bin/");
        Scope {
            d1: result_bearing,
            d2: result_bearing,
            d3: krate != "par",
            p1: !bin,
            p2: result_bearing,
            a1: ACCOUNTING_FILES.contains(&path),
            a2: A2_FILES.contains(&path),
            a4: A4_FILES.contains(&path),
            h1: HOT_PATH_FILES.contains(&path),
            h2: result_bearing && krate != "par",
            o1: !bin && !PRINTING_CRATES.contains(&krate),
        }
    }
}

/// The crate a workspace-relative path belongs to (`fusion3d` for the
/// façade crate's `src/`).
pub fn crate_of(path: &str) -> Option<&str> {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next()
    } else if path.starts_with("src/") {
        Some("fusion3d")
    } else {
        None
    }
}

/// Whether `item` in `krate` is an [`H2_ENTRIES`] entry point.
pub(crate) fn is_h2_entry(krate: &str, item: &FnItem) -> bool {
    H2_ENTRIES.iter().any(|&(k, entry)| k == krate && names_fn(entry, item))
}

/// Whether the table entry `entry` (`name` or `Type::name`) names
/// `item`.
pub fn names_fn(entry: &str, item: &FnItem) -> bool {
    match entry.split_once("::") {
        Some((ty, name)) => item.self_type.as_deref() == Some(ty) && item.name == name,
        None => item.name == entry,
    }
}
