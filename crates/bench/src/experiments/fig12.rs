//! Fig. 12: ablations of the multi-chip techniques — (a) Level-1 MoE
//! communication saving, (b) interconnect area saving, (c) feature
//! access latency saving, (d) latency variance, and (e) the memory
//! access pattern under naive banking versus two-level tiling.

use crate::support::{large_scene_trace, print_table};
use fusion3d_mem::banks::{simulate_groups, BankMapping, VertexRequest, BANKS};
use fusion3d_mem::interconnect::{
    compare as compare_interconnect, STAGE2_PORTS, STAGE2_WIDTH_BITS,
};
use fusion3d_multichip::comm::{moe_communication_saving, FrameWorkload};
use fusion3d_nerf::encoding::{HashGrid, HashGridConfig};
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::scenes::LargeScene;

/// Builds the per-point eight-corner request groups of a set of query
/// points on every level of a hash grid.
pub fn request_groups(points: usize) -> Vec<[VertexRequest; 8]> {
    let grid = HashGrid::new(HashGridConfig {
        levels: 10,
        features_per_level: 2,
        log2_table_size: 14,
        base_resolution: 16,
        max_resolution: 1024,
        // High-resolution hashed levels exercise the spatial hash.
    });
    let mut groups = Vec::new();
    let mut trace = Vec::new();
    // A deterministic low-discrepancy point set.
    for i in 0..points {
        let f = i as f32;
        let p =
            Vec3::new((f * 0.754877_7).fract(), (f * 0.569840_4).fract(), (f * 0.402914_6).fract());
        trace.clear();
        grid.record_accesses(&[p], &mut trace);
        for level in trace.chunks(8) {
            let mut group = [VertexRequest { corner: 0, address: 0 }; 8];
            for (g, a) in group.iter_mut().zip(level) {
                *g = VertexRequest { corner: a.corner, address: a.address };
            }
            groups.push(group);
        }
    }
    groups
}

/// Prints the Fig. 12 reproduction.
pub fn run() {
    // (a) Communication saving from Level-1 MoE tiling, on a real
    // large-scene workload.
    let trace = large_scene_trace(LargeScene::Room);
    let saving = moe_communication_saving(
        &FrameWorkload {
            rays: trace.ray_count() as u64,
            samples: trace.total_samples,
            feature_dim: 20,
            training: true,
        },
        4,
    );
    println!("\nFig. 12(a): chip-to-chip communication saving with Level-1 (MoE) tiling");
    println!("  saving = {:.1}% (paper: ~94%)", saving * 100.0);

    // (b, c fixed part) Interconnect comparison.
    let ic = compare_interconnect(STAGE2_PORTS, STAGE2_WIDTH_BITS);
    println!("\nFig. 12(b): interconnect area saving with Level-2/3 tiling");
    println!(
        "  crossbar {:.0} units -> one-to-one {:.0} units: {:.1}% saving",
        ic.crossbar.area,
        ic.one_to_one.area,
        ic.area_saving * 100.0
    );

    // (c, d, e) Bank-conflict simulation on real hash access groups.
    let groups = request_groups(4000);
    let refs: Vec<&[VertexRequest]> = groups.iter().map(|g| g.as_slice()).collect();
    let naive = simulate_groups(BankMapping::LowOrderBits, refs.iter().copied());
    let tiled = simulate_groups(BankMapping::TwoLevelTiling, refs.iter().copied());
    println!("\nFig. 12(c): feature access latency");
    println!(
        "  naive banking: {:.2} cycles/group (min {}, max {})",
        naive.mean_cycles(),
        naive.min_cycles,
        naive.max_cycles
    );
    println!(
        "  two-level tiling: {:.2} cycles/group -> {:.1}% latency saving (+1 cycle/pass from the removed crossbar)",
        tiled.mean_cycles(),
        tiled.latency_saving_vs(&naive) * 100.0
    );
    println!("\nFig. 12(d): feature-fetch latency variance");
    println!("  naive banking: {:.3}   two-level tiling: {:.3}", naive.variance, tiled.variance);
    println!("  latency histogram (groups served in 1..8 cycles):");
    println!("    naive: {:?}", naive.histogram);
    println!("    tiled: {:?}", tiled.histogram);

    // System-level effect of T4: untiled chips run slower and out of
    // lock step.
    {
        use fusion3d_multichip::system::{MultiChipConfig, MultiChipSystem};
        let wl = crate::experiments::table4_table5::per_chip_workloads(LargeScene::Room, 4);
        let tiled = MultiChipSystem::fusion3d().simulate(&wl, false);
        // Per-chip conflict factors measured from independent hash
        // access streams (each chip's own tables and samples).
        let factors: Vec<f64> = (0..4u64)
            .map(|c| {
                let gs = request_groups(1000 + 137 * c as usize);
                let refs: Vec<&[VertexRequest]> = gs.iter().map(|g| g.as_slice()).collect();
                simulate_groups(BankMapping::LowOrderBits, refs.iter().copied()).mean_cycles()
            })
            .collect();
        let naive =
            MultiChipSystem::with_per_chip_gather_cycles(MultiChipConfig::fusion3d(), &factors)
                .simulate(&wl, false);
        println!(
            "\nSystem-level T4 effect (4 chips, Room scene): tiled imbalance {:.2},\n  naive banking imbalance {:.2} and {:.2}x slower end-to-end",
            tiled.imbalance(),
            naive.imbalance(),
            naive.total_seconds / tiled.total_seconds
        );
    }

    // (e) Access pattern: per-bank request counts of a few groups.
    println!("\nFig. 12(e): per-bank requests of four sample groups (8 corners each)");
    let mut body = Vec::new();
    for (i, g) in groups.iter().take(4).enumerate() {
        for (label, mapping) in
            [("naive", BankMapping::LowOrderBits), ("tiled", BankMapping::TwoLevelTiling)]
        {
            let mut per_bank = [0u32; BANKS];
            for &req in g.iter() {
                per_bank[mapping.bank_of(req)] += 1;
            }
            body.push(vec![
                format!("group {i} ({label})"),
                per_bank.map(|c| c.to_string()).join(" "),
            ]);
        }
    }
    print_table("access pattern", &["Group", "Requests per bank 0..7"], &body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiling_is_conflict_free_on_real_hash_accesses() {
        let groups = request_groups(2000);
        let refs: Vec<&[VertexRequest]> = groups.iter().map(|g| g.as_slice()).collect();
        let tiled = simulate_groups(BankMapping::TwoLevelTiling, refs.iter().copied());
        assert_eq!(tiled.conflict_cycles, 0, "two-level tiling must be conflict-free");
        assert_eq!(tiled.variance, 0.0, "Fig. 12(d): variance becomes zero");
        let naive = simulate_groups(BankMapping::LowOrderBits, refs.iter().copied());
        assert!(naive.conflict_cycles > 0, "naive banking must conflict somewhere");
        assert!(naive.variance > 0.0);
        assert!(tiled.latency_saving_vs(&naive) > 0.05);
    }

    #[test]
    fn moe_saving_holds_on_real_trace() {
        let trace = large_scene_trace(LargeScene::Room);
        let saving = moe_communication_saving(
            &FrameWorkload {
                rays: trace.ray_count() as u64,
                samples: trace.total_samples,
                feature_dim: 20,
                training: true,
            },
            4,
        );
        assert!((0.85..=0.999).contains(&saving), "saving {saving}");
    }
}
