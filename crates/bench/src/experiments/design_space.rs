//! Single-chip design-space exploration: interpolation-core sweep and
//! DVFS operating points on a representative workload.

use crate::support::{print_table, scene_trace};
use fusion3d_core::design_space::{sweep_interp_cores, sweep_voltage};
use fusion3d_nerf::scenes::SyntheticScene;

/// Prints the interpolation-core sweep and the DVFS operating points
/// on the lego workload.
pub fn run() {
    let trace = scene_trace(SyntheticScene::Lego);
    let cores = sweep_interp_cores(&trace, &[3, 5, 10, 16, 24]);
    let body: Vec<Vec<String>> = cores
        .iter()
        .map(|p| {
            vec![
                p.interp_cores.to_string(),
                format!("{:.1}", p.inference_pts / 1e6),
                format!("{:.1}", p.training_pts / 1e6),
                format!("{:.2}", p.power_w),
                format!("{:.1}", p.area_mm2),
                format!("{:.0}", p.inference_per_watt() / 1e6),
            ]
        })
        .collect();
    print_table(
        "Design space: interpolation cores (lego workload)",
        &["Cores", "Inf M/s", "Trn M/s", "Power W", "Area mm^2", "M/s/W"],
        &body,
    );

    let volts = sweep_voltage(&trace, &[0.65, 0.75, 0.85, 0.95, 1.05]);
    let body: Vec<Vec<String>> = volts
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.clock_mhz),
                format!("{:.1}", p.inference_pts / 1e6),
                format!("{:.2}", p.power_w),
                format!("{:.0}", p.inference_per_watt() / 1e6),
            ]
        })
        .collect();
    print_table(
        "Design space: DVFS operating points",
        &["MHz", "Inf M/s", "Power W", "M/s/W"],
        &body,
    );
    println!(
        "\nThe published pair sits on this curve: the 5-core prototype for\n\
         mid-range devices, the 10-core scaled-up chip matching Stage II to one\n\
         point per cycle."
    );
}
