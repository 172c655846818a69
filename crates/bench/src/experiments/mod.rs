//! One module per paper table/figure; each exposes `run*` functions
//! that print the reproduced rows/series. [`EXPERIMENTS`] names them,
//! in paper order, for the `experiments` binary.

pub mod ablations;
pub mod breakdown;
pub mod design_space;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig3;
pub mod fig8;
pub mod fig9_fig10;
pub mod scaling;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4_table5;
pub mod table6;

/// A named entry of the `experiments` binary.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Command-line name, e.g. `table3` or `fig13`.
    pub name: &'static str,
    /// Prints the experiment's rows/series to stdout.
    pub run: fn(),
    /// Whether `all` runs it. Every paper table and figure does; the
    /// design-space exploration, which is not one, runs by name only.
    pub in_all: bool,
}

const fn paper(name: &'static str, run: fn()) -> Experiment {
    Experiment { name, run, in_all: true }
}

/// Every experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    paper("table1", table1::run),
    paper("table2", table2::run),
    paper("fig3", fig3::run),
    paper("table3", table3::run),
    paper("fig8", fig8::run),
    paper("fig9", fig9_fig10::run_fig9),
    paper("fig10", fig9_fig10::run_fig10),
    paper("fig11", fig11::run),
    paper("table4", table4_table5::run_table4),
    paper("table5", table4_table5::run_table5),
    paper("table6", table6::run),
    paper("fig12", fig12::run),
    paper("fig13", || {
        fig13::run_fig13a();
        fig13::run_fig13b();
    }),
    paper("fig14", fig14::run),
    paper("ablation_t2", ablations::run_t2),
    paper("ablation_breakdown", ablations::run_breakdown),
    paper("ablation_transfer", || {
        ablations::run_transfer();
        ablations::run_dense_moe();
    }),
    paper("scaling", scaling::run),
    Experiment { name: "design_space", run: design_space::run, in_all: false },
];

/// No experiment has the requested name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment(pub String);

impl std::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown experiment `{}`; expected `all` or one of:", self.0)?;
        for e in EXPERIMENTS {
            write!(f, " {}", e.name)?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownExperiment {}

/// Runs the experiment called `name`, or with `all` every paper table
/// and figure in paper order.
///
/// # Errors
///
/// [`UnknownExperiment`] when `name` is neither `all` nor in
/// [`EXPERIMENTS`]; nothing runs.
pub fn run(name: &str) -> Result<(), UnknownExperiment> {
    if name == "all" {
        println!("Fusion-3D (MICRO 2024) reproduction: all tables and figures\n");
        for e in EXPERIMENTS.iter().filter(|e| e.in_all) {
            (e.run)();
        }
        return Ok(());
    }
    let e = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| UnknownExperiment(name.to_string()))?;
    (e.run)();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_all_is_reserved() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert_ne!(e.name, "all", "`all` is the run-everything name");
            assert!(
                EXPERIMENTS[i + 1..].iter().all(|other| other.name != e.name),
                "duplicate experiment name {}",
                e.name
            );
        }
    }

    #[test]
    fn unknown_name_is_an_error_listing_every_name() {
        let err = run("no-such-table").unwrap_err();
        assert_eq!(err, UnknownExperiment("no-such-table".to_string()));
        let message = err.to_string();
        for e in EXPERIMENTS {
            assert!(message.contains(e.name), "{message} lacks {}", e.name);
        }
    }
}
