//! Regenerates the paper's tables and figures: `experiments <name>`
//! runs one (`table3`, `fig13`, `ablation_t2`, ...), `experiments all`
//! runs every paper table and figure in paper order. An unknown name
//! prints the list of names and exits non-zero.

use std::process::ExitCode;

use fusion3d_bench::experiments;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [name] = args.as_slice() else {
        let names: Vec<&str> = experiments::EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("usage: experiments <all | {}>", names.join(" | "));
        return ExitCode::from(2);
    };
    match experiments::run(name) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("{err}");
            ExitCode::from(2)
        }
    }
}
