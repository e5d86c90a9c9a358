//! The unified experiment runner: any subset of the paper's figures
//! through the cached parallel runner.
//!
//! ```sh
//! cargo run --release -p rlb-bench --bin bench -- \
//!     --figs fig3 --seeds 3 --json BENCH_fig3_quick.json
//! ```

use rlb_bench::cli::BenchCli;
use rlb_bench::drive::{drive, DriveError};

fn main() {
    let cli = BenchCli::parse_or_exit(
        "bench",
        "run any subset of the paper's figures (default: all) with caching",
    );
    if let Err(e) = drive(&cli) {
        eprintln!("error: {e}");
        std::process::exit(match e {
            DriveError::Spec(_) => 2,
            DriveError::Run(_) => 1,
        });
    }
}
