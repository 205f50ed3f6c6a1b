//! The H2O benchmark: one command, three workloads, every answer checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints one accounting line (per-class attempts, failures and sample
//! counts, engine settings) and, as the last line, the result object
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. `--self-test` corrupts one expected answer and one
//! response; the run must then report both as failed and exit non-zero.
//! See `perfbench/README.md`.

mod adapt;
mod common;
mod ingest;
mod layers;
mod serve;

use common::Args;

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload serve_mix|adapt_shift|ingest_read --seed N --seconds N --trace 0|1 [--self-test]"
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "serve_mix" => serve::run(&args),
        "adapt_shift" => adapt::run(&args),
        "ingest_read" => ingest::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!("{}", result.accounting);
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        result.correct,
        result.attempted,
        result.failed,
        result.metrics.to_json()
    );
    if !result.correct || result.failed > 0 {
        std::process::exit(1);
    }
}
