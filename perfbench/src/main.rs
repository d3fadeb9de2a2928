//! The SLIM benchmark: one workload per run, end-to-end metrics with
//! tracing off or per-layer metrics with `--trace 1`, printed as one
//! JSON line (the last line of standard output).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-cab --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads, metrics and the layer each metric should move are
//! described in `NOTES.md` beside this package and in the repository's
//! `BENCHMARK.json`.

mod batch;
mod measure;
mod reader;
mod stream;

use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str =
    "usage: slim-perfbench --workload <batch-cab|batch-sm-lsh|stream-serve|stream-ckpt> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    // Checkpoint files go under the working directory (the checkout the
    // benchmark runs in), never to a system temp directory.
    let scratch = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    let mut outcome = match args.workload.as_str() {
        "batch-cab" => batch::run(batch::Kind::Cab, args.seed, budget, args.trace),
        "batch-sm-lsh" => batch::run(batch::Kind::SmLsh, args.seed, budget, args.trace),
        "stream-serve" => stream::run(stream::Kind::Serve, args.seed, budget, args.trace, &scratch),
        "stream-ckpt" => stream::run(stream::Kind::Ckpt, args.seed, budget, args.trace, &scratch),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(parent) = scratch.parent() {
        // Removes the shared parent only once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    outcome.set("peak_rss_mb", measure::peak_rss_mb());
    for p in &outcome.problems {
        eprintln!("correctness: {p}");
    }
    println!("{}", outcome.render(args.trace));
}
