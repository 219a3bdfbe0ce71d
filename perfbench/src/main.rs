//! The ReQISC benchmark harness: runs one workload and prints one JSON
//! result line last on stdout.
//!
//! ```text
//! perfbench --reqiscd PATH --workload compile_cold|serve_warm|serve_mixed \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `perfbench/run.py` builds this harness and `reqiscd` from the checkout
//! and runs it; see `perfbench/README.md` for the workloads and metrics.

mod compile_cold;
mod cpu;
mod daemon;
mod inputs;
mod oracle;
mod report;
mod serve;
mod stats;

use std::path::PathBuf;

/// Parsed command line.
struct Args {
    reqiscd: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        reqiscd: PathBuf::new(),
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--reqiscd" => args.reqiscd = PathBuf::from(value),
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?.max(1),
            "--trace" => args.trace = num(&value)? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let report = match args.workload.as_str() {
        "compile_cold" => compile_cold::run(seed, seconds, trace),
        "serve_warm" => serve::warm(&args.reqiscd, seed, seconds, trace),
        "serve_mixed" => serve::mixed(&args.reqiscd, seed, trace),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    // Every workload reports every metric of the manifest's list for
    // its mode; a traced run's unreached layers read 0.
    let (list, zero_missing) = if trace {
        (report::PER_LAYER, true)
    } else {
        (report::END_TO_END, false)
    };
    let report = report.map_err(|e| e.to_string()).and_then(|mut r| {
        r.complete(list, zero_missing)?;
        Ok(r)
    });
    match report {
        Ok(r) => println!("{}", r.to_json()),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
