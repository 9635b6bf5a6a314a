//! Reproduction driver: regenerates every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT ...] [--scale DENOM] [--seed SEED]
//!
//! EXPERIMENT: a name in `experiments::ALL`, or all   (default: all)
//! --scale DENOM   run at 1/DENOM of the full trace size (default 32)
//! --seed SEED     generator seed (default 20020623)
//! ```

use std::process::ExitCode;

use webcache_bench::experiments::{self, Experiment};
use webcache_bench::{SCALE_DEFAULT, SEED_DEFAULT};

fn main() -> ExitCode {
    let mut scale = SCALE_DEFAULT;
    let mut seed = SEED_DEFAULT;
    let mut all = false;
    let mut wanted: Vec<Experiment> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(denom) if denom.is_finite() && denom >= 1.0 => scale = 1.0 / denom,
                _ => return usage("--scale expects a finite denominator ≥ 1"),
            },
            "--seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed expects an integer"),
            },
            "--help" | "-h" => return usage(""),
            other if other.starts_with('-') => {
                return usage(&format!("unknown flag `{other}`"));
            }
            "all" => all = true,
            other => match experiments::ALL.iter().find(|&&(name, _)| name == other) {
                Some(&(_, experiment)) => wanted.push(experiment),
                None => return usage(&format!("unknown experiment `{other}`")),
            },
        }
    }
    if all || wanted.is_empty() {
        wanted = experiments::ALL
            .iter()
            .map(|&(_, experiment)| experiment)
            .collect();
    }

    eprintln!("# scale = {scale:.6} (1/{:.0}), seed = {seed}", 1.0 / scale);
    for experiment in wanted {
        println!("{}", experiment(scale, seed));
    }
    ExitCode::SUCCESS
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    let names: Vec<&str> = experiments::ALL.iter().map(|&(name, _)| name).collect();
    eprintln!(
        "usage: repro [EXPERIMENT ...] [--scale DENOM] [--seed SEED]\n\
         experiments: {} all",
        names.join(" ")
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
