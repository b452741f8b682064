//! `perfbench`: one benchmark for the SLIM stack.
//!
//! `perfbench --workload <rounds|charting|restart|serve> --seed <n>
//! --seconds <s> --trace <0|1>` runs one workload from the seed's
//! inputs, checks its outputs, and prints as its last line one JSON
//! object: the verdict, the gestures attempted and failed, and every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). See `BENCHMARK.json` and `perfbench/README.md`.
//!
//! A run times a fixed number of gestures: `--seconds` times the
//! workload's rate in [`RATES`]. So a run takes about `--seconds`, and
//! every run of one seed times exactly the same gestures. The
//! end-to-end times are reported at a reference pace (see [`pace`]).

mod disk;
mod pace;
mod pad;
mod pins;
mod report;
mod restart;
mod serve;
mod span;
mod stats;

use report::Outcome;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Gestures per second of each workload on a shared 2-vCPU x86-64 VM
/// (`restart`: reopens). Measured once; they only size the runs.
const RATES: [(&str, f64); 4] = [
    ("rounds", 130.0),
    ("charting", 30.0),
    ("restart", 0.7),
    ("serve", 7.0),
];

/// The gestures a run of `workload` times in about `seconds`.
fn gestures(workload: &str, seconds: f64) -> usize {
    let rate = RATES
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or(1.0, |r| r.1);
    ((seconds * rate).round() as usize).max(1)
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: pins::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse_u64(&value).ok_or("bad --seed")?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    let n = gestures(&args.workload, args.seconds);
    match args.workload.as_str() {
        "rounds" => pad::run("rounds", pad::ROUNDS, pad::QUICK, args.seed, n, args.trace),
        "charting" => pad::run(
            "charting",
            pad::CHARTING,
            pad::QUICK,
            args.seed,
            n,
            args.trace,
        ),
        "restart" => restart::run(pad::QUICK, args.seed, n, args.trace),
        "serve" => serve::run(serve::QUICK, args.seed, n, args.trace),
        other => Err(format!("unknown workload {other:?}").into()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <rounds|charting|restart|serve> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let cpu = pace::pin();
    match run(&args) {
        Ok(mut out) => {
            out.info(match cpu {
                Some(c) => format!("pinned to cpu {c}"),
                None => "not pinned".to_string(),
            });
            if !args.trace {
                pace::adjust(&mut out);
            }
            for line in &out.info {
                println!("{line}");
            }
            for (name, ok) in &out.verdicts {
                println!("verdict {}: {name}", if *ok { "ok  " } else { "FAIL" });
            }
            for (name, v) in &out.exact {
                println!("exact {name} = {v}");
            }
            println!("{}", out.result_json(args.trace));
            if !out.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two runs of every workload at smoke size, each over a fixed number
    /// of gestures, give identical exact counts: log bytes, commit
    /// outcome tallies, frames replayed and outcome digests. That is what
    /// lets a later claim rest on those counts.
    #[test]
    fn every_workload_repeats_its_exact_counts() {
        let seed = 0x5eed;
        type Run = Box<dyn Fn() -> Outcome>;
        let workloads: [(&str, Run); 4] = [
            (
                "rounds",
                Box::new(move || {
                    pad::run("rounds", pad::ROUNDS, pad::SMOKE, seed, 150, false).unwrap()
                }),
            ),
            (
                "charting",
                Box::new(move || {
                    pad::run("charting", pad::CHARTING, pad::SMOKE, seed, 150, false).unwrap()
                }),
            ),
            (
                "restart",
                Box::new(move || restart::run(pad::SMOKE, seed, 3, false).unwrap()),
            ),
            (
                "serve",
                Box::new(move || serve::run(serve::SMOKE, seed, 80, false).unwrap()),
            ),
        ];
        for (name, run) in workloads {
            let (a, b) = (run(), run());
            for out in [&a, &b] {
                let failed: Vec<_> = out.verdicts.iter().filter(|(_, ok)| !ok).collect();
                assert!(failed.is_empty(), "{name}: {failed:?}");
                assert_eq!(out.failed, 0, "{name}");
            }
            assert!(a.exact.len() >= 5, "{name} reports its exact counts");
            assert_eq!(a.exact, b.exact, "{name}");
        }
    }
}
