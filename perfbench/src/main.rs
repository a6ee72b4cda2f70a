//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--cluster-seed <n>]`
//!
//! `--seed` seeds the clients' generators; `--cluster-seed` (default
//! [`Seeds::DEFAULT_CLUSTER`]) seeds the simulated cluster. Prints every
//! metric by name and unit, then one JSON result line. Exits 1 if a
//! correctness gate or the traced/untraced fingerprint check fails, 2 on
//! bad arguments.

use std::process::ExitCode;

use perfbench::workload::{Seeds, Size, Workload};

const USAGE: &str = "usage: perfbench --workload <ycsb-a-regional|ycsb-b-global|tpcc-multiregion> \
                     --seed <n> --seconds <1-600> --trace <0|1> [--cluster-seed <n>]";

struct Args {
    workload: Workload,
    seeds: Seeds,
    seconds: u64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut cluster_seed = Seeds::DEFAULT_CLUSTER;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--cluster-seed" => cluster_seed = value.parse::<u64>().map_err(|_| bad())?,
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad())?;
                if !(1..=600).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seeds: Seeds {
            cluster: cluster_seed,
            generator: seed.ok_or("--seed is required")?,
        },
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = perfbench::bench(
        args.workload,
        Size::full(args.workload, args.seconds),
        args.seeds,
        args.traced,
    );
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    let correct = report.failures.is_empty();
    println!(
        "{}",
        perfbench::metrics::result_json(correct, report.attempted, report.failed, &report.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
