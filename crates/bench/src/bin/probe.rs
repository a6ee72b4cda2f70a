//! `probe [NAME...]`: run the named CI probes (all of them when none are
//! named) at their default scale. Each writes `BENCH_<name>.json` plus any
//! extra files to the working directory, and every probe runs even after
//! one fails; the exit status is 1 if any gate failed.

use std::path::Path;
use std::process::exit;
use std::time::Instant;

use mr_bench::probe::{run_probe, ProbeReport, Scale, PROBES};

/// Write `BENCH_<name>.json` and the report's extra files.
fn write_report(name: &str, report: &dyn ProbeReport) -> std::io::Result<()> {
    std::fs::write(format!("BENCH_{name}.json"), report.json())?;
    for (path, contents) in report.files() {
        if let Some(dir) = Path::new(&path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, contents)?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if args.is_empty() {
        PROBES.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    if let Some(bad) = names.iter().find(|n| !PROBES.contains(n)) {
        eprintln!("unknown probe {bad:?}; known: {}", PROBES.join(" "));
        exit(2);
    }
    let mut failed = false;
    for name in names {
        let t = Instant::now();
        let report = run_probe(name, &Scale::DEFAULT).expect("names were checked");
        write_report(name, report.as_ref()).unwrap_or_else(|e| panic!("write {name} results: {e}"));
        let failures = report.gate();
        for f in &failures {
            eprintln!("REGRESSION [{name}]: {f}");
        }
        let verdict = if failures.is_empty() { "ok" } else { "FAILED" };
        eprintln!("probe {name}: {verdict} in {:.1?}", t.elapsed());
        failed |= !failures.is_empty();
    }
    if failed {
        exit(1);
    }
}
