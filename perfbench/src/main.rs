//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --work DIR --out DIR`
//!
//! Runs one workload and prints a human-readable report followed by the
//! result as one JSON line (the last line of standard output). Exits 2 on
//! bad arguments. `run.py` builds this binary and supplies `--work` and
//! `--out`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{result_line, run, Args};

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work = None;
    let mut out = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--work" => work = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work: work.ok_or("--work is required")?,
        out: out.ok_or("--out is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for d in [&args.work, &args.out] {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("perfbench: cannot create {}: {e}", d.display());
            return ExitCode::from(2);
        }
    }
    let Some(mut outcome) = run(&args) else {
        eprintln!(
            "perfbench: unknown workload {:?} (online, migrate, restart)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let line = result_line(&args, &mut outcome);
    println!(
        "workload: {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("digest: {:016x}", outcome.digest);
    for l in &outcome.lines {
        println!("{l}");
    }
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    for p in &outcome.problems {
        println!("ORACLE MISMATCH: {p}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
