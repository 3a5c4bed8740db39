//! The backbone benchmark: four closed-loop workloads, each timed end to
//! end with tracing off, and a traced mode that times each layer's public
//! functions from here.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oltp-wire|serve-hot|olap-scan|hybrid-search> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Human-readable lines and one `report`
//! JSON line come first; the last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use std::process::ExitCode;

use perfbench::{run, Config, Workload};

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(out) => {
            println!("{}", out.report_line());
            println!("{}", out.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}
