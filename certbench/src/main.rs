//! Command line of the certnn benchmark.
//!
//! ```text
//! certbench --workload optimize|decide --seed N --seconds S --trace 0|1
//! certbench --describe      # print BENCHMARK.json
//! ```
//!
//! Prints one line per metric, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use certbench::catalog::benchmark_json;
use certbench::run::{run, Args, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            print!("{}", benchmark_json());
            std::process::exit(0);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(match value.as_str() {
                "0" => false,
                "1" => true,
                _ => return Err("--trace takes 0 or 1".into()),
            }),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        work_dir: PathBuf::from(".certbench"),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("certbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("certbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.notes {
        println!("# {line}");
    }
    let mut json = String::new();
    for m in &report.metrics {
        println!("{:<28} {:>14.6} {:<6} {}", m.name, m.value, m.unit, m.note);
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.correct(),
        report.attempted,
        report.failed
    );
    ExitCode::SUCCESS
}
