//! Benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream_clean --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when a correctness check fails, 2 on bad usage.

use std::process::ExitCode;

use perfbench::{describe, result_json, run, Sizes, Workload, END_TO_END, PER_LAYER};

const USAGE: &str =
    "usage: perfbench --workload <stream_clean|stream_faulted|n1_sweep> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
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
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let o = run(
        args.workload,
        args.seed,
        args.trace,
        Sizes::standard(args.seconds),
    );

    println!(
        "workload {} seed {} trace {} | {} checks, {} failed | attempted {}, failed {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        o.checks.evaluated,
        o.checks.failures.len(),
        o.attempted,
        o.failed
    );
    for f in &o.checks.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("end-to-end (untraced run):");
    for line in describe(END_TO_END, &o.end_to_end) {
        println!("{line}");
    }
    if args.trace {
        println!("per-layer (traced run):");
        for line in describe(PER_LAYER, &o.per_layer) {
            println!("{line}");
        }
        let path = std::path::PathBuf::from(format!(
            ".bench_build/perfbench-trace/{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match perfbench::trace::write_jsonl(&path, &o.spans) {
            Ok(()) => println!("spans: {} written to {}", o.spans.len(), path.display()),
            Err(e) => println!("spans: could not write {}: {e}", path.display()),
        }
    }
    let (defs, m) = if args.trace {
        (PER_LAYER, &o.per_layer)
    } else {
        (END_TO_END, &o.end_to_end)
    };
    println!("{}", result_json(&o, defs, m));
    if o.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
