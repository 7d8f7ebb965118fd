//! Serving benchmark for `rqc serve --http`.
//!
//! ```text
//! perfbench --workload <hot_reads|cold_sg|ingest_mixed> --seed <n> --seconds <s> --trace <0|1> --rqc <path>
//! ```
//!
//! Generates the workload's program and requests from the seed, drives
//! fresh `rqc serve --http` processes over loopback, checks every
//! answer, and prints one JSON object as the last line of stdout: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (counter
//! scrapes plus an in-process traced replay) with `--trace 1`.

mod http;
mod live;
mod replay;
mod report;
mod scrape;
mod server;
mod stats;
mod trace;
mod workloads;

use live::{Bench, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rqc: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload_name = value("--workload")?.to_string();
    let workload = Workload::parse(&workload_name)
        .ok_or_else(|| format!("unknown workload `{workload_name}`"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        workload_name,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        rqc: PathBuf::from(value("--rqc")?),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.rqc.is_file() {
        eprintln!("perfbench: no server binary at {}", args.rqc.display());
        return ExitCode::from(2);
    }
    // Per-run scratch (program file, data dirs) inside the checkout.
    let dir = PathBuf::from(".bench_runs").join(format!(
        "{}-{}-{}",
        args.workload_name,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, dir: &std::path::Path) -> Result<String, String> {
    let data = args.workload.dataset(args.seed);
    let reference = {
        let service = workloads::service(&data.program_text);
        workloads::reference_answers(&service, &data.specs)
    };
    let bench = Bench {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        rqc: &args.rqc,
        dir,
        data: &data,
        reference: &reference,
        dirs: Default::default(),
    };
    let run = bench.run()?;
    let meta = report::Meta::collect(args.seed, &args.workload_name, &run, args.trace);
    if args.trace {
        let replayed = replay::replay(&bench, &run, dir)?;
        for (name, (ns, count)) in &replayed.self_time {
            eprintln!(
                "self time {name:<16} {:>12.1} us over {count} spans",
                *ns as f64 / 1e3
            );
        }
        Ok(report::per_layer(&meta, &run, &replayed, args.workload))
    } else {
        Ok(report::end_to_end(&meta, &run))
    }
}
