//! Host-time end-to-end OKWS benchmark with an outside-in per-layer cost
//! table. See `benchmark/README.md` for the metric and workload
//! definitions; `run.sh` builds this binary and hands it its arguments.
//!
//! Modes:
//! - `--workload W --seed N --seconds S --trace 0|1` — one workload; the
//!   last line of stdout is the result object the benchmark driver reads.
//! - no `--workload` — every workload, untraced then traced, with a
//!   result file (`--out FILE`).
//! - `--compare A.json B.json` — two result files against the bounds in
//!   `BENCHMARK.json`.
//! - `--rep …` — internal: one repetition in this process.

mod hostspeed;
mod json;
mod metrics;
mod probe;
mod rep;
mod report;
mod stats;
mod trace;
mod workload;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::workload::Spec;

/// Untraced repetitions per workload, each a fresh process with the same
/// seed: a process of its own gives every repetition its own `VmHWM` and
/// set-up time, and the median of three drops one disturbed repetition.
pub const REPS: usize = 3;

struct Cli {
    home: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    rep: Option<RepCli>,
}

struct RepCli {
    rounds: usize,
    traced: bool,
    workers: usize,
}

fn usage() -> String {
    "usage: run.sh [--seed N] [--seconds S] [--out FILE]\n\
     \x20      run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
     \x20      run.sh --compare A.json B.json"
        .to_string()
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        home: PathBuf::from("benchmark"),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
        compare: None,
        rep: None,
    };
    let mut rep_rounds = None;
    let mut rep_workers = None;
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    fn num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: cannot read {text:?}"))
    }
    while i < args.len() {
        match args[i].as_str() {
            "--home" => cli.home = PathBuf::from(value(&mut i)?),
            "--workload" => cli.workload = Some(value(&mut i)?.clone()),
            "--seed" => cli.seed = num("--seed", value(&mut i)?)?,
            "--seconds" => {
                let s: f64 = num("--seconds", value(&mut i)?)?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => cli.trace = num::<u8>("--trace", value(&mut i)?)? != 0,
            "--out" => cli.out = Some(PathBuf::from(value(&mut i)?)),
            "--compare" => {
                let a = PathBuf::from(value(&mut i)?);
                let b = PathBuf::from(value(&mut i)?);
                cli.compare = Some((a, b));
            }
            "--rep-rounds" => rep_rounds = Some(num("--rep-rounds", value(&mut i)?)?),
            "--rep-workers" => rep_workers = Some(num("--rep-workers", value(&mut i)?)?),
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
        i += 1;
    }
    if let (Some(rounds), Some(workers)) = (rep_rounds, rep_workers) {
        cli.rep = Some(RepCli {
            rounds,
            traced: cli.trace,
            workers,
        });
    }
    Ok(cli)
}

fn find_spec(name: &str) -> Result<Spec, String> {
    let specs = workload::specs();
    let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
    specs
        .iter()
        .find(|s| s.name == name)
        .cloned()
        .ok_or_else(|| format!("no workload {name:?}; there are {}", names.join(", ")))
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;

    if let Some(rep) = &cli.rep {
        let name = cli
            .workload
            .as_deref()
            .ok_or("--rep-rounds needs --workload")?;
        let result = rep::run(rep::RepArgs {
            spec: find_spec(name)?,
            seed: cli.seed,
            rounds: rep.rounds,
            traced: rep.traced,
            workers: rep.workers,
            out_dir: cli.home.join("out"),
        });
        println!("{}", result.compact());
        return Ok(true);
    }
    if let Some((a, b)) = &cli.compare {
        return report::compare(&cli.home, a, b);
    }

    let host = report::Host::probe(&cli.home, cli.seed);
    let seconds = match cli.seconds {
        Some(s) => s,
        None => report::default_seconds(&cli.home)?,
    };
    match &cli.workload {
        Some(name) => {
            let spec = find_spec(name)?;
            let result = report::run_workload(&host, &spec, seconds, !cli.trace, cli.trace)?;
            result.print();
            // The driver reads the last line of stdout.
            println!("{}", result.driver_line(cli.trace)?.compact());
            Ok(result.correct())
        }
        None => {
            let mut results = Vec::new();
            for spec in workload::specs() {
                let result = report::run_workload(&host, &spec, seconds, true, true)?;
                result.print();
                results.push(result);
            }
            let out = cli.out.clone().unwrap_or_else(|| {
                cli.home
                    .join("out")
                    .join(format!("result-seed{}.json", cli.seed))
            });
            report::write_results(&out, &host, seconds, &results)?;
            println!("# results written to {}", out.display());
            Ok(results.iter().all(report::WorkloadResult::correct))
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("asbestos-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
