//! `galo-e2e` — the repository's end-to-end benchmark: one query trip,
//! one template trip, four workloads. See `benchmark/README.md`.
//!
//! ```text
//! galo-e2e run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! galo-e2e selftest
//! galo-e2e compare A/ B/
//! ```
//!
//! It drives only public functions of the library crates, so every layer
//! is measured from outside.

mod compare;
mod composed;
mod fixture;
mod harness;
mod json;
mod metrics;
mod publish_follow;
mod serve;
mod stats;
mod trace;
mod trip_sql;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{RunOpts, RunReport, Workload, RUN_SECONDS};

pub const WORKLOADS: [&str; 4] = ["trip_sql", "serve_hot", "serve_cold", "publish_follow"];

const USAGE: &str = "usage:
  galo-e2e run --workload <trip_sql|serve_hot|serve_cold|publish_follow>
               [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
  galo-e2e selftest
  galo-e2e compare A/ B/";

fn run_workload(name: &str, opts: &RunOpts) -> Option<RunReport> {
    Some(match name {
        trip_sql::TripSql::NAME => harness::run::<trip_sql::TripSql>(opts),
        serve::ServeHot::NAME => harness::run::<serve::ServeHot>(opts),
        serve::ServeCold::NAME => harness::run::<serve::ServeCold>(opts),
        publish_follow::PublishFollow::NAME => harness::run::<publish_follow::PublishFollow>(opts),
        _ => return None,
    })
}

struct RunArgs {
    workload: String,
    opts: RunOpts,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        opts: RunOpts {
            seed: 42,
            seconds: RUN_SECONDS,
            trace: false,
            quick: false,
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.opts.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.opts.seconds = value.parse().map_err(|_| bad())?;
                if parsed.opts.seconds.is_nan() || parsed.opts.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let RunArgs {
        workload,
        opts,
        out,
    } = parse_run_args(args)?;
    let report =
        run_workload(&workload, &opts).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    if let Some(dir) = out {
        let mode = if opts.trace { "-trace" } else { "" };
        let path = dir.join(format!("{workload}-seed{}{mode}.json", opts.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, report.to_json(true) + "\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    report.print();
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every exact count identical across two quick runs of one seed, and
/// the op stream different under another seed. Returns the failures.
fn selftest() -> usize {
    let opts = |seed| RunOpts {
        seed,
        seconds: RUN_SECONDS,
        trace: true,
        quick: true,
    };
    let mut failures = 0;
    for name in WORKLOADS {
        let runs: Vec<RunReport> = [42, 42, 43]
            .into_iter()
            .map(|seed| run_workload(name, &opts(seed)).expect("known workload"))
            .collect();
        let (a, b, other) = (&runs[0], &runs[1], &runs[2]);
        let mut exact = 0;
        for ((def, ma), mb) in metrics::PER_LAYER.iter().zip(&a.metrics).zip(&b.metrics) {
            if def.exact {
                exact += 1;
                if ma.value.to_bits() != mb.value.to_bits() {
                    failures += 1;
                    println!(
                        "FAIL {name}: {} read {} then {}",
                        def.name, ma.value, mb.value
                    );
                }
            }
        }
        let mut check = |ok: bool, what: &str| {
            if !ok {
                failures += 1;
                println!("FAIL {name}: {what}");
            }
        };
        check(
            runs.iter().all(RunReport::correct),
            "a run failed its checks",
        );
        check(a.op_digest == b.op_digest, "one seed gave two op streams");
        check(
            a.op_digest != other.op_digest,
            "two seeds gave one op stream",
        );
        check(a.tally.attempted == b.tally.attempted, "op counts differ");
        println!("ok   {name}: {exact} exact counts repeat; op stream follows the seed");
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, [])) if cmd == "selftest" => Ok(match selftest() {
            0 => ExitCode::SUCCESS,
            _ => ExitCode::FAILURE,
        }),
        Some((cmd, [a, b])) if cmd == "compare" => compare::compare(Path::new(a), Path::new(b))
            .map(|table| {
                print!("{table}");
                ExitCode::SUCCESS
            }),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    /// Real set-ups, real serves: the package's dev profile is optimized
    /// so that this finishes in about a minute.
    #[test]
    fn exact_counts_repeat_and_op_streams_follow_the_seed() {
        assert_eq!(super::selftest(), 0);
    }
}
