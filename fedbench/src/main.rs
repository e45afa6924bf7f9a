//! fedbench — the repo's one scoreboard.
//!
//! ```text
//! fedbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! fedbench compare <A> <B> --benchmark BENCHMARK.json
//! ```
//!
//! See README.md for the metric glossary and the run protocol.

mod compare;
mod fixture;
mod layers;
mod run;
mod sys;
mod trace;
mod workload;

#[cfg(test)]
mod smoke;

use run::{Options, Outcome};
use std::process::ExitCode;
use workload::Workload;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "usage:
  fedbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
           [--scale full|smoke]
           [--link-latency-us <n>] [--serial] [--pool <n>]   (sensitivity runs)
  fedbench compare <A> <B> --benchmark <BENCHMARK.json>
workloads: point_hit adhoc_compile scan_ship wan_overlap dml_2pc";

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut opts = Options::new(Workload::PointHit, 0, 0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        let number = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {s}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => seed = Some(number(value("a number")?)?),
            "--seconds" => seconds = Some(number(value("a number")?)?),
            "--trace" => {
                trace = Some(match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--scale" => {
                let name = value("full or smoke")?;
                opts.scale =
                    fixture::Scale::parse(name).ok_or_else(|| format!("unknown scale '{name}'"))?;
            }
            "--link-latency-us" => opts.link_latency_us = Some(number(value("a number")?)?),
            "--pool" => opts.pool = Some(number(value("a number")?)? as usize),
            "--serial" => opts.serial = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    opts.seed = seed.ok_or("--seed is required")?;
    opts.seconds = seconds
        .filter(|&s| (1..=60).contains(&s))
        .ok_or("--seconds 1..60 is required")?;
    opts.trace = trace.ok_or("--trace is required")?;
    Ok(opts)
}

/// Rev, toolchain, machine, seed, sizes and the full knob table — printed
/// above every result so a changed default is visible in the trajectory.
fn run_header(opts: &Options) -> Vec<String> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut lines = vec![
        format!(
            "fedbench workload={} seed={} seconds={} trace={} pass_size={} passes={}",
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            opts.pass_size(),
            run::PASSES
        ),
        format!(
            "git={} rustc=\"{}\" nproc={cores} session_threads=1 (closed loop)",
            sys::command_line("git", &["rev-parse", "--short", "HEAD"]),
            sys::command_line("rustc", &["-V"]),
        ),
        opts.scale.describe(),
        format!("fixture: {:?}", opts.fixture()),
    ];
    if opts.pool.is_some() || opts.link_latency_us.is_some() || opts.serial {
        lines.push(
            "PERTURBED RUN (sensitivity flags set): not comparable with the scoreboard".into(),
        );
    }
    lines.push(format!("knobs: {}", knob_table(opts).join(" ")));
    lines
}

/// `name=value(source)` for every row of `sys.dm_os_knobs`, read from an
/// engine built exactly as the fixture builds its head.
fn knob_table(opts: &Options) -> Vec<String> {
    let engine = fixture::build_engine("knobs", opts.fixture().parallel);
    match engine.execute("SELECT * FROM sys.dm_os_knobs") {
        Ok(r) => r
            .rows
            .iter()
            .map(|row| format!("{}={}({})", row.get(0), row.get(1), row.get(2)))
            .collect(),
        Err(e) => vec![format!("unreadable: {e}")],
    }
}

fn print_outcome(outcome: &Outcome) {
    for line in &outcome.header {
        println!("{line}");
    }
    for note in &outcome.failures.notes {
        println!("FAILED {note}");
    }
    for m in &outcome.metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                sys::json_str(&m.name),
                m.value,
                sys::json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.count == 0,
        outcome.attempted.max(1),
        outcome.failures.count,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(regressed) => ExitCode::from(u8::from(regressed)),
            Err(e) => {
                eprintln!("fedbench compare: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fedbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    fixture::scrub_env();
    for line in run_header(&opts) {
        println!("{line}");
    }
    let outcome = if opts.trace {
        layers::traced(&opts)
    } else {
        run::end_to_end(&opts)
    };
    print_outcome(&outcome);
    if outcome.failures.count == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
