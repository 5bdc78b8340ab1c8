//! The repo benchmark: five workloads, five end-to-end metrics, per-crate
//! layer metrics and a traced latency budget, all measured from outside
//! the crates. See `README.md` next to this package.
//!
//! ```text
//! epim-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//! epim-benchmark [--seed N] [--seconds S] [--trace 0|1] [--smoke]   every workload,
//!                                                                   a fresh process each
//! epim-benchmark --agree [--seed N] [--seconds S]                   the full set twice,
//!                                                                   compared against the bounds
//! epim-benchmark --print-spec                                       BENCHMARK.json, as the
//!                                                                   lists in `spec.rs` give it
//! epim-benchmark --bless-golden PATH                                rewrite the design golden file
//! ```
//!
//! A single run prints its findings, then every metric by name with its
//! unit, and as the last line of standard output one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod agree;
mod design;
mod inputs;
mod json;
mod loadgen;
mod probes;
mod procstat;
mod run;
mod spec;
mod summary;
mod system;
mod trace;

use json::{object, text};
use run::{RunCfg, RunOutput};
use serde::Value;
use spec::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// `--seconds` when none is given: the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: both runs (only meaningful without `--workload`).
    trace: Option<bool>,
    agree: bool,
    out_dir: PathBuf,
    bless_golden: Option<PathBuf>,
    plan_exec: Option<Workload>,
    print_spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        agree: false,
        out_dir: PathBuf::from("benchmark/out"),
        bless_golden: None,
        plan_exec: None,
        print_spec: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} wants a value"));
        let workload = |name: String| {
            Workload::parse(&name).ok_or(format!(
                "unknown workload `{name}`; the workloads are {}",
                Workload::ALL.map(Workload::name).join(", ")
            ))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(workload(value()?)?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed wants a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds wants a number in (0, 60]".to_string())?
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".to_string()),
                })
            }
            "--smoke" => args.seconds = 1.0,
            "--agree" => args.agree = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--bless-golden" => args.bless_golden = Some(PathBuf::from(value()?)),
            "--plan-exec" => args.plan_exec = Some(workload(value()?)?),
            "--print-spec" => args.print_spec = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// What identifies the machine and build a result came from.
fn fingerprint(seed: u64) -> Vec<(&'static str, Value)> {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc", Value::U64(nproc as u64)),
        (
            "pool_width",
            Value::U64(epim_parallel::num_threads() as u64),
        ),
        ("simd_isa", text(epim_simd::isa().name())),
        ("rustc", text(&tool("rustc", &["--version"]))),
        (
            "git_commit",
            text(&tool("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed", Value::U64(seed)),
    ]
}

fn metrics_value(out: &RunOutput) -> Value {
    object(
        out.rows
            .iter()
            .map(|(def, value)| {
                (
                    def.name,
                    object(vec![
                        ("value", Value::F64(*value)),
                        ("unit", text(def.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Runs one workload in this process and reports it.
fn single(cfg: &RunCfg) -> ExitCode {
    let fingerprint = fingerprint(cfg.seed);
    let out = run::run(cfg);
    println!(
        "workload {} ({} run, seed {}, {} s): {}",
        cfg.workload,
        if cfg.trace { "traced" } else { "untraced" },
        cfg.seed,
        cfg.seconds,
        cfg.workload.why()
    );
    let printed: Vec<String> = fingerprint
        .iter()
        .map(|(k, v)| match v {
            Value::String(s) => format!("{k}={s}"),
            Value::U64(n) => format!("{k}={n}"),
            other => format!("{k}={other:?}"),
        })
        .collect();
    println!("machine: {}", printed.join(" "));
    print!("{}", out.notes);
    for (def, value) in &out.rows {
        println!("{:<34}{:>18.6} {}", def.name, value, def.unit);
    }
    // A window in which nothing started checked nothing: no result.
    if out.attempted == 0 {
        eprintln!("FAILED: no operation started in the measured window; --seconds is too short");
        return ExitCode::FAILURE;
    }

    let result = vec![
        ("correct", Value::Bool(out.correct)),
        ("attempted", Value::U64(out.attempted)),
        ("failed", Value::U64(out.failed)),
        ("metrics", metrics_value(&out)),
    ];
    let mut record = vec![
        ("fingerprint", object(fingerprint)),
        ("workload", text(cfg.workload.name())),
        ("seconds", Value::F64(cfg.seconds)),
        ("trace", Value::Bool(cfg.trace)),
    ];
    record.extend(result.iter().cloned());
    let path = cfg.out_dir.join(format!(
        "result-{}-trace{}.json",
        cfg.workload,
        u8::from(cfg.trace)
    ));
    std::fs::create_dir_all(&cfg.out_dir).expect("the output directory can be created");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&object(record)).expect("a value tree serializes"),
    )
    .expect("the result file is written");

    println!(
        "{}",
        serde_json::to_string(&object(result)).expect("a value tree serializes")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: outputs differ from the oracle");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("epim-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    // The crates' own tracing and fault injection stay off while they are
    // measured; both are switched by the environment.
    for var in ["EPIM_TRACE", "EPIM_FAULTS"] {
        if std::env::var_os(var).is_some() {
            eprintln!("epim-benchmark: refusing to measure with {var} set");
            return ExitCode::from(2);
        }
    }
    trace::now_ns();

    if args.print_spec {
        println!(
            "{}",
            serde_json::to_string_pretty(&spec::benchmark_json(DEFAULT_SECONDS as u64))
                .expect("a value tree serializes")
        );
        return ExitCode::SUCCESS;
    }
    if let Some(workload) = args.plan_exec {
        println!("{}", probes::plan_exec_seconds(workload));
        return ExitCode::SUCCESS;
    }
    if let Some(path) = args.bless_golden {
        let mut lane = trace::Lane::new("bless", false);
        let outputs = design::design_pass(&mut lane, 0);
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&outputs).expect("a value tree serializes") + "\n",
        )
        .expect("the golden file is written");
        println!("wrote {}", path.display());
        return ExitCode::SUCCESS;
    }
    if args.agree {
        return agree::agree(args.seed, args.seconds, &args.out_dir);
    }
    match args.workload {
        Some(workload) => single(&RunCfg {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace.unwrap_or(false),
            out_dir: args.out_dir,
        }),
        None => agree::every_workload(args.seed, args.seconds, args.trace, &args.out_dir),
    }
}
