//! Wall-time benchmark of the mspcg solver stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (`plate-ssor`, `poisson-poly`, `plate-multirhs`,
//! `plate-spmd`) from inputs generated from the seed, checks every answer,
//! and prints a provenance record followed, on the last line, by
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1` (whose spans
//! are also written to `perfbench/out/`). `perfbench/README.md` says why
//! each workload and metric exists.

mod json;
mod run;
mod stats;
mod trace;
mod workload;

use json::Json;
use run::{run, Opts};
use std::process::ExitCode;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    // `MSPCG_*` variables are process-wide overrides read once by the
    // library; any of them would silently change the program measured.
    let overrides: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MSPCG_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!("refusing to run with {} set", overrides.join(", "));
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let opts = Opts::new(args.workload, args.seed, args.seconds, args.trace);
    let out = match run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let record = Json::Obj(out.record).to_string();
    println!("{{\"record\": {record}}}");
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let spans = out.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.into())),
                ("start", Json::Num(s.start)),
                ("end", Json::Num(s.end)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                ),
                ("run", Json::Int(s.run)),
            ])
        });
        let doc = format!(
            "{{\"record\": {record}, \"spans\": {}}}\n",
            Json::Arr(spans.collect())
        );
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, doc)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let metrics = out.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    });
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(out.failed == 0)),
            ("attempted", Json::Int(out.attempted)),
            ("failed", Json::Int(out.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    ExitCode::SUCCESS
}
