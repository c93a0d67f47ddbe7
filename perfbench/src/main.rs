//! `perfbench`: the end-to-end, layer-by-layer benchmark of the path
//! users run — NVD JSON feed → §4.1–§4.4 clean with the §4.3 backport on
//! → quality ledger → serve index → queries — through the workspace
//! crates' public API.
//!
//! ```text
//! perfbench --workload <batch_clean|delta_ingest|serve_mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The seed generates every input; the run measures for about `seconds`
//! (whole passes, at least one), checks every output, and prints the
//! result object as the last line of stdout. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the traced variant, reports the
//! per-layer metrics and writes its spans as JSON under the cargo target
//! directory. See `README.md` beside this crate.

mod batch_clean;
mod delta_ingest;
mod metrics;
mod pipeline;
mod queries;
mod report;
mod serve_mixed;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Input sizes of one workload.
#[derive(Debug, Clone)]
pub struct Size {
    /// Corpus scale (1.0 is the paper's 107.2K CVEs).
    pub scale: f64,
    /// Dated delta feeds after the base snapshot.
    pub feeds: usize,
    /// Length of the served query stream.
    pub queries: usize,
    /// Queries in the linear-scan parity sample.
    pub sample: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchClean,
    DeltaIngest,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::BatchClean, Self::DeltaIngest, Self::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Self::BatchClean => "batch_clean",
            Self::DeltaIngest => "delta_ingest",
            Self::ServeMixed => "serve_mixed",
        }
    }

    /// The sizes `BENCHMARK.json` runs.
    pub fn size(self) -> Size {
        match self {
            Self::BatchClean => Size {
                scale: 0.02,
                feeds: 0,
                queries: 0,
                sample: 10_000,
                setups: 9,
            },
            Self::DeltaIngest => Size {
                scale: 0.01,
                feeds: 8,
                queries: 0,
                sample: 10_000,
                setups: 9,
            },
            Self::ServeMixed => Size {
                scale: 0.1,
                feeds: 0,
                queries: 1_000_000,
                sample: 20_000,
                setups: 3,
            },
        }
    }

    pub fn run(self, size: &Size, cfg: &RunConfig) -> Report {
        let mut report = match self {
            Self::BatchClean => batch_clean::run(size, cfg),
            Self::DeltaIngest => delta_ingest::run(size, cfg),
            Self::ServeMixed => serve_mixed::run(size, cfg),
        };
        report.set("peak_rss_mb", report::peak_rss_mb());
        report
    }
}

const USAGE: &str = "usage: perfbench --workload <batch_clean|delta_ingest|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(Workload, RunConfig), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        RunConfig {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        },
    ))
}

/// Where a traced run writes its spans: under the cargo target directory.
fn trace_path(workload: Workload, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target
        .join("perfbench-traces")
        .join(format!("{}-seed{seed}.json", workload.name()))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} pool_width={}",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        minipar::jobs()
    );
    let report = workload.run(&workload.size(), &cfg);
    for note in &report.notes {
        println!("note {note}");
    }
    println!("counters {}", report.counters.to_json());
    for (name, value, unit) in report.metrics(cfg.trace) {
        println!("metric {name} {value} {unit}");
    }
    println!(
        "checks attempted={} failed={} failed_share={}",
        report.checks.attempted,
        report.checks.failed,
        stats::ratio(report.checks.failed as f64, report.checks.attempted as f64)
    );
    if cfg.trace {
        let path = trace_path(workload, cfg.seed);
        match report.tracer.write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    println!("{}", report.result_line(cfg.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough to run every workload in a test, large enough for
    /// the backport's ground truth and every query kind.
    fn tiny() -> Size {
        Size {
            scale: 0.004,
            feeds: 3,
            queries: 4_000,
            sample: 400,
            setups: 2,
        }
    }

    /// `(name, unit)` of each metric `BENCHMARK.json` declares under `key`
    /// (a list of flat objects whose string values hold no brackets).
    fn declared(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{key}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"));
        let list = &text[start..];
        let list = &list[..list.find(']').expect("the list closes")];
        let field = |object: &str, name: &str| {
            let tag = format!("\"{name}\": \"");
            let at = object
                .find(&tag)
                .unwrap_or_else(|| panic!("a metric lacks {name}"))
                + tag.len();
            let len = object[at..].find('"').expect("the string closes");
            object[at..at + len].to_owned()
        };
        list.split('{')
            .skip(1)
            .map(|object| (field(object, "name"), field(object, "unit")))
            .collect()
    }

    #[test]
    fn emitted_metric_names_match_benchmark_json() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let cfg = RunConfig {
                    seed: 3,
                    seconds: 0.0,
                    trace,
                };
                let report = workload.run(&tiny(), &cfg);
                assert_eq!(
                    report.checks.failed,
                    0,
                    "{} trace={trace} failed a check",
                    workload.name()
                );
                let emitted: Vec<(String, String)> = report
                    .metrics(trace)
                    .into_iter()
                    .map(|(name, _, unit)| (name, unit.to_owned()))
                    .collect();
                let key = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(emitted, declared(key), "{} trace={trace}", workload.name());
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let (w, cfg) = parse_args(args(
            "--workload serve_mixed --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(w, Workload::ServeMixed);
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 2.5, true));
        assert!(parse_args(args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(args(
            "--workload batch_clean --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(args("--workload batch_clean --seed 1 --trace 0")).is_err());
    }
}
