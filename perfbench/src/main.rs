//! The PLOS benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each fit runs closed loop, one at a time, on a fresh cohort generated
//! from the seed, for about `--seconds`. `--trace 0` times untraced
//! fits and prints the end-to-end metrics; `--trace 1` fits each cohort
//! untraced and then traced and prints the per-layer metrics. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 1 when an output check failed
//! and 2 on a malformed command line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use perfbench::layers::{ledger_table, per_layer, Micro, TracedFit, PER_LAYER};
use perfbench::ledger::{median, thread_index, LedgerSink, Summary};
use perfbench::workloads::{outcome, reference_check, Outcome, Workload, ALL};
use plos::obs::{Event, Value};

const USAGE: &str =
    "usage: perfbench [--workload central_synth|fleet_sync|fleet_tree|fleet_async|all] \
     [--seed N] [--seconds S] [--trace 0|1]";

/// Where the workloads that checkpoint to disk write, relative to the
/// working directory. Removed when the run ends.
const SCRATCH: &str = ".perfbench_tmp";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args { workloads: ALL.to_vec(), seed: 1, seconds: 20, trace: false };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} requires a value"))?;
        let number = || {
            value.parse::<u64>().map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = ALL.to_vec(),
            "--workload" => {
                parsed.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?];
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// splitmix64: decorrelates the per-fit cohort seeds of one workload seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn cohort_seed(seed: u64, fit: u64) -> u64 {
    mix(mix(seed) ^ fit)
}

/// The SIMD path the kernels dispatch to, by the library's own rule.
fn simd_path() -> &'static str {
    if std::env::var_os("PLOS_NO_SIMD").is_some_and(|v| v == *"1") {
        return "scalar (PLOS_NO_SIMD=1)";
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    "scalar"
}

/// The checked-out revision, when the working directory is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| reference.to_string()),
        None => head.to_string(),
    };
    if rev.is_empty() {
        "none (not a git checkout)".to_string()
    } else {
        rev
    }
}

fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let threads_env = std::env::var("PLOS_THREADS").unwrap_or_else(|_| "unset".to_string());
    let host = Event {
        name: "host",
        fields: vec![
            ("nproc", Value::from(nproc)),
            ("pool", Value::from(plos::exec::Pool::current().threads())),
            ("plos_threads", Value::from(threads_env)),
            ("simd", Value::from(simd_path())),
            ("git_rev", Value::from(git_rev())),
            ("rustc", Value::from(env!("PERFBENCH_RUSTC"))),
        ],
    };
    plos::obs::json::render(&host)
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Mean of `values`, or 0 for none.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Whether the closed loop starts another iteration. The first always
/// runs; after that, one starts only if an iteration of the median length
/// so far would end inside the window, so a run lasts about `--seconds`
/// however long a fit takes.
fn has_room(start: Instant, window: Duration, iterations: &[f64]) -> bool {
    iterations.is_empty()
        || start.elapsed().as_secs_f64() + median(iterations) <= window.as_secs_f64()
}

/// One run's result: the fits tried, those that failed a check, and the
/// metrics by name with their units.
struct RunResult {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A fresh cohort and trainer, and the seconds each took.
struct Setup {
    data: plos::prelude::MultiUserDataset,
    trainer: perfbench::workloads::Trainer,
    seed: u64,
    ckpt_dir: PathBuf,
    generate_s: f64,
    setup_s: f64,
}

fn setup(workload: Workload, seed: u64, fit: u64) -> Result<Setup, String> {
    let seed = cohort_seed(seed, fit);
    let ckpt_dir = PathBuf::from(SCRATCH).join(format!("ckpt-{}-{fit}", std::process::id()));
    let start = Instant::now();
    let data = workload.cohort(seed);
    let generate_s = start.elapsed().as_secs_f64();
    let trainer = workload
        .trainer(data.num_users(), seed, &ckpt_dir)
        .map_err(|e| format!("trainer construction failed: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();
    Ok(Setup { data, trainer, seed, ckpt_dir, generate_s, setup_s })
}

/// Fits a fresh cohort untraced: the wall clock of the `fit` call and the
/// checked outcome.
fn fit_once(s: &Setup) -> (f64, Result<Outcome, String>) {
    let fit_start = Instant::now();
    let result = s.trainer.fit(&s.data);
    let fit_s = fit_start.elapsed().as_secs_f64();
    (fit_s, result.map_err(|e| e.to_string()).and_then(|(m, r)| outcome(&s.data, &m, r)))
}

/// After one untimed warm-up fit, fits untraced cohorts closed loop until
/// the window closes, then runs the reference check on the first timed
/// cohort.
fn run_end_to_end(workload: Workload, seed: u64, window: Duration) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let mut fits = Vec::new();
    let mut accuracies = Vec::new();
    let mut kbs = Vec::new();
    let mut first: Option<(Outcome, plos::prelude::MultiUserDataset, u64)> = None;
    let mut iterations = Vec::new();
    let (mut attempted, mut failed) = (1, 0);
    // Fit 0 warms up the process, checked but not timed: without it the
    // first fleet_async fit ran about 20% slower than the rest.
    if let Err(e) = fit_once(&setup(workload, seed, 0)?).1 {
        failed += 1;
        println!("check failed: fit 0 (warm-up): {e}");
    }
    let start = Instant::now();
    while has_room(start, window, &iterations) {
        let iteration_start = Instant::now();
        let s = setup(workload, seed, attempted as u64)?;
        setups.push(s.setup_s);
        attempted += 1;
        let (fit_s, checked) = fit_once(&s);
        match checked {
            Ok(o) => {
                println!(
                    "fit {}: cohort {:016x} setup {:.4} s fit {fit_s:.4} s accuracy {:.4} \
                     kb_per_user {:.4} rounds {} digest {:016x}",
                    attempted - 1,
                    s.seed,
                    s.setup_s,
                    o.accuracy,
                    o.kb_per_user,
                    o.report.rounds(),
                    o.digest
                );
                fits.push(fit_s);
                accuracies.push(o.accuracy);
                kbs.push(o.kb_per_user);
                if first.is_none() {
                    first = Some((o, s.data, s.seed));
                }
            }
            Err(e) => {
                failed += 1;
                println!("check failed: fit {}: {e}", attempted - 1);
            }
        }
        iterations.push(iteration_start.elapsed().as_secs_f64());
    }
    if let Some((o, data, cohort)) = &first {
        let ckpt = PathBuf::from(SCRATCH).join(format!("ckpt-{}-reference", std::process::id()));
        match reference_check(workload, *cohort, data, o, &ckpt) {
            Ok(line) => println!("check ok: {line}"),
            Err(line) => {
                failed += 1;
                println!("check failed: {line}");
            }
        }
    }
    let rss = peak_rss_mb()?;
    let fail_rate = failed as f64 / attempted as f64;
    println!(
        "{} seed {seed}: {attempted} fits (one warm-up) in {:.1} s",
        workload.name(),
        start.elapsed().as_secs_f64()
    );
    println!("  setup_s      {}", Summary::of(&setups).render("s", 1.0));
    println!("  fit_s        {}", Summary::of(&fits).render("s", 1.0));
    println!("  accuracy     mean {:.4} fraction | n={}", mean(&accuracies), accuracies.len());
    let kb_label = if workload == Workload::CentralSynth { " (raw-data upload)" } else { "" };
    println!("  kb_per_user  median {:.4} KB{kb_label} | n={}", median(&kbs), kbs.len());
    println!("  peak_rss_mb  {rss:.2} MB (VmHWM of the process) | n=1");
    println!("  fail_rate    {fail_rate:.4} fraction ({failed} of {attempted})");
    Ok(RunResult {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("fit_s", median(&fits), "s"),
            ("accuracy", mean(&accuracies), "fraction"),
            ("kb_per_user", median(&kbs), "KB"),
            ("peak_rss_mb", rss, "MB"),
        ],
    })
}

/// Fits each cohort untraced and then traced until the window closes, and
/// reduces the traced fits to the per-layer metrics.
fn run_traced(workload: Workload, seed: u64, window: Duration) -> Result<RunResult, String> {
    let sink = Arc::new(LedgerSink::default());
    let mut traced = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut dim = 0;
    let mut iterations = Vec::new();
    let start = Instant::now();
    while has_room(start, window, &iterations) {
        let iteration_start = Instant::now();
        let s = setup(workload, seed, attempted as u64)?;
        attempted += 1;
        let untraced_start = Instant::now();
        let untraced = s.trainer.fit(&s.data);
        let untraced_s = untraced_start.elapsed().as_secs_f64();
        // A fresh trainer, so the traced fit cannot resume from the
        // untraced fit's checkpoints (dropping a trainer removes them).
        drop(s.trainer);
        let trainer = workload
            .trainer(s.data.num_users(), s.seed, &s.ckpt_dir)
            .map_err(|e| format!("trainer construction failed: {e}"))?;
        plos::obs::set_sink(Some(sink.clone()));
        let main = thread_index();
        let fit_start = Instant::now();
        let result = trainer.fit(&s.data);
        let fit_end = Instant::now();
        plos::obs::set_sink(None);
        let trace = sink.take(fit_start, fit_end, main);
        let checked = untraced.map_err(|e| e.to_string()).and_then(|(m, r)| {
            let plain = outcome(&s.data, &m, r)?;
            let (m, r) = result.map_err(|e| e.to_string())?;
            let o = outcome(&s.data, &m, r)?;
            if workload.deterministic() && o.digest != plain.digest {
                return Err(format!(
                    "traced digest {:016x} differs from untraced {:016x}",
                    o.digest, plain.digest
                ));
            }
            Ok(o)
        });
        match checked {
            Ok(o) => {
                dim = o.dim;
                traced.push(TracedFit {
                    generate_s: s.generate_s,
                    untraced_s,
                    trace,
                    report: o.report,
                });
            }
            Err(e) => {
                failed += 1;
                println!("check failed: fit {}: {e}", attempted - 1);
            }
        }
        iterations.push(iteration_start.elapsed().as_secs_f64());
    }
    let micro = Micro::measure(dim.max(1));
    let pool = plos::exec::Pool::current().threads();
    let metrics = per_layer(workload, &traced, micro, pool);
    println!(
        "{} seed {seed}: {attempted} traced fits in {:.1} s; per-layer ledger (self time per fit, interval-charged)",
        workload.name(),
        start.elapsed().as_secs_f64()
    );
    for (layer, seconds, share) in ledger_table(workload, &traced) {
        println!("  {layer:<20} {seconds:>10.4} s  {:>6.1}% of charged thread time", share * 100.0);
    }
    let units: BTreeMap<&str, &str> = PER_LAYER.iter().copied().collect();
    for (name, unit) in PER_LAYER {
        let note = match name {
            "core.local.device_busy_sum_s" | "core.local.device_busy_max_s" => {
                "  (measured; under mux includes scheduler wait)"
            }
            "core.local.nexus5_model_s" => {
                "  (MODEL: Nexus 5 rescale of device_busy_max_s, not measured)"
            }
            "opt.qp.busy_s" => {
                "  (interval-charged; on device threads includes idle since the last event)"
            }
            _ => "",
        };
        println!("  {name:<40} {:>14.4} {unit}{note}", metrics.get(name).copied().unwrap_or(0.0));
    }
    Ok(RunResult {
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|(name, _)| (*name, metrics.get(name).copied().unwrap_or(0.0), units[name]))
            .collect(),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(detail) => {
            eprintln!("error: {detail}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("host: {}", host_line());
    let window = Duration::from_secs(args.seconds);
    let mut all_correct = true;
    for workload in args.workloads {
        let result = if args.trace {
            run_traced(workload, args.seed, window)
        } else {
            run_end_to_end(workload, args.seed, window)
        };
        let _ = std::fs::remove_dir_all(SCRATCH);
        match result {
            Ok(result) => {
                all_correct &= result.failed == 0;
                println!("{}", result.json());
            }
            Err(detail) => {
                eprintln!("error: {}: {detail}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
