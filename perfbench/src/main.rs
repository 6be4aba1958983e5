//! End-to-end and per-layer benchmark of the MATLANG query service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload standing-reads --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Spawns the server in-process with its shipped defaults and drives one
//! workload over loopback connections.  With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it additionally makes a
//! traced window and prints the per-layer metrics and the tracing
//! overhead.  The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  See `README.md`.

mod fixture;
mod stats;
mod trace;
mod workloads;

use stats::{geomean, median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use workloads::{Options, Outcome, Window};

/// Metrics of one run: name → (value, unit).
type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The end-to-end metrics of the JSON line: those steady enough across
/// runs to bound a regression (see `README.md`).  The report prints the
/// rest too.
const GATED: [&str; 2] = ["class_p50_geomean_us", "setup_s"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_: &dyn std::error::Error| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The end-to-end metrics of one window (`setup_s` is added separately).
fn window_metrics(outcome: &Outcome, w: &Window) -> Metrics {
    let p50: Vec<f64> = outcome
        .classes
        .iter()
        .map(|class| median(w.lat.samples(class.name)))
        .collect();
    let mut m = Metrics::new();
    m.insert(
        "throughput_ops_s".into(),
        (w.lat.total() as f64 / w.seconds, "ops/s"),
    );
    m.insert("class_p50_geomean_us".into(), (geomean(&p50), "us"));
    m.insert("peak_rss_mb".into(), (w.rss_mb, "MiB"));
    m
}

/// The per-class rows of the report: name, value, unit, samples.
fn class_rows(outcome: &Outcome, w: &Window) -> Vec<(String, f64, &'static str, usize)> {
    let mut rows = Vec::new();
    for class in outcome.classes {
        let samples = w.lat.samples(class.name);
        let tail = (class.tail * 100.0).round() as u32;
        rows.push((
            format!("{}_p50_us", class.name),
            median(samples),
            "us",
            samples.len(),
        ));
        rows.push((
            format!("{}_p{tail}_us", class.name),
            percentile(samples, class.tail),
            "us",
            samples.len(),
        ));
    }
    rows
}

fn row(out: &mut String, name: &str, value: f64, unit: &str, samples: &str) {
    let _ = writeln!(out, "  {name:<34} {value:>14.4} {unit:<6} {samples}");
}

/// Renders the human-readable report of one workload and returns the
/// metrics its JSON line carries.
fn report(name: &str, args: &Args, outcome: &Outcome, out: &mut String) -> Metrics {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads =
        std::env::var(matlang_matrix::MATLANG_THREADS_ENV).unwrap_or_else(|_| "unset".to_string());
    let _ = writeln!(
        out,
        "# workload={name} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    let _ = writeln!(
        out,
        "# nproc={nproc} server_workers={} MATLANG_THREADS={threads} load_connections={} \
         transport=loopback-tcp closed-loop=yes",
        workloads::resolved_workers(),
        outcome.connections
    );
    for line in &outcome.info {
        let _ = writeln!(out, "# {line}");
    }
    let tally = &outcome.tally;
    for m in &tally.messages {
        let _ = writeln!(out, "# FAILURE: {m}");
    }
    let _ = writeln!(out, "end-to-end ({name}, untraced window):");
    let mut e2e = window_metrics(outcome, &outcome.untraced);
    e2e.insert("setup_s".into(), (median(&outcome.setup_s), "s"));
    let samples = outcome.untraced.lat.total().to_string();
    for (metric, (value, unit)) in &e2e {
        let n = if metric == "setup_s" {
            outcome.setup_s.len().to_string()
        } else {
            samples.clone()
        };
        row(out, metric, *value, unit, &format!("n={n}"));
    }
    row(
        out,
        "error_ratio",
        tally.error_ratio(),
        "ratio",
        &format!("failed={} attempted={}", tally.failed, tally.attempted),
    );
    for (metric, value, unit, n) in class_rows(outcome, &outcome.untraced) {
        row(out, &metric, value, unit, &format!("n={n}"));
    }
    for (metric, value, unit, n) in &outcome.rows {
        row(out, metric, *value, unit, &format!("n={n}"));
    }
    if !args.trace {
        e2e.retain(|metric, _| GATED.contains(&metric.as_str()));
        return e2e;
    }

    let traced = outcome.traced.as_ref().expect("traced window");
    let mut layers = Metrics::new();
    for (metric, value) in &outcome.layers {
        layers.insert(metric.to_string(), *value);
    }
    let traced_e2e = window_metrics(outcome, traced);
    for (metric, (value, unit)) in &traced_e2e {
        let base = e2e[metric].0;
        layers.insert(format!("tracing.overhead_{metric}"), (value - base, unit));
    }
    let _ = writeln!(out, "per-layer ({name}, traced window):");
    for (metric, (value, unit)) in &layers {
        row(out, metric, *value, unit, "");
    }
    let _ = writeln!(
        out,
        "traced window, per class (overhead = traced - untraced):"
    );
    let before = class_rows(outcome, &outcome.untraced);
    for ((metric, value, unit, n), (_, base, _, _)) in
        class_rows(outcome, traced).into_iter().zip(before)
    {
        row(
            out,
            &metric,
            value,
            unit,
            &format!("n={n} overhead={:+.4}", value - base),
        );
    }
    layers
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { -1.0 };
        let _ = write!(
            body,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let name = args.workload.as_str();
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create work directory");
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
    };
    let outcome = workloads::run(name, &opts);
    let mut text = String::new();
    let metrics = report(name, &args, &outcome, &mut text);
    print!("{text}");
    if let Some(data) = &outcome.trace {
        let spans = root.join(format!("spans-{name}-seed{}.tsv", args.seed));
        let written = std::fs::File::create(&spans).and_then(|mut f| data.log.write_tsv(&mut f));
        match written {
            Ok(()) => println!(
                "# spans: {} written to {}",
                data.log.spans().len(),
                spans.display()
            ),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    // A metric without samples is a defect of the run, not a number.
    let mut correct = outcome.tally.failed == 0;
    for (metric, (value, _)) in &metrics {
        if !value.is_finite() {
            println!("# FAILURE: {metric} has no finite value");
            correct = false;
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    let tally = &outcome.tally;
    println!(
        "{}",
        json_line(correct, tally.attempted.max(1), tally.failed, &metrics)
    );
}
