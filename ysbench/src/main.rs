//! Steady end-to-end and per-layer benchmark of YSmart.
//!
//! ```text
//! ysbench --workload <paper_batch|serve_stream>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Two closed-loop workloads, one client each, drive the program only
//! through its public API and check every answer against the relational
//! oracle (see `README.md` in this directory for why each exists and which
//! layer metric should move which end-to-end metric). With `--trace 0` the
//! run prints the end-to-end metrics; with `--trace 1` it first runs
//! untraced for half the time, then with spans around every public call,
//! and prints the per-layer metrics. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Exit codes: 0 success, 2 bad arguments, 3 wrong answer, 4 a
//! deterministic count changed between passes, 5 too few requests or a
//! non-finite metric, 6 a recovery gate failed.

mod data;
mod paper;
mod serve;
mod spans;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use data::Dataset;
use spans::Recorder;

/// The seed runs use unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;
/// A seed held out while the benchmark was tuned: a later performance claim
/// must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_110_620;

/// Samples every request class must have: the p90 of 100 samples has ten
/// beyond it.
const MIN_PER_CLASS: usize = 100;
/// Set-up is repeated this often before timing, and again every
/// `SETUP_EVERY_S` during it; `setup_s` is the median of all of them, so it
/// sees the same machine as the requests do.
pub const SETUP_REPEATS: usize = 5;
const SETUP_EVERY_S: f64 = 0.25;
/// A run that has not met its minimum request count by then gives up.
const HARD_LIMIT_S: f64 = 150.0;

/// End-to-end metrics, in print order, with units.
const END_TO_END: [(&str, &str); 5] = [
    ("queries_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_query", "count"),
];

/// Per-layer metrics printed by a traced run, with units. A layer a
/// workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("sql.parse_ms", "ms"),
    ("plan.build_ms", "ms"),
    ("plan.correlate_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("plan.nodes", "count"),
    ("plan.ic_pairs", "count"),
    ("plan.tc_pairs", "count"),
    ("plan.jfc_pairs", "count"),
    ("core.chain_for_ms", "ms"),
    ("mapred.run_chain_ms", "ms"),
    ("mapred.ns_per_map_record", "ns"),
    ("mapred.map_in_records", "count"),
    ("mapred.shuffle_bytes", "bytes"),
    ("mapred.hdfs_read_bytes", "bytes"),
    ("mapred.hdfs_write_bytes", "bytes"),
    ("mapred.tasks", "count"),
    ("mapred.sim_s_per_query", "sim_s"),
    ("exec.dispatches", "count"),
    ("rel.encoded_bytes", "bytes"),
    ("core.decode_output_ms", "ms"),
    ("serve.admit_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.admit_ms_p50", "ms"),
    ("serve.admit_ms_p90", "ms"),
    ("serve.recover_s", "s"),
    ("reuse.hit_rate", "ratio"),
    ("reuse.hits", "count"),
    ("reuse.misses", "count"),
    ("reuse.evictions", "count"),
    ("reuse.integrity_failures", "count"),
    ("reuse.bytes_cached", "bytes"),
    ("journal.bytes_per_query", "bytes"),
    ("journal.records", "count"),
    ("journal.recover_ms", "ms"),
    ("scheduler.jobs_reused", "count"),
    ("scheduler.jobs_replayed", "count"),
    ("scheduler.jobs_executed", "count"),
    ("bench.unattributed_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// Deterministic counts of one pass over a workload's request list. They
/// must repeat exactly on every pass, traced or not, and on every run of
/// one build and seed.
pub type Det = BTreeMap<&'static str, f64>;

/// What a workload's timed passes measured.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Answered queries.
    pub answered: u64,
    /// Seconds spent inside request calls into the program.
    pub busy_s: f64,
    /// Answered queries per busy second, one sample per pass.
    pub pass_qps: Vec<f64>,
    /// Latency samples in milliseconds, by request class.
    pub classes: BTreeMap<String, Vec<f64>>,
    /// Set-up samples in seconds.
    pub setup_s: Vec<f64>,
    /// Other named samples (admission latency, reopen time, ...).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Measured {
    pub fn latency(&mut self, class: String, ms: f64) {
        self.classes.entry(class).or_default().push(ms);
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn requests(&self) -> usize {
        self.classes.values().map(Vec::len).sum()
    }

    fn fewest_per_class(&self) -> usize {
        self.classes.values().map(Vec::len).min().unwrap_or(0)
    }
}

/// A workload after set-up: one call runs one full pass over its request
/// list and returns the pass's deterministic counts.
pub trait Workload {
    fn pass(&mut self, rec: &mut Recorder, m: &mut Measured) -> Det;

    /// Times one more set-up, for workloads whose passes do not set up.
    fn setup_sample(&mut self) -> Option<f64> {
        None
    }

    /// Per-layer metrics from a traced phase and one pass's counts.
    fn layers(&self, rec: &Recorder, m: &Measured, det: &Det) -> Vec<(&'static str, f64)>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Runs passes until `seconds` have passed and every request class has at
/// least `min_per_class` samples; every pass's counts must equal the first
/// pass's.
fn drive(
    w: &mut dyn Workload,
    m: &mut Measured,
    rec: &mut Recorder,
    seconds: f64,
    min_per_class: usize,
    det: &mut Option<Det>,
) {
    let start = Instant::now();
    let mut last_setup = start;
    while start.elapsed().as_secs_f64() < seconds || m.fewest_per_class() < min_per_class {
        if start.elapsed().as_secs_f64() > HARD_LIMIT_S {
            eprintln!(
                "a request class has only {} samples after {HARD_LIMIT_S}s",
                m.fewest_per_class()
            );
            exit(5);
        }
        if last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            m.setup_s.extend(w.setup_sample());
            last_setup = Instant::now();
        }
        let (answered, busy_s) = (m.answered, m.busy_s);
        let pass = w.pass(rec, m);
        m.pass_qps
            .push((m.answered - answered) as f64 / (m.busy_s - busy_s));
        match det {
            None => *det = Some(pass),
            Some(first) if *first != pass => {
                eprintln!(
                    "determinism gate: pass counts changed\n first: {first:?}\n now:   {pass:?}"
                );
                exit(4);
            }
            Some(_) => {}
        }
    }
}

#[must_use]
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of the samples (0 for none).
#[must_use]
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `f`, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("ysbench: {e}");
        eprintln!(
            "usage: ysbench --workload paper_batch|serve_stream \
             --seed N --seconds S --trace 0|1"
        );
        exit(2);
    });
    let scratch_root = std::env::var_os("YSBENCH_SCRATCH")
        .map_or_else(|| PathBuf::from("target/ysbench-scratch"), PathBuf::from);
    let scratch = scratch_root.join(format!("{}-{}", args.workload, std::process::id()));
    let ds = Dataset::generate(args.seed);
    let mut m = Measured::default();
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "paper_batch" => Box::new(paper::PaperBatch::setup(&ds, args.seed, &mut m)),
        "serve_stream" => Box::new(serve::ServeStream::setup(&ds, args.seed, &scratch, &mut m)),
        other => {
            eprintln!("ysbench: unknown workload {other}");
            exit(2);
        }
    };

    let mut det = None;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let mut also: Vec<(&str, f64, &str)> = Vec::new();
    let names: &[(&str, &str)] = if args.trace {
        let half = args.seconds / 2.0;
        let mut plain = Measured::default();
        drive(
            w.as_mut(),
            &mut plain,
            &mut Recorder::new(false),
            half,
            1,
            &mut det,
        );
        let mut rec = Recorder::new(true);
        let mut traced = Measured::default();
        drive(w.as_mut(), &mut traced, &mut rec, half, 1, &mut det);
        m.attempted = plain.attempted + traced.attempted;
        m.failed = plain.failed + traced.failed;
        let qps = |x: &Measured| median(&x.pass_qps);
        values.extend(w.layers(&rec, &traced, det.as_ref().expect("a pass ran")));
        values.insert("bench.unattributed_ms", rec.unattributed_ms());
        values.insert(
            "bench.trace_overhead_pct",
            (qps(&plain) / qps(&traced) - 1.0) * 100.0,
        );
        std::fs::create_dir_all(&scratch_root).ok();
        let path = scratch_root.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match rec.write(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
        }
        &PER_LAYER
    } else {
        drive(
            w.as_mut(),
            &mut m,
            &mut Recorder::new(false),
            args.seconds,
            MIN_PER_CLASS,
            &mut det,
        );
        let det = det.as_ref().expect("a pass ran");
        // Request classes differ by up to 25x in latency: a pooled
        // percentile lands between class clusters and swings with the mix,
        // so each percentile is taken per class and combined by geometric
        // mean.
        let p50s: Vec<f64> = m.classes.values().map(|v| median(v)).collect();
        let p90s: Vec<f64> = m.classes.values().map(|v| quantile(v, 0.9)).collect();
        let per_query = |key: &str| det.get(key).copied().unwrap_or(0.0) / det["queries"];
        // The median pass rate, not the pooled rate: a slow spell of the
        // host that covers less than half the run does not move it.
        values.insert("queries_per_s", median(&m.pass_qps));
        values.insert("latency_ms_p50", geomean(&p50s));
        values.insert("setup_s", median(&m.setup_s));
        values.insert("peak_rss_mb", peak_rss_mb());
        values.insert("jobs_per_query", per_query("jobs"));
        also.push(("latency_ms_p90", geomean(&p90s), "ms"));
        also.push((
            "error_ratio",
            m.failed as f64 / m.attempted.max(1) as f64,
            "ratio",
        ));
        if det.contains_key("sim_s") {
            also.push(("sim_s_per_query", per_query("sim_s"), "sim_s"));
        }
        for (name, unit, key, q) in [
            ("admit_ms_p50", "ms", "admit_ms", 0.5),
            ("admit_ms_p90", "ms", "admit_ms", 0.9),
            ("recover_s", "s", "recover_s", 0.5),
        ] {
            if let Some(v) = m.samples.get(key) {
                also.push((name, quantile(v, q), unit));
            }
        }
        println!(
            "requests: {} timed in {} classes, {} answered in {:.3}s busy",
            m.requests(),
            m.classes.len(),
            m.answered,
            m.busy_s
        );
        for ((class, v), (p50, p90)) in m.classes.iter().zip(p50s.iter().zip(&p90s)) {
            println!(
                "  {class:<24} n={:<6} p50 {p50:>9.3} ms  p90 {p90:>9.3} ms",
                v.len()
            );
        }
        &END_TO_END
    };
    std::fs::remove_dir_all(&scratch).ok();

    let metrics: Vec<(&str, f64, &str)> = names
        .iter()
        .map(|&(name, unit)| (name, values.remove(name).unwrap_or(0.0), unit))
        .collect();
    assert!(
        values.is_empty(),
        "metrics missing from the list: {values:?}"
    );
    println!(
        "workload {} seed {} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}), {}s, trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit) in metrics.iter().chain(&also) {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let det = det.expect("a pass ran");
    let digest: Vec<String> = det.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("determinism: {}", digest.join(" "));

    let mut json = Vec::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            eprintln!("metric {name} is not finite: {value}");
            exit(5);
        }
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        json.join(", ")
    );
}
