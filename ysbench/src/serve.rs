//! `serve_stream`: a seeded stream of the paper's shapes with varied
//! literals goes through `ysmart serve`'s `Service::handle_line`, split
//! across two tenants with `@tenant`. The client admits a batch of queries,
//! then sends `!run`. Each pass is one service session: a fresh engine, a
//! file-backed journal and a reuse cache, then the stream, then a reopen of
//! the journal with `Service::open`, which must answer nothing new.
//!
//! Admission translation, journal writes and reads, reuse lookup, verify
//! and insert, the scheduler, `chain_for` fingerprinting and columnar
//! execution of misses show here and in no other workload.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ysmart::core::Strategy;
use ysmart::mapred::{
    recover, ClusterConfig, DataFormat, ReuseConfig, SchedulerConfig, TenantSpec,
};
use ysmart::rel::codec::decode_line;
use ysmart::rel::{Row, Schema};
use ysmart::serve::{Response, ServeOptions, Service};

use crate::data::{clear_query_files, mix, shuffle, Dataset, Expected, SHAPES};
use crate::spans::Recorder;
use crate::{median, quantile, Det, Measured, Workload, SETUP_REPEATS};

/// Queries per session, admitted `BATCH` at a time before each `!run`.
const QUERIES: usize = 42;
const BATCH: usize = 6;
/// Reuse-cache capacity, as a share of the stream's working set (the bytes
/// a session caches when nothing is evicted), so the stream hits, misses
/// and evicts. The working set changes with the seed's data and literals
/// (about 1.1-1.2 MB), so a capacity fixed in bytes would put a different
/// share of it under pressure on every seed. Over seeds 1-6, shares 0.7 and
/// 0.8 both gave 12-14 hits, 34-35 misses and 83-87 evictions per session,
/// and 0.75 gives the same on seeds 1-10 and the held-out seed; near 0.45
/// and 0.9 the counts jump with the seed, as the largest outputs start or
/// stop fitting.
const REUSE_SHARE: f64 = 0.75;
/// A capacity no session fills, for measuring the working set.
const UNBOUNDED_BYTES: u64 = 1 << 40;
/// Simulated data volume the cost model charges.
const TARGET_GB: f64 = 10.0;
const TENANTS: [&str; 2] = ["etl", "adhoc"];

pub struct ServeStream<'a> {
    ds: &'a Dataset,
    expected: Vec<(Expected, Schema)>,
    /// The session's admission lines, with the index of their expected
    /// answer.
    stream: Vec<(String, usize)>,
    journal: PathBuf,
    reuse_bytes: u64,
}

fn config() -> ClusterConfig {
    let mut c = ClusterConfig::small_local();
    c.data_format = DataFormat::Columnar;
    c
}

fn options(journal: &Path, reuse_bytes: u64) -> ServeOptions {
    let mut o = ServeOptions::new(Strategy::YSmart);
    o.scheduler = SchedulerConfig {
        max_running: 2,
        tenants: TENANTS.iter().map(|t| TenantSpec::new(*t, 64, 8)).collect(),
        trace: false,
        drain_at_s: None,
    };
    o.journal_path = Some(journal.to_path_buf());
    o.reuse = Some(ReuseConfig::with_capacity(reuse_bytes));
    o
}

impl<'a> ServeStream<'a> {
    pub fn setup(ds: &'a Dataset, seed: u64, scratch: &Path, m: &mut Measured) -> Self {
        std::fs::create_dir_all(scratch).expect("scratch directory");
        let journal = scratch.join("journal.ysj");
        let mut s = ServeStream {
            ds,
            expected: Vec::new(),
            stream: Vec::new(),
            journal,
            reuse_bytes: UNBOUNDED_BYTES,
        };
        let mut engine = ds.engine(config(), Some(TARGET_GB));
        // The stream's structure (which shape, which literal slot, which
        // tenant at each position) is fixed; the seed only picks the
        // literal each slot stands for and generates the data, so every
        // seed hits and misses the reuse cache alike.
        let perms: Vec<Vec<usize>> = SHAPES
            .iter()
            .enumerate()
            .map(|(i, shape)| {
                let mut p: Vec<usize> = (0..shape.variants()).collect();
                shuffle(&mut p, mix(seed ^ ((i as u64) << 8)));
                p
            })
            .collect();
        for i in 0..QUERIES {
            let si = i % SHAPES.len();
            let shape = SHAPES[si];
            // Skewed toward low slots, so early literals repeat.
            let r = mix(0x5EED ^ i as u64);
            let slot = ((r % 4).min((r >> 8) % 4)) as usize;
            let variant = perms[si][slot % perms[si].len()];
            let sql = shape.sql(variant);
            let idx = match s.expected.iter().position(|(e, _)| e.sql == sql) {
                Some(idx) => idx,
                None => {
                    let exp = Expected::new(ds, &engine, shape, variant).expect("query plans");
                    let schema = engine
                        .translate(&sql, Strategy::YSmart)
                        .expect("query translates")
                        .output_schema;
                    s.expected.push((exp, schema));
                    s.expected.len() - 1
                }
            };
            let line = format!("@{} {}", TENANTS[i % 2], sql.replace('\n', " "));
            s.stream.push((line, idx));
        }
        clear_query_files(&mut engine);
        // One untimed session with a cache that never evicts measures the
        // working set the capacity is a share of.
        let det = s.pass(&mut Recorder::new(false), &mut Measured::default());
        s.reuse_bytes = (det["reuse_bytes_cached"] * REUSE_SHARE) as u64;
        for _ in 0..SETUP_REPEATS {
            let (svc, start) = s.open_fresh();
            m.setup_s.push(start.elapsed().as_secs_f64());
            drop(svc);
        }
        s
    }

    /// Set-up: engine construction, table loading and `Service::open` on an
    /// empty journal. Returns the service and the instant set-up began.
    fn open_fresh(&self) -> (Service, Instant) {
        let _ = std::fs::remove_file(&self.journal);
        let start = Instant::now();
        let engine = self.ds.engine(config(), Some(TARGET_GB));
        let (svc, responses) = Service::open(engine, options(&self.journal, self.reuse_bytes))
            .expect("fresh journal opens");
        assert!(responses.is_empty(), "a fresh journal recovers nothing");
        (svc, start)
    }

    fn check(&self, rows: &[String], idx: usize) {
        let (exp, schema) = &self.expected[idx];
        let decoded: Vec<Row> = rows
            .iter()
            .map(|l| decode_line(l, schema).expect("service rows decode"))
            .collect();
        exp.check(&decoded, "serve");
    }
}

impl Workload for ServeStream<'_> {
    fn pass(&mut self, rec: &mut Recorder, m: &mut Measured) -> Det {
        let mut det = Det::new();
        let (mut svc, start) = self.open_fresh();
        m.setup_s.push(start.elapsed().as_secs_f64());
        let mut answered = 0usize;
        for (b, batch) in self.stream.chunks(BATCH).enumerate() {
            let mut responses = Vec::new();
            rec.begin();
            let batch_start = Instant::now();
            for (line, _) in batch {
                let t = Instant::now();
                let ack = rec.span("serve.admit", || svc.handle_line(line));
                m.sample("admit_ms", t.elapsed().as_secs_f64() * 1e3);
                responses.extend(ack);
            }
            responses.extend(rec.span("serve.run", || svc.handle_line("!run")));
            let seconds = batch_start.elapsed().as_secs_f64();
            rec.end();
            m.attempted += batch.len() as u64;
            *det.entry("queries").or_default() += batch.len() as f64;
            let mut ok = 0;
            for r in &responses {
                match r {
                    Response::Result {
                        id,
                        rows,
                        elapsed_s,
                        jobs,
                        ..
                    } => {
                        self.check(rows, self.stream[*id as usize].1);
                        ok += 1;
                        *det.entry("jobs").or_default() += *jobs as f64;
                        *det.entry("sim_s").or_default() += elapsed_s;
                    }
                    Response::Rejected { label, error, .. } => {
                        eprintln!("{label}: {error}");
                        m.failed += 1;
                        *det.entry("errors").or_default() += 1.0;
                    }
                    Response::Info(_) => {}
                }
            }
            answered += ok;
            m.answered += ok as u64;
            m.busy_s += seconds;
            m.latency(format!("batch{b:02}"), seconds * 1e3);
        }

        let stats = *svc.reuse_stats();
        let bytes = svc.journal_bytes().to_vec();
        let records = rec
            .span("journal.recover", || recover(&bytes))
            .expect("the session's journal recovers")
            .records
            .len();
        let encoded = clear_query_files(svc.engine_mut());
        drop(svc);

        // Reopen: recovery must fast-forward everything and answer nothing.
        let engine = self.ds.engine(config(), Some(TARGET_GB));
        let start = Instant::now();
        let (svc, responses) = Service::open(engine, options(&self.journal, self.reuse_bytes))
            .expect("the session's journal reopens");
        m.sample("recover_s", start.elapsed().as_secs_f64());
        let rs = svc.recovery_stats();
        let new_answers = responses
            .iter()
            .filter(|r| matches!(r, Response::Result { .. }))
            .count();
        if new_answers != 0 || rs.jobs_executed != 0 || rs.already_done != answered {
            eprintln!(
                "recovery gate: {new_answers} new answers, {} jobs executed, \
                 {} already done of {answered} answered",
                rs.jobs_executed, rs.already_done
            );
            std::process::exit(6);
        }
        for (k, v) in [
            ("reuse_hits", stats.hits),
            ("reuse_misses", stats.misses),
            ("reuse_evictions", stats.evictions),
            ("reuse_integrity_failures", stats.integrity_failures),
            ("reuse_bytes_cached", stats.bytes_cached),
            ("journal_bytes", bytes.len() as u64),
            ("journal_records", records as u64),
            ("encoded_bytes", encoded),
            ("jobs_replayed", rs.jobs_replayed as u64),
            ("jobs_executed", rs.jobs_executed as u64),
        ] {
            det.insert(k, v as f64);
        }
        drop(svc);
        let _ = std::fs::remove_file(&self.journal);
        det
    }

    fn layers(&self, rec: &Recorder, m: &Measured, det: &Det) -> Vec<(&'static str, f64)> {
        let q = det["queries"];
        let passes = m.attempted as f64 / q;
        let admits = m.attempted as f64;
        let runs = passes * q / BATCH as f64;
        let hits = det["reuse_hits"];
        let admit = m.samples.get("admit_ms").map_or(&[][..], Vec::as_slice);
        let reopen = m.samples.get("recover_s").map_or(&[][..], Vec::as_slice);
        vec![
            (
                "serve.admit_ms",
                rec.layer_ns("serve.admit") as f64 / 1e6 / admits,
            ),
            (
                "serve.run_ms",
                rec.layer_ns("serve.run") as f64 / 1e6 / runs,
            ),
            ("serve.admit_ms_p50", quantile(admit, 0.5)),
            ("serve.admit_ms_p90", quantile(admit, 0.9)),
            ("serve.recover_s", median(reopen)),
            ("mapred.sim_s_per_query", det["sim_s"] / q),
            ("rel.encoded_bytes", det["encoded_bytes"] / q),
            (
                "reuse.hit_rate",
                hits / (hits + det["reuse_misses"]).max(1.0),
            ),
            ("reuse.hits", hits),
            ("reuse.misses", det["reuse_misses"]),
            ("reuse.evictions", det["reuse_evictions"]),
            ("reuse.integrity_failures", det["reuse_integrity_failures"]),
            ("reuse.bytes_cached", det["reuse_bytes_cached"]),
            ("journal.bytes_per_query", det["journal_bytes"] / q),
            ("journal.records", det["journal_records"]),
            (
                "journal.recover_ms",
                rec.layer_ns("journal.recover") as f64 / 1e6 / passes,
            ),
            ("scheduler.jobs_reused", hits),
            ("scheduler.jobs_replayed", det["jobs_replayed"]),
            ("scheduler.jobs_executed", det["jobs_executed"]),
        ]
    }
}
