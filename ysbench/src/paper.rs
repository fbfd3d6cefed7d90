//! `paper_batch`: the paper's evaluation. Each request is one
//! `YSmart::execute_sql` of a paper query shape under YSmart or Hive on
//! text-format data. MapReduce execution does almost all the work; there is
//! no scheduler, journal or reuse cache.

use std::time::Instant;

use ysmart::core::{compile, Strategy, YSmart};
use ysmart::mapred::{run_chain, ChainMetrics, ClusterConfig};
use ysmart::plan::{analyze_with_stats, build_plan};
use ysmart::rel::Row;

use crate::data::{clear_query_files, shuffle, Dataset, Expected, PlanCounts, SHAPES};
use crate::spans::Recorder;
use crate::{timed, Det, Measured, Workload, SETUP_REPEATS};

/// Simulated data volume the cost model charges (the paper's small-cluster
/// runs use 10 GB of TPC-H).
const TARGET_GB: f64 = 10.0;
/// Pig is left out: its designed Q-CSA disk-full failure would sit in the
/// failure share of every run, and it takes the same one-operation-to-one-
/// job path as Hive.
const STRATEGIES: [Strategy; 2] = [Strategy::YSmart, Strategy::Hive];

pub struct PaperBatch<'a> {
    ds: &'a Dataset,
    engine: YSmart,
    expected: Vec<Expected>,
    requests: Vec<(usize, Strategy)>,
    tags: u64,
}

fn engine(ds: &Dataset) -> YSmart {
    ds.engine(ClusterConfig::small_local(), Some(TARGET_GB))
}

impl<'a> PaperBatch<'a> {
    pub fn setup(ds: &'a Dataset, seed: u64, m: &mut Measured) -> Self {
        let mut s = PaperBatch {
            ds,
            engine: engine(ds),
            expected: Vec::new(),
            requests: Vec::new(),
            tags: 0,
        };
        for _ in 0..SETUP_REPEATS {
            m.setup_s.extend(s.setup_sample());
        }
        s.expected = SHAPES
            .iter()
            .map(|&shape| Expected::new(ds, &s.engine, shape, 0).expect("paper query plans"))
            .collect();
        s.requests = (0..s.expected.len())
            .flat_map(|i| STRATEGIES.map(|strategy| (i, strategy)))
            .collect();
        shuffle(&mut s.requests, seed);
        s
    }

    /// `execute_sql` taken apart into its public calls, each in a span.
    fn traced(
        &mut self,
        rec: &mut Recorder,
        sql: &str,
        strategy: Strategy,
    ) -> Result<(Vec<Row>, ChainMetrics, PlanCounts), String> {
        self.tags += 1;
        let tag = format!("t{}-{strategy}", self.tags);
        let engine = &mut self.engine;
        let query = rec
            .span("sql.parse", || ysmart::sql::parse(sql))
            .map_err(|e| e.to_string())?;
        let plan = rec
            .span("plan.build", || build_plan(engine.catalog(), &query))
            .map_err(|e| e.to_string())?;
        let report = rec.span("plan.correlate", || {
            analyze_with_stats(&plan, Some(engine.statistics()))
        });
        let translation = rec
            .span("core.compile", || {
                compile(&plan, &report, &strategy.options(), &tag)
            })
            .map_err(|e| e.to_string())?;
        let chain = rec
            .span("core.chain_for", || engine.chain_for(&translation))
            .map_err(|e| e.to_string())?;
        let outcome = rec
            .span("mapred.run_chain", || {
                run_chain(&mut engine.cluster, &chain)
            })
            .map_err(|e| e.error.to_string())?;
        let rows = rec
            .span("core.decode_output", || engine.decode_output(&translation))
            .map_err(|e| e.to_string())?;
        let counts = PlanCounts::of(&plan, &report);
        Ok((rows, outcome.metrics, counts))
    }
}

impl Workload for PaperBatch<'_> {
    /// A fresh engine replaces the current one; dropping the old one is
    /// not timed.
    fn setup_sample(&mut self) -> Option<f64> {
        let (fresh, seconds) = timed(|| engine(self.ds));
        self.engine = fresh;
        Some(seconds)
    }

    fn pass(&mut self, rec: &mut Recorder, m: &mut Measured) -> Det {
        let mut det = Det::new();
        for i in 0..self.requests.len() {
            let (e, strategy) = self.requests[i];
            let sql = self.expected[e].sql.clone();
            m.attempted += 1;
            *det.entry("queries").or_default() += 1.0;
            rec.begin();
            let start = Instant::now();
            let result = if rec.is_on() {
                self.traced(rec, &sql, strategy)
            } else {
                self.engine
                    .execute_sql(&sql, strategy)
                    .map(|o| (o.rows, o.metrics, self.expected[e].plan))
                    .map_err(|e| e.to_string())
            };
            let seconds = start.elapsed().as_secs_f64();
            rec.end();
            let encoded = clear_query_files(&mut self.engine);
            let exp = &self.expected[e];
            match result {
                Ok((rows, metrics, plan)) => {
                    exp.check(&rows, &strategy.to_string());
                    assert_eq!(plan, exp.plan, "traced plan counts differ from set-up");
                    m.answered += 1;
                    m.busy_s += seconds;
                    m.latency(format!("{}/{strategy}", exp.shape.name()), seconds * 1e3);
                    add_chain(
                        &mut det,
                        &metrics,
                        self.engine.cluster.config.size_multiplier,
                    );
                    add_plan(&mut det, plan);
                    *det.entry("encoded_bytes").or_default() += encoded as f64;
                }
                Err(err) => {
                    eprintln!("{} under {strategy}: {err}", exp.shape.name());
                    m.failed += 1;
                    *det.entry("errors").or_default() += 1.0;
                }
            }
        }
        det
    }

    fn layers(&self, rec: &Recorder, m: &Measured, det: &Det) -> Vec<(&'static str, f64)> {
        let q = det["queries"];
        let passes = m.attempted as f64 / q;
        let records = det["map_in_records"] * passes;
        let mut out = vec![
            ("sql.parse_ms", rec.layer_ms("sql.parse")),
            ("plan.build_ms", rec.layer_ms("plan.build")),
            ("plan.correlate_ms", rec.layer_ms("plan.correlate")),
            ("core.compile_ms", rec.layer_ms("core.compile")),
            ("core.chain_for_ms", rec.layer_ms("core.chain_for")),
            ("mapred.run_chain_ms", rec.layer_ms("mapred.run_chain")),
            ("core.decode_output_ms", rec.layer_ms("core.decode_output")),
            (
                "mapred.ns_per_map_record",
                rec.layer_ns("mapred.run_chain") as f64 / records,
            ),
        ];
        for (name, key) in [
            ("plan.nodes", "plan_nodes"),
            ("plan.ic_pairs", "ic_pairs"),
            ("plan.tc_pairs", "tc_pairs"),
            ("plan.jfc_pairs", "jfc_pairs"),
            ("mapred.map_in_records", "map_in_records"),
            ("mapred.shuffle_bytes", "shuffle_bytes"),
            ("mapred.hdfs_read_bytes", "hdfs_read_bytes"),
            ("mapred.hdfs_write_bytes", "hdfs_write_bytes"),
            ("mapred.tasks", "tasks"),
            ("mapred.sim_s_per_query", "sim_s"),
            ("exec.dispatches", "dispatches"),
            ("rel.encoded_bytes", "encoded_bytes"),
        ] {
            out.push((name, det[key] / q));
        }
        out
    }
}

/// Adds one query's plan counts to a pass's deterministic counts.
pub fn add_plan(det: &mut Det, p: PlanCounts) {
    for (k, v) in [
        ("plan_nodes", p.nodes),
        ("ic_pairs", p.ic_pairs),
        ("tc_pairs", p.tc_pairs),
        ("jfc_pairs", p.jfc_pairs),
    ] {
        *det.entry(k).or_default() += v as f64;
    }
}

/// Adds one chain's jobs, simulated time and record/byte counts to a pass's
/// deterministic counts. The engine scales record and byte counts up to the
/// simulated volume; dividing by `multiplier` gives the real work done.
fn add_chain(det: &mut Det, metrics: &ChainMetrics, multiplier: f64) {
    *det.entry("sim_s").or_default() += metrics.total_s();
    for j in &metrics.jobs {
        let real = |v: u64| (v as f64 / multiplier).round();
        let dispatches: u64 = j.map_dispatches.iter().chain(&j.reduce_dispatches).sum();
        for (k, v) in [
            ("jobs", 1.0),
            ("map_in_records", real(j.map_in_records)),
            ("shuffle_bytes", real(j.shuffle_bytes)),
            ("hdfs_read_bytes", real(j.hdfs_read_bytes)),
            ("hdfs_write_bytes", real(j.hdfs_write_bytes)),
            ("tasks", (j.map_tasks + j.reduce_tasks) as f64),
            ("dispatches", dispatches as f64),
        ] {
            *det.entry(k).or_default() += v;
        }
    }
}
