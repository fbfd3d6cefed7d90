//! Benchmark inputs: the paper's query shapes with their literal pools, the
//! seeded base tables, engine set-up and the oracle answers every response
//! is checked against.

use std::collections::BTreeMap;

use ysmart::core::YSmart;
use ysmart::datagen::{clicks_catalog, tpch_catalog, ClicksGen, ClicksSpec, TpchGen, TpchSpec};
use ysmart::mapred::ClusterConfig;
use ysmart::plan::{analyze_with_stats, build_plan, Catalog, CorrelationReport, Plan};
use ysmart::queries::workloads::{
    q17_sql, q18_sql, q21_sql, q21_subtree_sql, q3_sql, q_agg_sql, q_csa_sql,
};
use ysmart::queries::{oracle_execute, rows_approx_equal};
use ysmart::rel::Row;

/// TPC-H scale of the generated tables (1.0 is about 6 000 lineitems).
const TPCH_SCALE: f64 = 0.5;
/// Click-stream size: users x clicks per user.
const CLICK_USERS: usize = 50;
const CLICKS_PER_USER: usize = 40;

/// SplitMix64: the benchmark's only source of randomness.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher-Yates shuffle driven by [`mix`].
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = mix(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// The paper's evaluation query shapes (§VII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    Q17,
    Q18,
    Q21,
    Q21Subtree,
    Q3,
    QAgg,
    QCsa,
}

pub const SHAPES: [Shape; 7] = [
    Shape::Q17,
    Shape::Q18,
    Shape::Q21,
    Shape::Q21Subtree,
    Shape::Q3,
    Shape::QAgg,
    Shape::QCsa,
];

/// Literal pools. Entry 0 is the literal the paper's workloads use.
/// Q18 cut-offs stay high, so its outputs stay small whatever the data.
const Q18_THRESHOLDS: [i64; 8] = [250, 260, 270, 280, 290, 300, 310, 320];
const NATIONS: [&str; 8] = [
    "SAUDI ARABIA",
    "CHINA",
    "FRANCE",
    "GERMANY",
    "JAPAN",
    "BRAZIL",
    "KENYA",
    "PERU",
];
const CSA_PAIRS: [(i64, i64); 8] = [
    (1, 2),
    (2, 1),
    (1, 3),
    (3, 1),
    (2, 3),
    (3, 2),
    (0, 1),
    (1, 0),
];

impl Shape {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Shape::Q17 => "q17",
            Shape::Q18 => "q18",
            Shape::Q21 => "q21",
            Shape::Q21Subtree => "q21-subtree",
            Shape::Q3 => "q3",
            Shape::QAgg => "q-agg",
            Shape::QCsa => "q-csa",
        }
    }

    /// Number of distinct literal variants the shape has (1 when its SQL
    /// carries no literal).
    #[must_use]
    pub fn variants(self) -> usize {
        match self {
            Shape::Q18 | Shape::Q21 | Shape::Q3 | Shape::QCsa => 8,
            Shape::Q17 | Shape::Q21Subtree | Shape::QAgg => 1,
        }
    }

    /// The SQL of literal variant `v` (taken modulo [`Shape::variants`]).
    #[must_use]
    pub fn sql(self, v: usize) -> String {
        let v = v % self.variants();
        match self {
            Shape::Q17 => q17_sql(),
            Shape::Q18 => q18_sql(Q18_THRESHOLDS[v]),
            Shape::Q21 => q21_sql(NATIONS[v]),
            Shape::Q21Subtree => q21_subtree_sql(),
            // Q3's paper literal is CHINA: rotate the pool by one.
            Shape::Q3 => q3_sql(NATIONS[(v + 1) % NATIONS.len()]),
            Shape::QAgg => q_agg_sql(),
            Shape::QCsa => {
                let (x, y) = CSA_PAIRS[v];
                q_csa_sql(x, y)
            }
        }
    }

    /// Whether the result is globally ordered (ORDER BY ... LIMIT).
    #[must_use]
    pub fn ordered(self) -> bool {
        matches!(self, Shape::Q18 | Shape::Q21 | Shape::Q3)
    }
}

/// The seeded base tables of every shape (TPC-H and clicks share one
/// catalog; their table names are disjoint).
pub struct Dataset {
    pub catalog: Catalog,
    pub tables: Vec<(&'static str, Vec<Row>)>,
    by_name: BTreeMap<String, Vec<Row>>,
}

impl Dataset {
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let mut catalog = Catalog::new();
        for (name, schema) in tpch_catalog().iter().chain(clicks_catalog().iter()) {
            catalog.add_table(name, schema.clone());
        }
        let tpch = TpchGen::generate(&TpchSpec {
            scale: TPCH_SCALE,
            seed: mix(seed),
        });
        let clicks = ClicksGen::generate(&ClicksSpec {
            users: CLICK_USERS,
            clicks_per_user: CLICKS_PER_USER,
            seed: mix(seed ^ 0xC11C),
            ..ClicksSpec::default()
        });
        let mut tables: Vec<(&'static str, Vec<Row>)> = tpch
            .tables()
            .into_iter()
            .map(|(n, r)| (n, r.to_vec()))
            .collect();
        tables.push(("clicks", clicks.clicks));
        let by_name = tables
            .iter()
            .map(|(n, r)| ((*n).to_string(), r.clone()))
            .collect();
        Dataset {
            catalog,
            tables,
            by_name,
        }
    }

    /// Engine construction plus table loading: the set-up every workload
    /// times. `target_gb` scales the simulated data volume.
    pub fn engine(&self, config: ClusterConfig, target_gb: Option<f64>) -> YSmart {
        let mut engine = YSmart::new(self.catalog.clone(), config);
        for (name, rows) in &self.tables {
            engine
                .load_table(name, rows)
                .expect("generated rows match the catalog");
        }
        if let Some(gb) = target_gb {
            let real = engine.cluster.hdfs.total_bytes().max(1);
            engine.cluster.config.size_multiplier = gb * 1e9 / real as f64;
        }
        engine
    }

    /// The oracle's answer to `sql`.
    pub fn expected(&self, sql: &str) -> Result<Vec<Row>, String> {
        let query = ysmart::sql::parse(sql).map_err(|e| e.to_string())?;
        let plan = build_plan(&self.catalog, &query).map_err(|e| e.to_string())?;
        let out = oracle_execute(&plan, &self.by_name).map_err(|e| e.to_string())?;
        Ok(out.rows)
    }
}

/// One distinct query of a stream: its SQL, oracle answer and the plan
/// counts the correlation analysis reports for it.
pub struct Expected {
    pub shape: Shape,
    pub sql: String,
    pub rows: Vec<Row>,
    pub plan: PlanCounts,
}

/// Plan size and correlation pairs of one query (deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCounts {
    pub nodes: usize,
    pub ic_pairs: usize,
    pub tc_pairs: usize,
    pub jfc_pairs: usize,
}

impl PlanCounts {
    #[must_use]
    pub fn of(plan: &Plan, report: &CorrelationReport) -> Self {
        PlanCounts {
            nodes: plan.len(),
            ic_pairs: report.input_correlated.len(),
            tc_pairs: report.transit_correlated.len(),
            jfc_pairs: report.job_flow.len(),
        }
    }
}

impl Expected {
    /// Computes the oracle answer and plan counts, outside any timed region.
    pub fn new(
        ds: &Dataset,
        engine: &YSmart,
        shape: Shape,
        variant: usize,
    ) -> Result<Self, String> {
        let sql = shape.sql(variant);
        let rows = ds.expected(&sql)?;
        let plan = engine.plan(&sql).map_err(|e| e.to_string())?;
        let report = analyze_with_stats(&plan, Some(engine.statistics()));
        Ok(Expected {
            shape,
            sql,
            rows,
            plan: PlanCounts::of(&plan, &report),
        })
    }

    /// Aborts the run when `rows` is not the oracle's answer: a wrong answer
    /// is never counted as an error, it invalidates the benchmark.
    pub fn check(&self, rows: &[Row], context: &str) {
        if !rows_approx_equal(rows, &self.rows, self.shape.ordered()) {
            eprintln!(
                "wrong answer: {} ({context}): {} rows, oracle has {}",
                self.shape.name(),
                rows.len(),
                self.rows.len()
            );
            std::process::exit(3);
        }
    }
}

/// Deletes every file the queries left in simulated HDFS (outputs,
/// intermediates, cached results), keeping the base tables, so a long
/// run's memory and HDFS size stay those of its first pass. Returns the
/// encoded bytes deleted.
pub fn clear_query_files(engine: &mut YSmart) -> u64 {
    let hdfs = &mut engine.cluster.hdfs;
    let stale: Vec<String> = hdfs
        .paths()
        .filter(|p| !p.starts_with("data/"))
        .map(str::to_string)
        .collect();
    let mut bytes = 0;
    for p in stale {
        bytes += hdfs.get(&p).map_or(0, |f| f.bytes());
        hdfs.delete(&p);
    }
    bytes
}
