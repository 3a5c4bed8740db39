//! Sessions and the hybrid-search request builder.
//!
//! A [`Session`] is the engine's one query surface: every read — SQL,
//! prepared statements, builder plans, `EXPLAIN [ANALYZE]`, hybrid search —
//! is issued through one, while [`Database`] keeps construction, writes and
//! lifecycle. SQL and prepared statements resolve through one statement
//! pipeline (fingerprint, plan-cache probe, parse, optimize), and every
//! SELECT then runs through one executor (snapshot pin, result-cache probe,
//! bind, execute).
//!
//! A session is a lightweight per-caller handle over a shared database: it
//! carries its own [`ExecOptions`] (parallelism, optimizer rules, caches)
//! so two sessions can run the same database with different execution
//! settings, while all data, indexes, durability, and metrics stay shared.
//! Sessions *own* a database handle (an `Arc` clone under the hood) —
//! [`Database::session`] mints them for the cost of one refcount, and they
//! move freely across threads, which is how the network server gives every
//! connection its own session without borrowing from anything.
//!
//! [`SearchRequest`] consolidates the hybrid-search plumbing behind one
//! typed builder (the same consuming-builder style as
//! [`crate::VectorIndexSpec`]): filter, keywords, vector, `k`, and fusion
//! weights compose fluently, and [`SearchRequest::run`] executes either the
//! unified engine or the bolt-on baseline over the identical spec.

use crate::cache::CachedPlan;
use crate::database::{Database, Resolved};
use crate::error::{Error, Result};
use crate::hybrid::{
    bolton_search, unified_search, FusionWeights, HybridHit, HybridSpec, SearchCost,
};
use backbone_query::{ExecOptions, Expr, LogicalPlan, Parallelism};
use backbone_storage::{DataType, Field, RecordBatch, Schema, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A per-caller handle over a shared [`Database`]. Owned (no lifetime):
/// hand it to a thread, stash it in a connection struct, drop it whenever.
pub struct Session {
    db: Database,
    opts: ExecOptions,
    /// Statements prepared on this session, keyed by handle. Handles are
    /// per-session — the server maps each connection to one session, which
    /// is what scopes wire-protocol `PREPARE`/`EXECUTE` correctly.
    prepared: Mutex<PreparedStatements>,
}

#[derive(Default)]
struct PreparedStatements {
    next_id: u64,
    by_id: HashMap<u64, Arc<CachedPlan>>,
}

/// Handle and parameter arity of a statement prepared on a [`Session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedInfo {
    /// Pass this to [`Session::execute_prepared`].
    pub id: u64,
    /// How many `$n` parameter slots the statement expects.
    pub params: usize,
}

impl Session {
    /// A session starting from the database's baseline execution options.
    pub(crate) fn new(db: Database) -> Session {
        Session {
            opts: db.exec_options().clone(),
            db,
            prepared: Mutex::new(PreparedStatements::default()),
        }
    }

    /// Set this session's execution parallelism (consuming builder): every
    /// statement on the session runs with it.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Session {
        self.opts.parallelism = parallelism;
        self
    }

    /// Replace this session's execution options wholesale.
    ///
    /// Metrics-unification rule: if `opts` carries no metrics registry, the
    /// session keeps the database's registry, so operator counters from
    /// every session land in one place ([`Database::metrics`]). If `opts`
    /// *does* carry a registry, the caller's choice wins — that is how a
    /// test or bench isolates one session's counters from the shared pool.
    pub fn with_options(mut self, mut opts: ExecOptions) -> Session {
        if opts.metrics.is_none() {
            opts.metrics = self.opts.metrics.take();
        }
        self.opts = opts;
        self
    }

    /// The session's current execution options.
    pub fn options(&self) -> &ExecOptions {
        &self.opts
    }

    /// The database this session runs against.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Parse and execute SQL under this session's options: a `SELECT`, or
    /// `EXPLAIN [ANALYZE] SELECT ...` — the latter returns the rendered plan
    /// report as a single-column (`plan`, one row per line) batch, like
    /// mainstream engines do.
    ///
    /// SQL and the builder API lower into the same logical algebra, so they
    /// optimize and execute identically. Repeated statements are served from
    /// the plan and result caches when the session's options allow it;
    /// EXPLAIN reports say so with `plan: cached` / `result: cached@epoch N`
    /// lines.
    pub fn sql(&self, query: &str) -> Result<RecordBatch> {
        match self.db.resolve(query, &self.opts)? {
            Resolved::Select(plan) => self.db.execute_select(&plan, &[], &self.opts),
            Resolved::Explain { plan, analyze, fp } => {
                let (report, _) = self.db.explain_statement(&plan, analyze, fp, &self.opts)?;
                report_batch(&report)
            }
        }
    }

    /// Prepare a `SELECT` (with optional `$1`-style placeholders) for
    /// repeated execution: parse and optimize once, then
    /// [`Session::execute_prepared`] binds parameters and goes straight to
    /// physical planning. The optimized plan is shared with the plan cache,
    /// so re-preparing a hot statement costs one lookup.
    pub fn prepare(&self, query: &str) -> Result<PreparedInfo> {
        let Resolved::Select(plan) = self.db.resolve(query, &self.opts)? else {
            return Err(Error::InvalidInput(
                "only SELECT statements can be prepared".into(),
            ));
        };
        let params = plan.params;
        let mut st = self.prepared.lock();
        st.next_id += 1;
        let id = st.next_id;
        st.by_id.insert(id, plan);
        Ok(PreparedInfo { id, params })
    }

    /// Execute a prepared statement with `params` bound positionally
    /// (`params[0]` fills `$1`). Serves from the result cache when the
    /// session's options allow it.
    pub fn execute_prepared(&self, id: u64, params: &[Value]) -> Result<RecordBatch> {
        let plan = self
            .prepared
            .lock()
            .by_id
            .get(&id)
            .cloned()
            .ok_or_else(|| {
                Error::InvalidInput(format!("unknown prepared statement handle {id}"))
            })?;
        self.db.execute_select(&plan, params, &self.opts)
    }

    /// Drop a prepared statement, returning whether the handle existed.
    pub fn close_prepared(&self, id: u64) -> bool {
        self.prepared.lock().by_id.remove(&id).is_some()
    }

    /// Start a declarative query against a table.
    pub fn query(&self, table: &str) -> Result<LogicalPlan> {
        Ok(LogicalPlan::scan(table, self.db.catalog())?)
    }

    /// Execute a builder plan under this session's options. Builder plans
    /// run through the same executor as SQL but never touch the caches.
    ///
    /// Unless the options already carry a `snapshot_epoch`, a snapshot is
    /// pinned for the duration of the query: scans read each table's
    /// committed prefix as of this instant, untouched by concurrent
    /// inserts — readers never block writers and never see a torn batch.
    pub fn execute(&self, plan: LogicalPlan) -> Result<RecordBatch> {
        let plan = self.db.optimize(plan, None, &self.opts)?;
        self.db.execute_select(&plan, &[], &self.opts)
    }

    /// EXPLAIN a plan under this session's options: logical and optimized
    /// forms with estimates.
    pub fn explain(&self, plan: &LogicalPlan) -> Result<String> {
        let (report, _) = self.db.explain_statement(plan, false, None, &self.opts)?;
        Ok(report)
    }

    /// EXPLAIN ANALYZE a plan under this session's options: run it
    /// instrumented and return the physical plan annotated with measured
    /// per-operator rows-in/rows-out, batch counts, and elapsed time,
    /// alongside the query result. Takes `&LogicalPlan`, same as
    /// [`Session::explain`], so callers can explain and then analyze the
    /// same plan without cloning.
    pub fn explain_analyze(&self, plan: &LogicalPlan) -> Result<(String, RecordBatch)> {
        let (report, rows) = self.db.explain_statement(plan, true, None, &self.opts)?;
        Ok((
            report,
            rows.expect("EXPLAIN ANALYZE returns the rows it ran"),
        ))
    }

    /// Start building a hybrid search against `table`.
    pub fn search(&self, table: impl Into<String>) -> SearchRequest<'_> {
        SearchRequest::new(&self.db, table.into())
    }
}

/// Render a plan report as a single-column batch, one row per line.
fn report_batch(report: &str) -> Result<RecordBatch> {
    let schema = Schema::new(vec![Field::new("plan", DataType::Utf8)]);
    let rows: Vec<Vec<Value>> = report.lines().map(|l| vec![Value::str(l)]).collect();
    Ok(RecordBatch::from_rows(schema, &rows)?)
}

/// Which architecture executes a [`SearchRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// The unified engine: one pass, filter pushed into both indexes.
    Unified,
    /// The bolt-on baseline: three independent services glued at the
    /// client (the architecture E3 measures against).
    BoltOn,
}

/// A hybrid search in flight: relational filter + keyword query + vector
/// query over one table, fused into a single ranked result.
///
/// ```
/// # use backbone_core::Database;
/// # use backbone_query::{col, lit};
/// # let db = Database::new();
/// # db.create_table("docs", backbone_storage::Schema::new(vec![
/// #     backbone_storage::Field::new("year", backbone_storage::DataType::Int64),
/// #     backbone_storage::Field::new("body", backbone_storage::DataType::Utf8),
/// # ])).unwrap();
/// # db.insert("docs", vec![vec![backbone_storage::Value::Int(2024),
/// #     backbone_storage::Value::str("column stores")]]).unwrap();
/// # db.create_text_index("docs", "body").unwrap();
/// let response = db
///     .session()
///     .search("docs")
///     .filter(col("year").gt(lit(2020i64)))
///     .keyword("column stores")
///     .k(5)
///     .run()
///     .unwrap();
/// assert!(response.hits.len() <= 5);
/// ```
pub struct SearchRequest<'db> {
    db: &'db Database,
    spec: HybridSpec,
    strategy: SearchStrategy,
}

/// The outcome of a [`SearchRequest`]: ranked hits plus the architectural
/// cost accounting ([`SearchCost`]) the E3 experiment compares.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// Fused results, best first.
    pub hits: Vec<HybridHit>,
    /// What the search cost (candidates shipped, round trips).
    pub cost: SearchCost,
}

impl<'db> SearchRequest<'db> {
    pub(crate) fn new(db: &'db Database, table: String) -> SearchRequest<'db> {
        SearchRequest {
            db,
            spec: HybridSpec {
                table,
                filter: None,
                keyword: None,
                vector: None,
                k: 10,
                weights: FusionWeights::default(),
            },
            strategy: SearchStrategy::Unified,
        }
    }

    /// Restrict results to rows matching a relational predicate.
    pub fn filter(mut self, predicate: Expr) -> SearchRequest<'db> {
        self.spec.filter = Some(predicate);
        self
    }

    /// Rank by BM25 relevance to a keyword query (requires a text index).
    pub fn keyword(mut self, query: impl Into<String>) -> SearchRequest<'db> {
        self.spec.keyword = Some(query.into());
        self
    }

    /// Rank by similarity to a query embedding (requires a vector index).
    pub fn vector(mut self, embedding: Vec<f32>) -> SearchRequest<'db> {
        self.spec.vector = Some(embedding);
        self
    }

    /// Result size (default 10).
    pub fn k(mut self, k: usize) -> SearchRequest<'db> {
        self.spec.k = k;
        self
    }

    /// Set both fusion weights at once.
    pub fn weights(mut self, weights: FusionWeights) -> SearchRequest<'db> {
        self.spec.weights = weights;
        self
    }

    /// Weight of the vector-similarity component.
    pub fn vector_weight(mut self, weight: f64) -> SearchRequest<'db> {
        self.spec.weights.vector = weight;
        self
    }

    /// Weight of the BM25 text component.
    pub fn text_weight(mut self, weight: f64) -> SearchRequest<'db> {
        self.spec.weights.text = weight;
        self
    }

    /// Execute through the bolt-on (three separate services) baseline
    /// instead of the unified engine.
    pub fn via_bolton(mut self) -> SearchRequest<'db> {
        self.strategy = SearchStrategy::BoltOn;
        self
    }

    /// The spec this builder has accumulated (for logging / tests).
    pub fn spec(&self) -> &HybridSpec {
        &self.spec
    }

    /// Run the search.
    pub fn run(self) -> Result<SearchResponse> {
        let (hits, cost) = match self.strategy {
            SearchStrategy::Unified => unified_search(self.db, &self.spec)?,
            SearchStrategy::BoltOn => bolton_search(self.db, &self.spec)?,
        };
        Ok(SearchResponse { hits, cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backbone_query::{col, lit};
    use backbone_storage::{DataType, Field};

    fn seeded_db() -> Database {
        let db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("txt", DataType::Utf8),
            ]),
        )
        .unwrap();
        db.insert(
            "t",
            vec![
                vec![Value::Int(1), Value::str("red fox jumps")],
                vec![Value::Int(2), Value::str("blue whale sings")],
                vec![Value::Int(3), Value::str("red panda sleeps")],
            ],
        )
        .unwrap();
        db.create_text_index("t", "txt").unwrap();
        db
    }

    #[test]
    fn session_routes_sql_and_plans() {
        let db = seeded_db();
        let session = db.session();
        let out = session.sql("SELECT id FROM t WHERE id > 1").unwrap();
        assert_eq!(out.num_rows(), 2);
        let plan = session.query("t").unwrap().filter(col("id").eq(lit(3i64)));
        assert_eq!(session.execute(plan).unwrap().num_rows(), 1);
    }

    #[test]
    fn sessions_carry_independent_options() {
        let db = seeded_db();
        let serial = db.session();
        let fixed = db.session().with_parallelism(Parallelism::Fixed(4));
        let auto = db.session().with_parallelism(Parallelism::Auto);
        assert_eq!(serial.options().parallelism, Parallelism::Serial);
        assert_eq!(fixed.options().parallelism, Parallelism::Fixed(4));
        assert_eq!(auto.options().parallelism, Parallelism::Auto);
        // All still see the same data.
        assert_eq!(
            serial.sql("SELECT id FROM t").unwrap().num_rows(),
            fixed.sql("SELECT id FROM t").unwrap().num_rows(),
        );
        assert_eq!(
            serial.sql("SELECT id FROM t").unwrap().num_rows(),
            auto.sql("SELECT id FROM t").unwrap().num_rows(),
        );
    }

    #[test]
    fn session_writes_hit_the_shared_database() {
        let db = seeded_db();
        let session = db.session();
        session
            .database()
            .insert("t", vec![vec![Value::Int(4), Value::str("green newt")]])
            .unwrap();
        assert_eq!(db.row_count("t"), Some(4));
        assert_eq!(session.sql("SELECT id FROM t").unwrap().num_rows(), 4);
    }

    #[test]
    fn search_builder_matches_direct_spec() {
        let db = seeded_db();
        let response = db
            .session()
            .search("t")
            .filter(col("id").gt(lit(1i64)))
            .keyword("red")
            .k(2)
            .run()
            .unwrap();
        let spec = HybridSpec {
            table: "t".into(),
            filter: Some(col("id").gt(lit(1i64))),
            keyword: Some("red".into()),
            vector: None,
            k: 2,
            weights: FusionWeights::default(),
        };
        let (direct, _) = unified_search(&db, &spec).unwrap();
        assert_eq!(response.hits, direct);
        // Only row 3 ("red panda") passes both filter and keyword.
        assert_eq!(response.hits[0].row, 2);
    }

    #[test]
    fn bolton_strategy_runs_the_baseline() {
        let db = seeded_db();
        let session = db.session();
        let unified = session.search("t").keyword("red").k(3).run().unwrap();
        let bolton = session
            .search("t")
            .keyword("red")
            .k(3)
            .via_bolton()
            .run()
            .unwrap();
        // Same fused ranking, different architecture: the bolt-on pays in
        // round trips.
        assert_eq!(
            unified.hits.iter().map(|h| h.row).collect::<Vec<_>>(),
            bolton.hits.iter().map(|h| h.row).collect::<Vec<_>>(),
        );
        assert!(bolton.cost.round_trips >= unified.cost.round_trips);
    }
}
