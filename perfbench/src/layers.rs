//! Per-layer probes, timed from the benchmark around calls into each
//! layer's public functions, on the workload's own data.
//!
//! Every probe runs after the timed window. The probes that write work on
//! copies of the workload's main table (an in-memory copy for
//! `storage.insert_us`, a durable copy for checkpoints and commits), so the
//! workload's own state is left as the run ended.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

use backbone_core::Database;
use backbone_query::{
    execute_optimized, explain_analyze, optimize_plan, parse_statement, Catalog, ExecOptions,
    LogicalPlan, Metrics, Statement,
};
use backbone_server::{Client, Server, ServerOptions};
use backbone_storage::Value;

use crate::stats::Series;
use crate::{DataDir, Outcome};

const PING_SAMPLES: usize = 1000;
const HIT_SAMPLES: usize = 1000;
const PLAN_SAMPLES: usize = 100;
const PREPARE_SAMPLES: usize = 20;
const WRITE_SAMPLES: usize = 200;
const PIN_SAMPLES: usize = 2000;

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// A snapshot of the database's counters, for deltas over a window.
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// The registry's counters, plus the WAL's fsyncs as `wal.fsyncs`.
    pub fn take(db: &Database) -> Counters {
        let mut c = Counters(db.metrics().snapshot());
        c.0.insert("wal.fsyncs".into(), db.wal_fsyncs().unwrap_or(0));
        c
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// `later - self` for one counter.
    pub fn delta(&self, later: &Counters, name: &str) -> u64 {
        later.get(name).saturating_sub(self.get(name))
    }
}

/// `part / whole`, or 0 when `whole` is 0 (the count beside each ratio
/// says whether there was any traffic).
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Cache, commit, admission and snapshot counters over a window.
#[derive(Debug, Clone, Copy)]
pub struct WindowCounters {
    pub result_lookups: u64,
    pub result_hit_ratio: f64,
    pub invalidations_per_commit: f64,
    pub commits: u64,
    pub fsyncs_per_commit: f64,
    pub rejected: u64,
    pub reader_stalls: u64,
}

impl WindowCounters {
    pub fn between(before: &Counters, after: &Counters) -> WindowCounters {
        let d = |name: &str| before.delta(after, name);
        let commits = d("wal.commits");
        let hits = d("cache.result.hits");
        let lookups = hits + d("cache.result.misses");
        WindowCounters {
            result_lookups: lookups,
            result_hit_ratio: ratio(hits, lookups),
            invalidations_per_commit: ratio(d("cache.result.invalidations"), commits),
            commits,
            fsyncs_per_commit: ratio(d("wal.fsyncs"), commits),
            rejected: d("session.rejected"),
            reader_stalls: d("mvcc.reader_stalls"),
        }
    }
}

/// Parse and optimize one SELECT.
pub fn plan(db: &Database, sql: &str, opts: &ExecOptions) -> Result<LogicalPlan, String> {
    match parse_statement(sql, db.catalog()).map_err(|e| format!("parse {sql}: {e}"))? {
        Statement::Select(p) => {
            optimize_plan(p, db.catalog(), opts).map_err(|e| format!("optimize {sql}: {e}"))
        }
        _ => Err(format!("not a SELECT: {sql}")),
    }
}

/// What the workload tells the probes about itself.
pub struct ProbeSpec<'a> {
    pub db: &'a Database,
    pub dir: &'a DataDir,
    /// The workload's own server, if it has one.
    pub server: Option<SocketAddr>,
    /// The main table the probes copy and append to.
    pub table: &'a str,
    /// A fresh row for the `i`-th probe insert.
    pub new_row: &'a dyn Fn(u64) -> Vec<Value>,
    /// Statement templates of the workload (`$n` placeholders).
    pub templates: &'a [&'a str],
    /// The statement and parameters timed on a result-cache hit.
    pub hit: (usize, Vec<Value>),
    /// Operations replayed through `execute_optimized`: template index and
    /// parameters.
    pub replay: &'a [(usize, Vec<Value>)],
}

/// Layer timings measured by [`probe`].
#[derive(Debug, Default)]
pub struct Probe {
    pub ping_us: f64,
    pub stmt_hit_us: f64,
    pub plan_lookups: u64,
    pub plan_hit_ratio: f64,
    pub plan_us: f64,
    /// All replayed operations, and the same per template.
    pub exec_all: Series,
    pub exec_by_template: Vec<Series>,
    /// Rows leaving the scans and rows returned, per template.
    pub rows_by_template: Vec<(u64, u64)>,
    pub rows_in_per_row_out: f64,
    pub insert_us: f64,
    pub checkpoint_ms: f64,
    pub checkpoint_bytes_per_row: f64,
    pub commit_us: f64,
    pub pin_us: f64,
}

pub fn probe(spec: &ProbeSpec) -> Result<Probe, String> {
    let mut p = Probe {
        ping_us: ping_us(spec)?,
        pin_us: pin_us(spec.db),
        ..Probe::default()
    };

    // core: re-preparing the workload's statements goes through the plan
    // cache (executing a prepared statement does not consult it).
    let session = spec.db.session();
    let before = Counters::take(spec.db);
    for sql in spec.templates {
        for _ in 0..PREPARE_SAMPLES {
            let stmt = session.prepare(sql).map_err(|e| format!("prepare: {e}"))?;
            session.close_prepared(stmt.id);
        }
    }
    let after = Counters::take(spec.db);
    let hits = before.delta(&after, "cache.plan.hits");
    p.plan_lookups = hits + before.delta(&after, "cache.plan.misses");
    p.plan_hit_ratio = ratio(hits, p.plan_lookups);

    // core: a prepared statement served from the result cache.
    let (hit_template, hit_params) = &spec.hit;
    let stmt = session
        .prepare(spec.templates[*hit_template])
        .map_err(|e| format!("prepare: {e}"))?;
    session
        .execute_prepared(stmt.id, hit_params)
        .map_err(|e| format!("execute: {e}"))?;
    let mut hits = Series::with_capacity(HIT_SAMPLES);
    for _ in 0..HIT_SAMPLES {
        let t = Instant::now();
        let out = session.execute_prepared(stmt.id, hit_params);
        hits.push(ms(t));
        std::hint::black_box(out.map_err(|e| format!("execute: {e}"))?);
    }
    p.stmt_hit_us = hits.p50() * 1e3;

    // query: parse + optimize, then execution of the replayed operations.
    let opts = ExecOptions::default();
    let mut plans = Series::with_capacity(PLAN_SAMPLES * spec.templates.len());
    for sql in spec.templates {
        for _ in 0..PLAN_SAMPLES {
            let t = Instant::now();
            let planned = plan(spec.db, sql, &opts)?;
            plans.push(ms(t));
            std::hint::black_box(planned);
        }
    }
    p.plan_us = plans.p50() * 1e3;
    replay(spec, &mut p)?;

    // storage and txn: appends to copies of the main table.
    let table = spec
        .db
        .catalog()
        .table(spec.table)
        .ok_or_else(|| format!("table {} is missing", spec.table))?;
    let rows = table.num_rows();
    let mem = Database::new();
    mem.register_table(spec.table, (*table).clone())
        .map_err(|e| format!("register: {e}"))?;
    p.insert_us = time_inserts(&mem, spec)? * 1e3;

    let dir = spec.dir.fresh("probe")?;
    let durable = Database::open(&dir).map_err(|e| format!("open: {e}"))?;
    durable
        .register_table(spec.table, (*table).clone())
        .map_err(|e| format!("register: {e}"))?;
    let t = Instant::now();
    durable
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    p.checkpoint_ms = ms(t);
    let bytes = std::fs::metadata(dir.join(backbone_core::durability::CHECKPOINT_FILE))
        .map(|m| m.len())
        .map_err(|e| format!("checkpoint file: {e}"))?;
    p.checkpoint_bytes_per_row = bytes as f64 / rows.max(1) as f64;
    p.commit_us = time_inserts(&durable, spec)? * 1e3;
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(p)
}

/// p50 of `Client::ping` round trips, in microseconds.
fn ping_us(spec: &ProbeSpec) -> Result<f64, String> {
    let own = match spec.server {
        Some(_) => None,
        None => Some(
            Server::start(spec.db.clone(), "127.0.0.1:0", ServerOptions::default())
                .map_err(|e| format!("server: {e}"))?,
        ),
    };
    let addr = spec
        .server
        .or(own.as_ref().map(|s| s.addr()))
        .expect("an address");
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut pings = Series::with_capacity(PING_SAMPLES);
    for _ in 0..PING_SAMPLES {
        let t = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        pings.push(ms(t));
    }
    drop(client);
    if let Some(server) = own {
        server.shutdown();
    }
    Ok(pings.p50() * 1e3)
}

/// p50 of pinning a snapshot, in microseconds.
fn pin_us(db: &Database) -> f64 {
    let mut pins = Series::with_capacity(PIN_SAMPLES);
    for _ in 0..PIN_SAMPLES {
        let t = Instant::now();
        let guard = db.pin_snapshot();
        pins.push(ms(t));
        drop(std::hint::black_box(guard));
    }
    pins.p50() * 1e3
}

/// p50 of single-row inserts into `db`, in milliseconds.
fn time_inserts(db: &Database, spec: &ProbeSpec) -> Result<f64, String> {
    let mut times = Series::with_capacity(WRITE_SAMPLES);
    for i in 0..WRITE_SAMPLES as u64 {
        let row = (spec.new_row)(i);
        let t = Instant::now();
        db.insert(spec.table, vec![row])
            .map_err(|e| format!("insert: {e}"))?;
        times.push(ms(t));
    }
    Ok(times.p50())
}

/// Rows leaving the scans and rows returned when `plan` runs instrumented
/// (the operator row counters exist only in instrumented plans, so this
/// runs apart from any timing).
pub fn scan_rows(db: &Database, plan: &LogicalPlan) -> Result<(u64, u64), String> {
    let metrics = Metrics::new();
    let opts = ExecOptions::default().with_metrics(metrics.clone());
    let (_, out) =
        explain_analyze(plan, db.catalog(), &opts).map_err(|e| format!("analyze: {e}"))?;
    Ok((metrics.value("op.scan.rows_out"), out.num_rows() as u64))
}

/// Time `execute_optimized` over the replayed operations, per template,
/// and count rows scanned per row returned.
fn replay(spec: &ProbeSpec, p: &mut Probe) -> Result<(), String> {
    let opts = ExecOptions::default();
    let plans = spec
        .templates
        .iter()
        .map(|sql| plan(spec.db, sql, &opts))
        .collect::<Result<Vec<_>, _>>()?;
    p.exec_by_template = vec![Series::default(); plans.len()];
    p.rows_by_template = vec![(0, 0); plans.len()];
    for (template, params) in spec.replay {
        let bound = plans[*template]
            .bind_params(params)
            .map_err(|e| format!("bind: {e}"))?;
        let t = Instant::now();
        let out = execute_optimized(&bound, spec.db.catalog(), &opts)
            .map_err(|e| format!("execute: {e}"))?;
        let exec = ms(t);
        p.exec_all.push(exec);
        p.exec_by_template[*template].push(exec);
        std::hint::black_box(out);
        let (i, o) = scan_rows(spec.db, &bound)?;
        p.rows_by_template[*template].0 += i;
        p.rows_by_template[*template].1 += o;
    }
    let (rows_in, rows_out) = p
        .rows_by_template
        .iter()
        .fold((0, 0), |(a, b), (i, o)| (a + i, b + o));
    p.rows_in_per_row_out = ratio(rows_in, rows_out);
    Ok(())
}

/// The per-layer metrics shared by every workload.
pub fn push(
    out: &mut Outcome,
    p: &Probe,
    c: &WindowCounters,
    exec_ms: f64,
    unexplained_ms: f64,
    trace_overhead: f64,
) {
    out.metric("server.ping_us", p.ping_us);
    out.metric("server.rejected", c.rejected as f64);
    out.metric("core.stmt_hit_us", p.stmt_hit_us);
    out.metric("core.plan_cache.lookups", p.plan_lookups as f64);
    out.metric("core.plan_cache.hit_ratio", p.plan_hit_ratio);
    out.metric("core.result_cache.lookups", c.result_lookups as f64);
    out.metric("core.result_cache.hit_ratio", c.result_hit_ratio);
    out.metric(
        "core.result_cache.invalidations_per_commit",
        c.invalidations_per_commit,
    );
    out.metric("query.plan_us", p.plan_us);
    out.metric("query.exec_ms", exec_ms);
    out.metric("query.rows_in_per_row_out", p.rows_in_per_row_out);
    out.metric("storage.insert_us", p.insert_us);
    out.metric("storage.checkpoint_ms", p.checkpoint_ms);
    out.metric(
        "storage.checkpoint_bytes_per_row",
        p.checkpoint_bytes_per_row,
    );
    out.metric("txn.commit_us", p.commit_us);
    out.metric("txn.wal_us", p.commit_us - p.insert_us);
    out.metric("txn.commits", c.commits as f64);
    out.metric("txn.fsyncs_per_commit", c.fsyncs_per_commit);
    out.metric("txn.reader_stalls", c.reader_stalls as f64);
    out.metric("txn.pin_us", p.pin_us);
    out.metric("unexplained_ms", unexplained_ms);
    out.metric("trace_overhead", trace_overhead);
}
