//! `olap-scan`: one in-process session with default options (serial, caches
//! on) runs four prepared templates shaped like TPC-H Q1, Q6, Q3 and Q5 over
//! the SF 0.05 tables. Parameters never repeat, so every read hits the plan
//! cache and misses the result cache: operators, kernels and encodings in
//! `query` and `storage` are the cost, and the wire is absent.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use backbone_core::{Database, Session};
use backbone_query::ExecOptions;
use backbone_storage::{RecordBatch, Table, Value};
use backbone_workloads::tpch::{self, DATE_DAYS, REGIONS, SEGMENTS};

use crate::calib::Calibration;
use crate::layers::{self, ms, Counters, ProbeSpec, WindowCounters};
use crate::rng::Rng;
use crate::stats::{Series, Timed};
use crate::{end_to_end, obj, set_up, Config, DataDir, Json, Outcome};

pub const SCALE_FACTOR: f64 = 0.05;

/// Template names, SQL and share of operations. The shares put p50 inside
/// one template's latency band and p90 inside another's (see `NOTES.md`).
pub const TEMPLATES: [(&str, &str, f64); 4] = [
    (
        "q6",
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
         WHERE l_shipdate >= $1 AND l_shipdate < $2 AND l_discount BETWEEN $3 AND $4 \
         AND l_quantity < $5",
        0.45,
    ),
    (
        "q1",
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
         SUM(l_extendedprice) AS sum_base_price, \
         SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
         SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
         AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
         AVG(l_discount) AS avg_disc, COUNT(*) AS count_order FROM lineitem \
         WHERE l_shipdate <= $1 AND l_tax <= $2 GROUP BY l_returnflag, l_linestatus \
         ORDER BY l_returnflag, l_linestatus",
        0.15,
    ),
    (
        "q3",
        "SELECT o_orderkey, o_orderdate, o_shippriority, \
         SUM(l_extendedprice * (1 - l_discount)) AS revenue \
         FROM customer JOIN orders ON c_custkey = o_custkey \
         JOIN lineitem ON o_orderkey = l_orderkey \
         WHERE c_mktsegment = $1 AND o_orderdate < $2 AND l_shipdate > $3 \
         GROUP BY o_orderkey, o_orderdate, o_shippriority \
         ORDER BY revenue DESC, o_orderdate LIMIT 10",
        0.25,
    ),
    (
        "q5",
        "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
         FROM customer JOIN orders ON c_custkey = o_custkey \
         JOIN lineitem ON o_orderkey = l_orderkey \
         JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey \
         JOIN nation ON s_nationkey = n_nationkey \
         JOIN region ON n_regionkey = r_regionkey \
         WHERE r_name = $1 AND o_orderdate >= $2 AND o_orderdate < $3 \
         GROUP BY n_name ORDER BY revenue DESC",
        0.15,
    ),
];

/// One cycle of template indexes with exactly the shares above (9/5/3/3
/// of 20), interleaved, so every run executes the same mix.
const SCHEDULE: [usize; 20] = [0, 2, 1, 0, 3, 0, 2, 0, 1, 2, 0, 3, 0, 2, 1, 0, 3, 2, 0, 0];

/// Every `SAMPLE_EVERY`-th operation is re-executed without caches and
/// compared. Coprime with the schedule's length, so every slot of the
/// cycle, and so every template, is sampled.
const SAMPLE_EVERY: u64 = 7;

/// Seeded, never-repeating parameters for each template.
pub struct Params {
    rng: Rng,
    seen: HashSet<String>,
    op: usize,
}

impl Params {
    pub fn new(seed: u64, stream: u64) -> Params {
        Params {
            rng: Rng::stream(seed, 0x01a9 << 8 | stream),
            seen: HashSet::new(),
            op: 0,
        }
    }

    /// The next template in the fixed schedule, with fresh parameters.
    pub fn next_op(&mut self) -> (usize, Vec<Value>) {
        let t = SCHEDULE[self.op % SCHEDULE.len()];
        self.op += 1;
        loop {
            let p = self.draw(t);
            if self.seen.insert(format!("{t}{p:?}")) {
                return (t, p);
            }
        }
    }

    fn draw(&mut self, t: usize) -> Vec<Value> {
        let r = &mut self.rng;
        let day = |r: &mut Rng, lo: i64, hi: i64| lo + r.below((hi - lo) as u64) as i64;
        match TEMPLATES[t].0 {
            "q6" => {
                let lo = day(r, 0, DATE_DAYS - 365);
                let d = 0.02 + r.unit() * 0.04;
                vec![
                    Value::Int(lo),
                    Value::Int(lo + 365),
                    Value::Float(d),
                    Value::Float(d + 0.02),
                    Value::Float(20.0 + r.unit() * 10.0),
                ]
            }
            "q1" => vec![
                Value::Int(day(r, DATE_DAYS - 240, DATE_DAYS - 60)),
                Value::Float(0.08 + r.unit() * 0.02),
            ],
            "q3" => {
                // A narrow date band keeps the join sizes, and so the cost,
                // alike across operations.
                let d = day(r, DATE_DAYS / 2 - 100, DATE_DAYS / 2 + 100);
                vec![
                    Value::str(SEGMENTS[r.below(SEGMENTS.len() as u64) as usize]),
                    Value::Int(d),
                    Value::Int(d),
                ]
            }
            _ => {
                let lo = day(r, 0, DATE_DAYS - 365);
                vec![
                    Value::str(REGIONS[r.below(REGIONS.len() as u64) as usize]),
                    Value::Int(lo),
                    Value::Int(lo + 365),
                ]
            }
        }
    }
}

/// The generated tables, decoded, ready to load.
fn generate(seed: u64) -> Result<Vec<(String, RecordBatch)>, String> {
    let catalog = tpch::generate(SCALE_FACTOR, seed);
    let mut names = catalog.table_names();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let t = backbone_query::Catalog::table(&catalog, &name)
                .ok_or_else(|| format!("table {name} missing"))?;
            let batch = t.to_batch().map_err(|e| format!("{name}: {e}"))?;
            Ok((name, batch.decoded()))
        })
        .collect()
}

struct Instance {
    session: Session,
    stmts: Vec<u64>,
    db: Database,
}

/// Load every table through the storage append and seal path, then
/// prepare the templates.
fn setup(tables: &[(String, RecordBatch)]) -> Result<Instance, String> {
    let db = Database::new();
    for (name, batch) in tables {
        let mut t = Table::new(batch.schema().clone());
        t.append_batch(batch).map_err(|e| format!("{name}: {e}"))?;
        db.register_table(name.as_str(), t)
            .map_err(|e| format!("{name}: {e}"))?;
    }
    let session = db.session();
    let stmts = TEMPLATES
        .iter()
        .map(|(_, sql, _)| session.prepare(sql).map(|p| p.id))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("prepare: {e}"))?;
    Ok(Instance { session, stmts, db })
}

#[derive(Default)]
struct Window {
    reads: Timed,
    per_template: Vec<Series>,
    /// Sampled operations and their answers, for the uncached comparison.
    samples: Vec<(usize, Vec<Value>, RecordBatch)>,
    attempted: u64,
    failed: u64,
    cal: Calibration,
}

fn load(inst: &Instance, params: &mut Params, warmup: Duration, window: Duration) -> Window {
    let mut out = Window {
        per_template: vec![Series::default(); TEMPLATES.len()],
        ..Window::default()
    };
    let begin = Instant::now();
    let (timed_from, end) = (begin + warmup, begin + warmup + window);
    out.cal = Calibration::new(timed_from);
    let mut i = 0u64;
    while Instant::now() < end {
        let (t, p) = params.next_op();
        let start = Instant::now();
        let res = inst.session.execute_prepared(inst.stmts[t], &p);
        let lat = ms(start);
        out.attempted += 1;
        match res {
            Ok(batch) => {
                if i.is_multiple_of(SAMPLE_EVERY) {
                    out.samples.push((t, p, batch));
                }
            }
            Err(_) => out.failed += 1,
        }
        if start >= timed_from {
            out.reads.push((start - timed_from).as_secs_f64(), lat);
            out.per_template[t].push(lat);
        }
        out.cal.tick();
        i += 1;
    }
    out
}

/// Re-execute each sampled operation without caches; count mismatches.
fn check_samples(
    inst: &Instance,
    samples: &[(usize, Vec<Value>, RecordBatch)],
) -> Result<u64, String> {
    let uncached = inst
        .db
        .session()
        .with_options(ExecOptions::default().without_caches());
    let stmts = TEMPLATES
        .iter()
        .map(|(_, sql, _)| uncached.prepare(sql).map(|p| p.id))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("prepare: {e}"))?;
    let mut mismatches = 0;
    for (t, p, got) in samples {
        let want = uncached
            .execute_prepared(stmts[*t], p)
            .map_err(|e| format!("execute: {e}"))?;
        let same = got.num_rows() == want.num_rows()
            && (0..got.num_rows()).all(|i| got.row(i) == want.row(i));
        mismatches += u64::from(!same);
    }
    Ok(mismatches)
}

pub fn run(cfg: &Config, dir: &DataDir) -> Result<Outcome, String> {
    let tables = generate(cfg.seed)?;
    let (inst, setups) = set_up(cfg, || setup(&tables))?;
    let mut params = Params::new(cfg.seed, 1);
    let warmup = cfg.warmup();
    let before = Counters::take(&inst.db);
    let (plain, traced) = if cfg.trace {
        let half = cfg.window() / 2;
        let plain = load(&inst, &mut params, warmup, half);
        let traced = load(&inst, &mut params, Duration::ZERO, half);
        (plain, Some(traced))
    } else {
        (load(&inst, &mut params, warmup, cfg.window()), None)
    };
    let after = Counters::take(&inst.db);
    let counters = WindowCounters::between(&before, &after);

    let mut samples = plain.samples;
    if let Some(t) = &traced {
        samples.extend(t.samples.iter().cloned());
    }
    let mismatches = check_samples(&inst, &samples)?;

    let mut out = Outcome::default();
    out.attempted = plain.attempted + traced.as_ref().map_or(0, |t| t.attempted);
    out.failed = plain.failed + traced.as_ref().map_or(0, |t| t.failed) + mismatches;
    out.correct = out.failed == 0;
    let lineitem = tables
        .iter()
        .find(|(n, _)| n == "lineitem")
        .map_or(0, |(_, b)| b.num_rows());
    out.note(
        "sizes",
        obj([
            ("scale_factor", Json::Float(SCALE_FACTOR)),
            ("lineitem_rows", Json::Int(lineitem as i64)),
            ("parallelism", Json::Str("Serial".into())),
        ]),
    );
    let bands = TEMPLATES
        .iter()
        .zip(plain.per_template)
        .map(|((name, _, share), mut s)| {
            let band = if s.is_empty() {
                Json::Null
            } else {
                obj([
                    ("share", Json::Float(*share)),
                    ("n", Json::Int(s.len() as i64)),
                    ("min", Json::Float(s.quantile(0.0))),
                    ("p50", Json::Float(s.p50())),
                    ("max", Json::Float(s.quantile(1.0))),
                ])
            };
            (*name, band)
        });
    out.note("template_latency_ms", obj(bands));
    out.note("uncached_samples_checked", Json::Int(samples.len() as i64));

    let Some(traced) = traced else {
        end_to_end(
            &setups,
            &plain.reads,
            &plain.reads,
            &plain.cal,
            cfg.seconds,
            &mut out,
        )?;
        return Ok(out);
    };
    // The query layer alone: the sampled operations' optimized plans,
    // bound and executed, and their rows scanned per row returned.
    let lineitem_row = tables
        .iter()
        .find(|(n, _)| n == "lineitem")
        .map(|(_, b)| b.row(0))
        .unwrap_or_default();
    let new_row = move |i: u64| {
        let mut r = lineitem_row.clone();
        r[0] = Value::Int(1 << 40 | i as i64);
        r
    };
    let sqls: Vec<&str> = TEMPLATES.iter().map(|(_, sql, _)| *sql).collect();
    let replay: Vec<(usize, Vec<Value>)> =
        samples.iter().map(|(t, p, _)| (*t, p.clone())).collect();
    let spec = ProbeSpec {
        db: &inst.db,
        dir,
        server: None,
        table: "lineitem",
        new_row: &new_row,
        templates: &sqls,
        hit: replay[0].clone(),
        replay: &replay,
    };
    let mut p = layers::probe(&spec)?;
    for (k, (name, _, _)) in TEMPLATES.iter().enumerate() {
        let s = &mut p.exec_by_template[k];
        if !s.is_empty() {
            out.note_num(format!("query.exec_ms.{name}"), s.p50());
        }
        let (rows_in, rows_out) = p.rows_by_template[k];
        out.note_num(
            format!("query.rows_in_per_row_out.{name}"),
            rows_in as f64 / rows_out.max(1) as f64,
        );
    }
    let exec = p.exec_all.p50();
    let read_p50 = plain.reads.series(None).p50();
    let unexplained = read_p50 - exec;
    out.note_num("olap-scan.unexplained_ms", unexplained);
    let overhead = traced.reads.series(None).p50() / read_p50;
    layers::push(&mut out, &p, &counters, exec, unexplained, overhead);
    Ok(out)
}
