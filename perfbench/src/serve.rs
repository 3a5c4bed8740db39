//! `serve-hot`: two reader connections, driven in turn by one thread,
//! replay prepared statements over a small fixed set of (statement,
//! parameters) pairs against a read-only table. After the cache fill in set-up, reads are result-cache hits, so
//! wire decode/encode and the statement pipeline's hit path are the cost.

use std::time::{Duration, Instant};

use backbone_core::Database;
use backbone_query::ExecOptions;
use backbone_server::proto::Response;
use backbone_server::{Client, RowSet, Server, ServerOptions};
use backbone_storage::{DataType, Field, Schema, Value};

use crate::calib::Calibration;
use crate::layers::{self, ms, Counters, ProbeSpec, WindowCounters};
use crate::rng::{mix, Rng};
use crate::stats::Timed;
use crate::{end_to_end, obj, set_up, Config, DataDir, Json, Outcome};

pub const TABLE: &str = "items";
pub const ROWS: u64 = 200_000;
const GROUPS: [&str; 8] = [
    "red", "orange", "yellow", "green", "blue", "indigo", "violet", "grey",
];
pub const TEMPLATES: [&str; 2] = [
    "SELECT id, grp, val, score FROM items WHERE id >= $1 AND id < $2",
    "SELECT id, val, score FROM items WHERE grp = $1 AND id >= $2 AND id < $3",
];
/// Distinct (statement, parameters) pairs the readers replay.
pub const HOT_PAIRS: usize = 8;
const CONNECTIONS: usize = 2;

pub fn row(seed: u64, id: u64) -> Vec<Value> {
    let h = mix(seed, id);
    vec![
        Value::Int(id as i64),
        Value::str(GROUPS[(h % 8) as usize]),
        Value::Int(((h >> 8) % 10_000) as i64),
        Value::Float(((h >> 24) % 1_000_000) as f64 / 1000.0),
    ]
}

/// Rows every hot pair returns.
const HOT_ROWS: u64 = 50;

/// The hot set: half id ranges, half group-filtered ranges, at seeded
/// positions, each returning exactly [`HOT_ROWS`] rows, so the cost of a
/// response does not depend on the seed.
pub fn hot_pairs(seed: u64) -> Vec<(usize, Vec<Value>)> {
    let mut rng = Rng::stream(seed, 0x5e7e);
    (0..HOT_PAIRS)
        .map(|i| {
            let start = rng.below(ROWS - 1000);
            if i % 2 == 0 {
                let end = start + HOT_ROWS;
                (0, vec![Value::Int(start as i64), Value::Int(end as i64)])
            } else {
                let g = GROUPS[rng.below(8) as usize];
                // The id after the group's HOT_ROWS-th row from `start`.
                let in_group = |id: &u64| row(seed, *id)[1] == Value::str(g);
                let last = (start..ROWS)
                    .filter(in_group)
                    .nth(HOT_ROWS as usize - 1)
                    .expect("the group has rows enough after start");
                (
                    1,
                    vec![
                        Value::str(g),
                        Value::Int(start as i64),
                        Value::Int(last as i64 + 1),
                    ],
                )
            }
        })
        .collect()
}

/// A connection with both statements prepared.
fn connect(server: &Server) -> Result<(Client, [u64; 2]), String> {
    let mut c = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let ids = [
        c.prepare(TEMPLATES[0])
            .map_err(|e| format!("prepare: {e}"))?,
        c.prepare(TEMPLATES[1])
            .map_err(|e| format!("prepare: {e}"))?,
    ];
    Ok((c, ids))
}

struct Instance {
    clients: Vec<(Client, [u64; 2])>,
    server: Server,
    db: Database,
}

fn setup(seed: u64, pairs: &[(usize, Vec<Value>)]) -> Result<Instance, String> {
    let db = Database::new();
    db.create_table(
        TABLE,
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("grp", DataType::Utf8),
            Field::new("val", DataType::Int64),
            Field::new("score", DataType::Float64),
        ]),
    )
    .map_err(|e| format!("create: {e}"))?;
    db.insert(TABLE, (0..ROWS).map(|id| row(seed, id)).collect())
        .map_err(|e| format!("load: {e}"))?;
    let server = Server::start(db.clone(), "127.0.0.1:0", ServerOptions::default())
        .map_err(|e| format!("server: {e}"))?;
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let (mut c, ids) = connect(&server)?;
        // Fill the caches: the window measures the warm serving path.
        for (t, params) in pairs {
            c.execute(ids[*t], params.clone())
                .map_err(|e| format!("execute: {e}"))?;
        }
        clients.push((c, ids));
    }
    Ok(Instance {
        clients,
        server,
        db,
    })
}

/// The answers an uncached in-process execution gives for each pair.
fn expected(db: &Database, pairs: &[(usize, Vec<Value>)]) -> Result<Vec<RowSet>, String> {
    let session = db
        .session()
        .with_options(ExecOptions::default().without_caches());
    let ids = TEMPLATES
        .iter()
        .map(|sql| session.prepare(sql).map(|p| p.id))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("prepare: {e}"))?;
    pairs
        .iter()
        .map(|(t, params)| {
            let batch = session
                .execute_prepared(ids[*t], params)
                .map_err(|e| format!("execute: {e}"))?;
            Ok(RowSet {
                columns: batch
                    .schema()
                    .fields()
                    .iter()
                    .map(|f| f.name.clone())
                    .collect(),
                rows: (0..batch.num_rows()).map(|i| batch.row(i)).collect(),
            })
        })
        .collect()
}

fn encode(set: &RowSet) -> String {
    Response::Rows {
        columns: set.columns.clone(),
        rows: set.rows.clone(),
    }
    .encode()
}

#[derive(Default)]
struct Window {
    reads: Timed,
    attempted: u64,
    failed: u64,
    cal: Calibration,
}

/// Run the readers for `warmup + window`; only reads that start after the
/// warm-up are timed. One thread sends each read on the connections in
/// turn, so every run makes the same reads in the same order.
fn load(
    inst: &mut Instance,
    seed: u64,
    pairs: &[(usize, Vec<Value>)],
    want: &[RowSet],
    warmup: Duration,
    window: Duration,
    stream: u64,
) -> Window {
    let mut rng = Rng::stream(seed, stream << 8);
    let mut out = Window::default();
    let begin = Instant::now();
    let (timed_from, end) = (begin + warmup, begin + warmup + window);
    out.cal = Calibration::new(timed_from);
    let mut k = 0;
    while Instant::now() < end {
        let (client, ids) = &mut inst.clients[k % CONNECTIONS];
        k += 1;
        let p = rng.below(pairs.len() as u64) as usize;
        let (t, params) = &pairs[p];
        let start = Instant::now();
        let res = client.execute(ids[*t], params.clone());
        let lat = ms(start);
        out.attempted += 1;
        if !matches!(&res, Ok(set) if *set == want[p]) {
            out.failed += 1;
        }
        if start >= timed_from {
            out.reads.push((start - timed_from).as_secs_f64(), lat);
        }
        out.cal.tick();
    }
    out
}

pub fn run(cfg: &Config, dir: &DataDir) -> Result<Outcome, String> {
    let pairs = hot_pairs(cfg.seed);
    let (mut inst, setups) = set_up(cfg, || setup(cfg.seed, &pairs))?;
    let want = expected(&inst.db, &pairs)?;
    let warmup = cfg.warmup();
    let before = Counters::take(&inst.db);
    let (plain, traced) = if cfg.trace {
        let half = cfg.window() / 2;
        let plain = load(&mut inst, cfg.seed, &pairs, &want, warmup, half, 1);
        let traced = load(&mut inst, cfg.seed, &pairs, &want, Duration::ZERO, half, 2);
        (plain, Some(traced))
    } else {
        let plain = load(&mut inst, cfg.seed, &pairs, &want, warmup, cfg.window(), 1);
        (plain, None)
    };
    let after = Counters::take(&inst.db);
    let counters = WindowCounters::between(&before, &after);

    // Byte identity: each pair's cached wire response encodes exactly as
    // the uncached execution does.
    let mut identical = 0;
    let (client, ids) = &mut inst.clients[0];
    for ((t, params), w) in pairs.iter().zip(&want) {
        if let Ok(set) = client.execute(ids[*t], params.clone()) {
            identical += usize::from(encode(&set) == encode(w));
        }
    }
    let bytes_ok = identical == pairs.len();

    let mut out = Outcome::default();
    out.attempted = plain.attempted + traced.as_ref().map_or(0, |t| t.attempted) + 1;
    out.failed = plain.failed + traced.as_ref().map_or(0, |t| t.failed) + u64::from(!bytes_ok);
    out.correct = out.failed == 0;
    let rows_per_response = want.iter().map(|w| Json::Int(w.rows.len() as i64));
    out.note(
        "sizes",
        obj([
            ("rows", Json::Int(ROWS as i64)),
            ("hot_pairs", Json::Int(HOT_PAIRS as i64)),
            ("rows_per_response", Json::Arr(rows_per_response.collect())),
            ("connections", Json::Int(CONNECTIONS as i64)),
        ]),
    );
    out.note_num("result_cache_hit_ratio", counters.result_hit_ratio);
    out.note("cached_bytes_identical_to_uncached", Json::Bool(bytes_ok));

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
    let replay: Vec<(usize, Vec<Value>)> = (0..20).flat_map(|_| pairs.iter().cloned()).collect();
    let seed = cfg.seed;
    let new_row = move |i: u64| row(seed, ROWS + i);
    let spec = ProbeSpec {
        db: &inst.db,
        dir,
        server: Some(inst.server.addr()),
        table: TABLE,
        new_row: &new_row,
        templates: &TEMPLATES,
        hit: pairs[0].clone(),
        replay: &replay,
    };
    let p = layers::probe(&spec)?;
    let exec_ms = p.exec_all.clone().p50();
    let read_p50 = plain.reads.series(None).p50();
    let unexplained = read_p50 - (p.ping_us + p.stmt_hit_us) / 1e3;
    out.note_num("serve-hot.unexplained_ms", unexplained);
    out.note_num("query.exec_ms.miss", exec_ms);
    let overhead = traced.reads.series(None).p50() / read_p50;
    layers::push(&mut out, &p, &counters, exec_ms, unexplained, overhead);
    Ok(out)
}
