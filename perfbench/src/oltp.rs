//! `oltp-wire`: one writer connection committing single-row inserts and one
//! reader connection running a prepared 100-id range read, skewed toward
//! recently committed ids, against a durable database behind the server.
//! One client thread drives both connections in a fixed interleaving.
//!
//! Every read misses the result cache (each commit changes the table's
//! version), so this workload exercises the WAL, group commit, appends,
//! sealing and checkpoints, snapshot pins and the wire.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use backbone_core::Database;
use backbone_server::{Client, Server, ServerOptions};
use backbone_storage::{DataType, Field, Schema, Value};

use crate::calib::Calibration;
use crate::layers::{self, ms, Counters, ProbeSpec, WindowCounters};
use crate::rng::{mix, Rng};
use crate::stats::Timed;
use crate::{end_to_end, obj, set_up, Config, DataDir, Json, Outcome};

pub const TABLE: &str = "events";
pub const PRELOAD: u64 = 200_000;
const LOAD_BATCH: usize = 10_000;
pub const RANGE: i64 = 100;
/// Mean distance, in ids, of a read's start back from the newest id.
const MEAN_OFFSET: f64 = 500.0;
const CATEGORIES: [&str; 16] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
    "lambda", "mu", "nu", "xi", "omicron", "pi",
];
pub const READ_SQL: &str = "SELECT id, cat, qty, price FROM events WHERE id >= $1 AND id < $2";

/// The row with id `id`: a pure function of the seed, so any prefix of the
/// writer's transcript can be replayed.
pub fn row(seed: u64, id: u64) -> Vec<Value> {
    let h = mix(seed, id);
    vec![
        Value::Int(id as i64),
        Value::str(CATEGORIES[(h % 16) as usize]),
        Value::Int(((h >> 8) % 1000) as i64),
        Value::Float(((h >> 20) % 100_000) as f64 / 100.0),
    ]
}

fn schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("cat", DataType::Utf8),
        Field::new("qty", DataType::Int64),
        Field::new("price", DataType::Float64),
    ])
}

/// Rows `lo..hi` in one batch.
fn rows(seed: u64, lo: u64, hi: u64) -> Vec<Vec<Value>> {
    (lo..hi).map(|id| row(seed, id)).collect()
}

/// The writer connection, and the reader connection with its statement.
fn connect(server: &Server) -> Result<(Client, Client, u64), String> {
    let writer = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut reader = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let read_stmt = reader
        .prepare(READ_SQL)
        .map_err(|e| format!("prepare: {e}"))?;
    Ok((writer, reader, read_stmt))
}

struct Instance {
    reader: Client,
    writer: Client,
    read_stmt: u64,
    server: Server,
    db: Database,
    dir: std::path::PathBuf,
}

fn setup(seed: u64, dir: &Path) -> Result<Instance, String> {
    let db = Database::open(dir).map_err(|e| format!("open: {e}"))?;
    db.create_table(TABLE, schema())
        .map_err(|e| format!("create: {e}"))?;
    for lo in (0..PRELOAD).step_by(LOAD_BATCH) {
        let hi = (lo + LOAD_BATCH as u64).min(PRELOAD);
        db.insert(TABLE, rows(seed, lo, hi))
            .map_err(|e| format!("preload: {e}"))?;
    }
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let server = Server::start(db.clone(), "127.0.0.1:0", ServerOptions::default())
        .map_err(|e| format!("server: {e}"))?;
    let (writer, reader, read_stmt) = connect(&server)?;
    Ok(Instance {
        reader,
        writer,
        read_stmt,
        server,
        db,
        dir: dir.to_path_buf(),
    })
}

/// Latencies and counts of one load window.
#[derive(Default)]
struct Window {
    reads: Timed,
    writes: Timed,
    read_params: Vec<(i64, i64)>,
    attempted: u64,
    failed: u64,
    cal: Calibration,
}

/// One cycle of the transcript: `true` is a commit on the writer
/// connection, `false` a range read on the reader connection; three
/// commits in eight operations.
const CYCLE: [bool; 8] = [true, false, false, true, false, true, false, false];

/// Run the closed loop for `warmup + window`; only operations that start
/// after the warm-up are timed. One thread drives both connections through
/// [`CYCLE`], so every run makes the same operations in the same order and
/// each read sees exactly the commits acknowledged before it. `written`
/// carries the writer's position across calls so successive windows
/// continue one transcript.
fn load(
    inst: &mut Instance,
    seed: u64,
    written: &mut u64,
    warmup: Duration,
    window: Duration,
    stream: u64,
) -> Window {
    let mut rng = Rng::stream(seed, stream);
    let mut out = Window::default();
    let begin = Instant::now();
    let (timed_from, end) = (begin + warmup, begin + warmup + window);
    out.cal = Calibration::new(timed_from);
    let mut k = 0;
    while Instant::now() < end {
        let commit = CYCLE[k % CYCLE.len()];
        k += 1;
        out.attempted += 1;
        if commit {
            let t = Instant::now();
            let res = inst
                .writer
                .insert(TABLE, vec![row(seed, PRELOAD + *written)]);
            let lat = ms(t);
            if !matches!(res, Ok(1)) {
                // The transcript is broken: stop.
                out.failed += 1;
                break;
            }
            *written += 1;
            if t >= timed_from {
                out.writes.push((t - timed_from).as_secs_f64(), lat);
            }
        } else {
            let newest = PRELOAD + *written;
            // Skew toward the newest ids: exponential offsets back from
            // the last acknowledged id.
            let back = (-(1.0 - rng.unit()).ln() * MEAN_OFFSET) as u64;
            let start = newest.saturating_sub(1 + back) as i64;
            let params = vec![Value::Int(start), Value::Int(start + RANGE)];
            let t = Instant::now();
            let res = inst.reader.execute(inst.read_stmt, params);
            let lat = ms(t);
            let ok = matches!(res, Ok(set) if check_range(seed, start, &set.rows, newest));
            out.failed += u64::from(!ok);
            if t >= timed_from {
                out.reads.push((t - timed_from).as_secs_f64(), lat);
                out.read_params.push((start, start + RANGE));
            }
        }
        out.cal.tick();
    }
    out
}

/// A range read is correct when it returns the consecutive ids from `start`
/// that were committed before it was sent (`visible` rows in all), each row
/// exactly as generated.
fn check_range(seed: u64, start: i64, got: &[Vec<Value>], visible: u64) -> bool {
    let end = start as u64 + RANGE as u64;
    let want = visible.min(end).saturating_sub(start as u64) as usize;
    if got.len() != want {
        return false;
    }
    let mut ids: Vec<&Vec<Value>> = got.iter().collect();
    ids.sort_by_key(|r| match r[0] {
        Value::Int(v) => v,
        _ => i64::MIN,
    });
    ids.iter()
        .enumerate()
        .all(|(k, r)| **r == row(seed, start as u64 + k as u64))
}

/// The final table equals a serial in-memory replay of the transcript.
fn check_final(inst: &Instance, seed: u64, written: u64) -> Result<bool, String> {
    let replay = Database::new();
    replay
        .create_table(TABLE, schema())
        .map_err(|e| format!("replay: {e}"))?;
    // One append of the whole transcript, in order: the same rows in the
    // same order as the acknowledged single-row commits.
    replay
        .insert(TABLE, rows(seed, 0, PRELOAD + written))
        .map_err(|e| format!("replay: {e}"))?;
    let got = inst
        .db
        .table_batch(TABLE)
        .map_err(|e| format!("table: {e}"))?;
    let want = replay
        .table_batch(TABLE)
        .map_err(|e| format!("table: {e}"))?;
    Ok(got.num_rows() == want.num_rows() && (0..got.num_rows()).all(|i| got.row(i) == want.row(i)))
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
}

pub fn run(cfg: &Config, dir: &DataDir) -> Result<Outcome, String> {
    let (mut inst, setups) = set_up(cfg, || setup(cfg.seed, &dir.fresh("oltp")?))?;
    let mut written = 0;
    let warmup = cfg.warmup();
    let before = Counters::take(&inst.db);

    let mut out = Outcome::default();
    let (plain, traced) = if cfg.trace {
        let half = cfg.window() / 2;
        let plain = load(&mut inst, cfg.seed, &mut written, warmup, half, 1);
        let traced = load(&mut inst, cfg.seed, &mut written, Duration::ZERO, half, 2);
        (plain, Some(traced))
    } else {
        (
            load(&mut inst, cfg.seed, &mut written, warmup, cfg.window(), 1),
            None,
        )
    };
    let after = Counters::take(&inst.db);
    let final_ok = check_final(&inst, cfg.seed, written)?;
    out.attempted = plain.attempted + traced.as_ref().map_or(0, |t| t.attempted) + 1;
    out.failed = plain.failed + traced.as_ref().map_or(0, |t| t.failed) + u64::from(!final_ok);
    out.correct = out.failed == 0;

    let live_rows = PRELOAD + written;
    let store = file_len(&inst.dir.join(backbone_core::durability::WAL_FILE))
        + file_len(&inst.dir.join(backbone_core::durability::CHECKPOINT_FILE));
    let counters = WindowCounters::between(&before, &after);
    out.note(
        "sizes",
        obj([
            ("preload_rows", Json::Int(PRELOAD as i64)),
            ("rows_written", Json::Int(written as i64)),
            ("live_rows", Json::Int(live_rows as i64)),
            ("range_ids", Json::Int(RANGE)),
            ("connections", Json::Int(2)),
        ]),
    );
    out.note_num("store_bytes_per_row", store as f64 / live_rows as f64);
    out.note("final_table_matches_replay", Json::Bool(final_ok));

    let Some(traced) = traced else {
        out.note_num("txn.fsyncs_per_commit", counters.fsyncs_per_commit);
        let writes = &plain.writes;
        out.note(
            "write_p50_ms",
            writes.point(0.5, Some(&plain.cal))?.to_json(),
        );
        out.note(
            "write_p99_ms",
            writes.point(0.99, Some(&plain.cal))?.to_json(),
        );
        let mut ops = plain.reads.clone();
        ops.extend(writes);
        end_to_end(
            &setups,
            &ops,
            &plain.reads,
            &plain.cal,
            cfg.seconds,
            &mut out,
        )?;
        return Ok(out);
    };
    let replay: Vec<(usize, Vec<Value>)> = plain
        .read_params
        .iter()
        .step_by((plain.read_params.len() / 300).max(1))
        .map(|&(lo, hi)| (0, vec![Value::Int(lo), Value::Int(hi)]))
        .collect();
    let seed = cfg.seed;
    let new_row = move |i: u64| row(seed, 1 << 40 | i);
    let spec = ProbeSpec {
        db: &inst.db,
        dir,
        server: Some(inst.server.addr()),
        table: TABLE,
        new_row: &new_row,
        templates: &[READ_SQL],
        hit: (0, vec![Value::Int(0), Value::Int(RANGE)]),
        replay: &replay,
    };
    let p = layers::probe(&spec)?;
    let exec_p50 = p.exec_all.clone().p50();
    let read_p50 = plain.reads.series(None).p50();
    let unexplained = read_p50 - (p.ping_us + p.pin_us) / 1e3 - exec_p50;
    out.note_num("query.exec_ms.range_read", exec_p50);
    out.note_num(
        "query.rows_in_per_row_out.range_read",
        p.rows_in_per_row_out,
    );
    out.note_num(
        "storage.checkpoints_in_window",
        before.delta(&after, "wal.checkpoints") as f64,
    );
    out.note_num("oltp-wire.unexplained_ms", unexplained);
    let overhead = traced.reads.series(None).p50() / read_p50;
    layers::push(&mut out, &p, &counters, exec_p50, unexplained, overhead);
    Ok(out)
}
