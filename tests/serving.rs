//! Concurrent multi-session property tests: M writer sessions and N reader
//! sessions share one database, and every reader observation must be a
//! consistent snapshot.
//!
//! The invariants, checked continuously while writers churn:
//!
//! - **prefix consistency**: each writer appends an ordered stream of rows;
//!   any reader query sees a contiguous prefix of every writer's stream —
//!   never a hole, never a reordering;
//! - **no torn inserts**: writers insert in multi-row batches; a reader
//!   sees a batch entirely or not at all;
//! - **snapshot stability**: a query pinned to an explicit epoch returns
//!   the identical answer no matter how much commits after the pin;
//! - **freshness**: once every writer has finished, a new snapshot sees
//!   everything.

use backbone_core::{Database, Session};
use backbone_query::ExecOptions;
use backbone_storage::{DataType, Field, Schema, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const BATCH: usize = 3;

fn stream_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("writer", DataType::Int64),
        Field::new("seq", DataType::Int64),
    ])
}

/// The `seq` values reader saw, grouped per writer.
fn observed_seqs(rows: &[Vec<Value>], writers: usize) -> Vec<Vec<i64>> {
    let mut per_writer = vec![Vec::new(); writers];
    for row in rows {
        let (Value::Int(w), Value::Int(s)) = (&row[0], &row[1]) else {
            panic!("non-int cells in stream row: {row:?}");
        };
        per_writer[*w as usize].push(*s);
    }
    per_writer
}

/// Assert one observation is snapshot-consistent: every writer's stream is
/// a contiguous, batch-aligned prefix.
fn assert_consistent(rows: &[Vec<Value>], writers: usize, label: &str) {
    for (w, mut seqs) in observed_seqs(rows, writers).into_iter().enumerate() {
        // Scans may interleave row groups from different commits, but the
        // *set* of visible seqs is what snapshot semantics promise.
        seqs.sort_unstable();
        let expect: Vec<i64> = (0..seqs.len() as i64).collect();
        assert_eq!(
            seqs, expect,
            "{label}: writer {w} stream has a hole or duplicate"
        );
        assert_eq!(
            seqs.len() % BATCH,
            0,
            "{label}: writer {w} shows a torn {BATCH}-row batch ({} rows)",
            seqs.len()
        );
    }
}

#[test]
fn readers_see_prefix_consistent_snapshots_while_writers_churn() {
    let writers = 4;
    let readers = 3;
    let batches_per_writer = 30;

    let db = Database::new();
    db.create_table("stream", stream_schema()).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let reader_handles: Vec<_> = (0..readers)
        .map(|_| {
            let session = db.session();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut observations = 0usize;
                let mut max_seen = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let rows = session
                        .sql("SELECT writer, seq FROM stream")
                        .unwrap()
                        .to_rows();
                    assert_consistent(&rows, writers, "live reader");
                    max_seen = max_seen.max(rows.len());
                    observations += 1;
                }
                (observations, max_seen)
            })
        })
        .collect();

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                for b in 0..batches_per_writer {
                    let rows = (0..BATCH)
                        .map(|i| vec![Value::Int(w as i64), Value::Int((b * BATCH + i) as i64)])
                        .collect();
                    db.insert("stream", rows).unwrap();
                }
            })
        })
        .collect();
    for h in writer_handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in reader_handles {
        let (observations, max_seen) = h.join().unwrap();
        assert!(observations > 0, "reader thread never got a query in");
        assert!(max_seen <= writers * batches_per_writer * BATCH);
    }

    // Freshness: with all writers done, a new snapshot sees every row.
    let rows = db
        .session()
        .sql("SELECT writer, seq FROM stream")
        .unwrap()
        .to_rows();
    assert_eq!(rows.len(), writers * batches_per_writer * BATCH);
    assert_consistent(&rows, writers, "final read");
}

#[test]
fn pinned_snapshot_is_immune_to_later_commits() {
    let db = Database::new();
    db.create_table("stream", stream_schema()).unwrap();
    db.insert(
        "stream",
        (0..BATCH)
            .map(|i| vec![Value::Int(0), Value::Int(i as i64)])
            .collect(),
    )
    .unwrap();

    let pin = db.pin_snapshot();
    let at_pin = db
        .session()
        .with_options(ExecOptions::serial().at_snapshot(pin.epoch()));
    let scan = at_pin.query("stream").unwrap();
    let before = at_pin.execute(scan.clone()).unwrap().to_rows();
    assert_eq!(before.len(), BATCH);

    // Concurrent churn after the pin.
    let handles: Vec<_> = (1..4)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                for b in 0..10 {
                    let rows = (0..BATCH)
                        .map(|i| vec![Value::Int(w as i64), Value::Int((b * BATCH + i) as i64)])
                        .collect();
                    db.insert("stream", rows).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // The pinned epoch still answers exactly as before the churn...
    let after = at_pin.execute(scan).unwrap().to_rows();
    assert_eq!(before, after, "pinned snapshot drifted under churn");
    drop(pin);
    // ...while an unpinned query sees all of it.
    assert_eq!(db.row_count("stream"), Some(BATCH + 3 * 10 * BATCH));
    let fresh = db.session().sql("SELECT writer, seq FROM stream").unwrap();
    assert_eq!(fresh.num_rows(), BATCH + 3 * 10 * BATCH);
}

#[test]
fn session_snapshots_compose_with_aggregates_and_filters() {
    // A reader aggregating under churn must count whole batches: COUNT(*)
    // runs over the same clamped scan as a plain select.
    let writers = 3;
    let db = Database::new();
    db.create_table("stream", stream_schema()).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let agg_reader = {
        let session = db.session();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let out = session.sql("SELECT COUNT(*) AS n FROM stream").unwrap();
                let n = match out.row(0)[0] {
                    Value::Int(n) => n as usize,
                    ref v => panic!("count returned {v:?}"),
                };
                assert_eq!(n % BATCH, 0, "aggregate saw a torn batch: {n} rows");
            }
        })
    };
    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                for b in 0..25 {
                    let rows = (0..BATCH)
                        .map(|i| vec![Value::Int(w as i64), Value::Int((b * BATCH + i) as i64)])
                        .collect();
                    db.insert("stream", rows).unwrap();
                }
            })
        })
        .collect();
    for h in writer_handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    agg_reader.join().unwrap();

    let out = db
        .session()
        .sql("SELECT writer, COUNT(*) AS n FROM stream GROUP BY writer ORDER BY writer")
        .unwrap();
    assert_eq!(out.num_rows(), writers);
    for i in 0..writers {
        assert_eq!(out.row(i)[1], Value::Int((25 * BATCH) as i64));
    }
}

// ---------------------------------------------------------------------------
// Serving-path cache properties: the epoch-tagged result cache must be
// invisible except for speed. Cached hits are byte-identical to cold
// execution pinned at the same epoch, and commits are never masked by a
// stale hit — all checked while writers churn.
// ---------------------------------------------------------------------------

/// Two sessions reading at `epoch`: one through the serving-path caches,
/// one with both caches off.
fn pinned_sessions(db: &Database, epoch: u64) -> (Session, Session) {
    let hot = ExecOptions::serial().at_snapshot(epoch);
    let cold = hot.clone().without_caches();
    (
        db.session().with_options(hot),
        db.session().with_options(cold),
    )
}

#[test]
fn cached_hits_equal_cold_execution_at_same_epoch() {
    let writers = 3;
    let batches_per_writer = 30;
    let db = Database::new();
    db.create_table("stream", stream_schema()).unwrap();
    let q = "SELECT writer, seq FROM stream";

    let stop = Arc::new(AtomicBool::new(false));
    let checkers: Vec<_> = (0..2)
        .map(|_| {
            let db = db.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let pin = db.pin_snapshot();
                    let (hot, cold) = pinned_sessions(&db, pin.epoch());
                    // Twice through the caching path (the second is a result
                    // hit whenever no commit raced the first), once cold.
                    let a = hot.sql(q).unwrap().to_rows();
                    let b = hot.sql(q).unwrap().to_rows();
                    let c = cold.sql(q).unwrap().to_rows();
                    assert_eq!(a, b, "same epoch, same statement, same rows");
                    assert_eq!(a, c, "cached path diverged from cold execution");
                    assert_consistent(&a, writers, "cached read");
                }
            })
        })
        .collect();

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                for b in 0..batches_per_writer {
                    let rows = (0..BATCH)
                        .map(|i| vec![Value::Int(w as i64), Value::Int((b * BATCH + i) as i64)])
                        .collect();
                    db.insert("stream", rows).unwrap();
                }
            })
        })
        .collect();
    for h in writer_handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in checkers {
        h.join().unwrap();
    }

    // Quiesced: a repeat at one epoch is a deterministic result-cache hit,
    // still byte-identical to a cold run at that epoch.
    let pin = db.pin_snapshot();
    let (hot, cold) = pinned_sessions(&db, pin.epoch());
    let warmup = hot.sql(q).unwrap().to_rows();
    let hits_before = db.metrics().value("cache.result.hits");
    let hit = hot.sql(q).unwrap().to_rows();
    assert_eq!(db.metrics().value("cache.result.hits"), hits_before + 1);
    let cold = cold.sql(q).unwrap().to_rows();
    assert_eq!(warmup, hit);
    assert_eq!(hit, cold, "quiesced hit differs from cold execution");
    assert_eq!(hit.len(), writers * batches_per_writer * BATCH);
}

#[test]
fn post_commit_reads_never_serve_stale_hits() {
    let db = Database::new();
    db.create_table("stream", stream_schema()).unwrap();
    let q = "SELECT COUNT(*) AS n FROM stream";
    let count = |db: &Database| match db.session().sql(q).unwrap().row(0)[0] {
        Value::Int(n) => n as usize,
        ref v => panic!("count returned {v:?}"),
    };

    // Interleave commits with fully-cached reads: every read after a commit
    // must see it, no matter how hot the statement is.
    let mut expected = 0usize;
    for round in 0..20 {
        assert_eq!(count(&db), expected, "round {round}: stale hit");
        assert_eq!(count(&db), expected, "round {round}: repeat drifted");
        let rows = (0..BATCH)
            .map(|i| vec![Value::Int(0), Value::Int((expected + i) as i64)])
            .collect();
        db.insert("stream", rows).unwrap();
        expected += BATCH;
    }
    assert_eq!(count(&db), expected);
    // The loop above must have been served from the cache at least once per
    // repeated read — otherwise this test exercised nothing.
    assert!(db.metrics().value("cache.result.hits") >= 20);

    // Same law under concurrency: after every writer joins, one fresh read
    // sees everything, even though the statement stayed cache-hot throughout.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let session = db.session();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let n = match session.sql(q).unwrap().row(0)[0] {
                    Value::Int(n) => n as usize,
                    ref v => panic!("count returned {v:?}"),
                };
                assert!(n >= last, "count regressed under churn: {n} < {last}");
                last = n;
            }
        })
    };
    let writer_handles: Vec<_> = (0..3)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                for b in 0..20 {
                    let rows = (0..BATCH)
                        .map(|i| vec![Value::Int(w + 1), Value::Int((b * BATCH + i) as i64)])
                        .collect();
                    db.insert("stream", rows).unwrap();
                }
            })
        })
        .collect();
    for h in writer_handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().unwrap();
    assert_eq!(count(&db), expected + 3 * 20 * BATCH);
}

/// Regression for the plan-cache key: execution knobs that only steer
/// *physical* planning (memory budget, parallelism, batch size) are not part
/// of the fingerprint, so a budget-capped session reuses the logical plan a
/// comfortable session cached — and still makes its own physical decision
/// (it spills; the uncapped run did not). Identical results prove the shared
/// entry never leaks a physical choice.
#[test]
fn plan_cache_shares_logical_plans_across_physical_budgets() {
    let db = Database::new();
    db.create_table("stream", stream_schema()).unwrap();
    // Enough distinct groups that a few-KB budget cannot hold the hash table.
    let rows: Vec<Vec<Value>> = (0..6000)
        .map(|i| vec![Value::Int(i % 2000), Value::Int(i)])
        .collect();
    db.insert("stream", rows).unwrap();
    let q = "SELECT writer, COUNT(*) AS n FROM stream GROUP BY writer";
    let sorted = |mut rows: Vec<Vec<Value>>| {
        rows.sort_by_key(|r| match r[0] {
            Value::Int(w) => w,
            _ => unreachable!(),
        });
        rows
    };

    let uncapped = db.session();
    let comfortable = sorted(uncapped.sql(q).unwrap().to_rows());
    assert_eq!(db.metrics().value("storage.spill.partitions"), 0);
    let hits_before = db.metrics().value("cache.plan.hits");

    // Result cache off so the capped run really executes; plan cache on so
    // it reuses the logical plan cached by the uncapped session.
    let capped = db.session().with_options(
        ExecOptions::serial()
            .with_mem_budget(4 * 1024)
            .without_result_cache(),
    );
    let tight = sorted(capped.sql(q).unwrap().to_rows());

    assert_eq!(comfortable, tight, "budget changed the answer");
    assert!(
        db.metrics().value("cache.plan.hits") > hits_before,
        "capped session did not reuse the cached logical plan"
    );
    assert!(
        db.metrics().value("storage.spill.partitions") > 0,
        "capped run should have spilled — physical planning must stay per-execution"
    );
}

#[test]
fn prepare_execute_roundtrip_over_the_wire() {
    use backbone_server::{Client, Server, ServerOptions};

    let db = Database::new();
    db.create_table("stream", stream_schema()).unwrap();
    db.insert(
        "stream",
        (0..10)
            .map(|i| vec![Value::Int(i % 2), Value::Int(i)])
            .collect(),
    )
    .unwrap();
    let server = Server::start(db, "127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let stmt = client
        .prepare("SELECT seq FROM stream WHERE writer = $1 AND seq >= $2")
        .unwrap();
    let a = client
        .execute(stmt, vec![Value::Int(0), Value::Int(0)])
        .unwrap();
    assert_eq!(a.rows.len(), 5);
    let b = client
        .execute(stmt, vec![Value::Int(1), Value::Int(5)])
        .unwrap();
    assert_eq!(b.rows.len(), 3);
    // Re-executing the same binding replays the identical rows (served from
    // the result cache server-side; the wire can't tell — that's the point).
    let a2 = client
        .execute(stmt, vec![Value::Int(0), Value::Int(0)])
        .unwrap();
    assert_eq!(a, a2);
    // Unknown handles and handles from other connections are typed errors.
    assert!(client.execute(stmt + 99, vec![]).is_err());
    let mut other = Client::connect(server.addr()).unwrap();
    assert!(other
        .execute(stmt, vec![Value::Int(0), Value::Int(0)])
        .is_err());
    server.shutdown();
}
