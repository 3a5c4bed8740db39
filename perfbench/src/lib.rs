//! Benchmark library: configuration, the metric vocabulary, the result and
//! report lines, and the four workloads.

pub mod calib;
pub mod env;
pub mod hybrid;
pub mod layers;
pub mod olap;
pub mod oltp;
pub mod rng;
pub mod serve;
pub mod stats;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub use backbone_server::json::Json;

/// A JSON object with its keys in the given order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// End-to-end metrics: name and unit. Every workload reports each of them
/// from an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
];

/// Per-layer metrics: name and unit. Every workload reports each of them
/// from a traced run (`--trace 1`), measured on its own data.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.ping_us", "us"),
    ("server.rejected", "count"),
    ("core.stmt_hit_us", "us"),
    ("core.plan_cache.lookups", "count"),
    ("core.plan_cache.hit_ratio", "ratio"),
    ("core.result_cache.lookups", "count"),
    ("core.result_cache.hit_ratio", "ratio"),
    ("core.result_cache.invalidations_per_commit", "ratio"),
    ("query.plan_us", "us"),
    ("query.exec_ms", "ms"),
    ("query.rows_in_per_row_out", "ratio"),
    ("storage.insert_us", "us"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.checkpoint_bytes_per_row", "B/row"),
    ("txn.commit_us", "us"),
    ("txn.wal_us", "us"),
    ("txn.commits", "count"),
    ("txn.fsyncs_per_commit", "ratio"),
    ("txn.reader_stalls", "count"),
    ("txn.pin_us", "us"),
    ("unexplained_ms", "ms"),
    ("trace_overhead", "ratio"),
];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OltpWire,
    ServeHot,
    OlapScan,
    HybridSearch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OltpWire,
        Workload::ServeHot,
        Workload::OlapScan,
        Workload::HybridSearch,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Workload::OltpWire => "oltp-wire",
            Workload::ServeHot => "serve-hot",
            Workload::OlapScan => "olap-scan",
            Workload::HybridSearch => "hybrid-search",
        }
    }

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Untimed lead-in before the window: 10% of it, at most 1 s.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.1).min(1.0))
    }
}

/// Set-up seconds as measured, and the slowdown the reference showed
/// around each set-up (see [`calib`]).
#[derive(Debug, Default)]
pub struct Setups {
    pub raw: Vec<f64>,
    pub slowdown: Vec<f64>,
}

impl Setups {
    /// Each set-up's seconds divided by its slowdown.
    pub fn calibrated(&self) -> Vec<f64> {
        self.raw
            .iter()
            .zip(&self.slowdown)
            .map(|(s, f)| s / f)
            .collect()
    }
}

/// Set up [`SETUP_REPS`] times (once when traced), dropping each instance
/// before the next; returns the last instance and every set-up's seconds,
/// each with the reference sampled three times before and after it.
pub fn set_up<T>(
    cfg: &Config,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Setups), String> {
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut reference = calib::Reference::new();
    let mut setups = Setups::default();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let mut slowdowns: Vec<f64> = (0..3).map(|_| reference.sample().slowdown()).collect();
        let t = Instant::now();
        last = Some(build()?);
        setups.raw.push(t.elapsed().as_secs_f64());
        slowdowns.extend((0..3).map(|_| reference.sample().slowdown()));
        setups.slowdown.push(stats::median(&slowdowns));
    }
    Ok((last.expect("at least one set-up"), setups))
}

/// What a workload hands back: counts, the metrics of the requested mode,
/// and report fields.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<(&'static str, f64)>,
    pub report: Vec<(String, Json)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, key: impl Into<String>, value: Json) {
        self.report.push((key.into(), value));
    }

    pub fn note_num(&mut self, key: impl Into<String>, value: f64) {
        self.note(key, Json::Float(value));
    }

    /// The expected metric names for this mode.
    pub fn vocabulary(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Check the metrics against the vocabulary: every name once, nothing
    /// else, every value finite.
    pub fn validate(&self, trace: bool) -> Result<(), String> {
        let vocab = Outcome::vocabulary(trace);
        for (name, _) in vocab {
            let n = self.metrics.iter().filter(|(m, _)| m == name).count();
            if n != 1 {
                return Err(format!("metric {name} reported {n} times"));
            }
        }
        for (name, v) in &self.metrics {
            if !vocab.iter().any(|(m, _)| m == name) {
                return Err(format!("metric {name} is not in the vocabulary"));
            }
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        Ok(())
    }

    pub fn report_line(&self) -> String {
        obj([("report", Json::Obj(self.report.clone()))]).to_string()
    }

    /// The last line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let trace = self.metrics.iter().any(|(m, _)| *m == PER_LAYER[0].0);
        let metrics = Outcome::vocabulary(trace)
            .iter()
            .filter_map(|(name, unit)| {
                let (_, v) = self.metrics.iter().find(|(m, _)| m == name)?;
                let m = obj([
                    ("value", Json::Float(*v)),
                    ("unit", Json::Str(unit.to_string())),
                ]);
                Some((name.to_string(), m))
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// A scratch directory under the checkout, removed when dropped.
pub struct DataDir {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl DataDir {
    pub fn create(cfg: &Config) -> Result<DataDir, String> {
        let root = Path::new(".bench_data").join(format!(
            "{}-{}-{}",
            cfg.workload.name(),
            cfg.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(DataDir {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A new, empty subdirectory.
    pub fn fresh(&self, tag: &str) -> Result<PathBuf, String> {
        let i = self.next.get();
        self.next.set(i + 1);
        let dir = self.root.join(format!("{tag}-{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave `.bench_data` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_data");
    }
}

/// The percentile every workload reports as `read_tail_ms`. p99 has
/// hundreds of reads beyond it on every workload but `olap-scan`, but it
/// follows the scheduling and disk stalls other tenants of the machine
/// cause: it moved by 35% (`oltp-wire`), 60% (`serve-hot`) and 20%
/// (`hybrid-search`, whose post-filter retries sit there) between runs of
/// the same code. p90 is gated and p99 is on the report line.
pub const TAIL_Q: f64 = 0.90;

/// The end-to-end metrics of an untraced run: `setup_s` from the set-ups,
/// `ops_per_s` from `ops`, and `read_p50_ms` and `read_tail_ms` from
/// `reads`, each calibrated by the slowdown measured around the set-ups and
/// through the window (see [`calib`]). The report line carries each
/// calibrated percentile with its sample counts, `read_p99_ms` where it
/// has ten samples beyond it, and the same figures uncalibrated (`raw`).
/// Traced runs report none of them: their window is halved.
pub fn end_to_end(
    setups: &Setups,
    ops: &stats::Timed,
    reads: &stats::Timed,
    cal: &calib::Calibration,
    window_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let p50 = reads.point(0.5, Some(cal))?;
    let tail = reads.point(TAIL_Q, Some(cal))?;
    out.note(
        "setup_s_each",
        Json::Arr(setups.raw.iter().map(|&s| Json::Float(s)).collect()),
    );
    out.note(
        "setup_slowdown_each",
        Json::Arr(setups.slowdown.iter().map(|&s| Json::Float(s)).collect()),
    );
    out.note(
        "window_slowdown",
        obj([
            (
                "median",
                Json::Float(cal.median(calib::Sample::slowdown).unwrap_or(1.0)),
            ),
            (
                "core_ms",
                Json::Float(cal.median(|s| s.core_ms).unwrap_or(0.0)),
            ),
            (
                "cache_ms",
                Json::Float(cal.median(|s| s.cache_ms).unwrap_or(0.0)),
            ),
            ("samples", Json::Int(cal.len() as i64)),
        ]),
    );
    out.note("read_p50_ms", p50.to_json());
    out.note("read_tail_ms", tail.to_json());
    if let Ok(p99) = reads.point(0.99, Some(cal)) {
        out.note("read_p99_ms", p99.to_json());
    }
    out.note(
        "raw",
        obj([
            ("setup_s", Json::Float(stats::median(&setups.raw))),
            ("ops_per_s", Json::Float(ops.rate(window_s, None))),
            ("read_p50_ms", Json::Float(reads.point(0.5, None)?.value)),
            (
                "read_tail_ms",
                Json::Float(reads.point(TAIL_Q, None)?.value),
            ),
        ]),
    );
    out.metric("setup_s", stats::median(&setups.calibrated()));
    out.metric("ops_per_s", ops.rate(window_s, Some(cal)));
    out.metric("read_p50_ms", p50.value);
    out.metric("read_tail_ms", tail.value);
    Ok(())
}

/// Run one workload and return its outcome, with the environment recorded
/// in the report.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    // The benchmark builds the engine from this checkout's sources; refuse
    // to run anywhere else.
    for required in ["crates/core/Cargo.toml", "perfbench/Cargo.toml"] {
        if !Path::new(required).is_file() {
            return Err(format!(
                "run from the repository root: {required} is missing"
            ));
        }
    }
    let nproc = env::nproc();
    let pinned_cpu = env::pin_to_one_cpu(nproc);
    let dir = DataDir::create(cfg)?;
    // Flush writes still pending on the checkout's filesystem (a build's
    // output, an earlier run) so they do not land in this run's fsyncs.
    let _ = std::process::Command::new("sync")
        .arg("-f")
        .arg(dir.path())
        .status();
    let mut out = match cfg.workload {
        Workload::OltpWire => oltp::run(cfg, &dir)?,
        Workload::ServeHot => serve::run(cfg, &dir)?,
        Workload::OlapScan => olap::run(cfg, &dir)?,
        Workload::HybridSearch => hybrid::run(cfg, &dir)?,
    };
    let environment = env::capture(cfg, dir.path(), nproc, pinned_cpu);
    out.report.insert(0, ("environment".into(), environment));
    out.report.insert(
        0,
        ("workload".into(), Json::Str(cfg.workload.name().into())),
    );
    out.validate(cfg.trace)?;
    Ok(out)
}
