//! `hybrid-search`: one thread runs filtered hybrid searches (price filter,
//! keyword, vector, k = 10) over 20k products with a text index and an IVF
//! index. Price cutoffs come in three equal bands (about 1%, 10% and 60% of
//! rows) that the cost model routes to exact scan, pre-filter and
//! post-filter. Recall is measured against a brute-force filtered ground
//! truth after the timed window.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use backbone_core::hybrid::{
    unified_search_profiled, FusionWeights, HybridHit, HybridProfile, HybridSpec,
};
use backbone_core::{Database, VectorIndexSpec};
use backbone_query::{col, lit, Parallelism};
use backbone_storage::{DataType, Field, Schema, Value};
use backbone_text::bm25::rank_terms_counted;
use backbone_text::tokenize::tokenize;
use backbone_text::Bm25Params;
use backbone_vector::{Dataset, Metric};
use backbone_workloads::hybrid::{generate, generate_queries, ProductCatalog};

use crate::calib::Calibration;
use crate::layers::{self, ms, Counters, ProbeSpec, WindowCounters};
use crate::rng::Rng;
use crate::stats::{Series, Timed};
use crate::{end_to_end, obj, set_up, Config, DataDir, Json, Outcome};

pub const TABLE: &str = "products";
pub const PRODUCTS: usize = 20_000;
pub const DIM: usize = 16;
pub const K: usize = 10;
/// Distinct queries the thread cycles through.
const QUERY_POOL: usize = 4096;
/// Selectivity bands: name and share of rows passing the price filter.
pub const BANDS: [(&str, f64); 3] = [
    ("exactscan", 0.01),
    ("prefilter", 0.10),
    ("postfilter", 0.60),
];
/// Every `SAMPLE_EVERY`-th search is kept for the recall computation.
const SAMPLE_EVERY: u64 = 100;
/// Lowest mean recall@10 the run accepts as correct.
pub const MIN_RECALL: f64 = 0.90;
const PROBE_SAMPLES: usize = 500;

/// One search: embedding, keyword, price cutoff and its band.
#[derive(Debug, Clone)]
pub struct Query {
    pub embedding: Vec<f32>,
    pub keyword: String,
    pub max_price: f64,
    pub band: usize,
}

/// Seeded queries; prices are uniform in [5, 500), so a cutoff of
/// `5 + 495 * s` passes about a share `s` of rows.
pub fn queries(seed: u64) -> Vec<Query> {
    let mut rng = Rng::stream(seed, 0x4b1d);
    generate_queries(QUERY_POOL, DIM, 0.0, K, seed ^ 0x0717)
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let band = i % BANDS.len();
            let share = BANDS[band].1 * (0.9 + 0.2 * rng.unit());
            Query {
                embedding: q.embedding,
                keyword: q.keyword,
                max_price: 5.0 + 495.0 * share,
                band,
            }
        })
        .collect()
}

fn spec(q: &Query) -> HybridSpec {
    HybridSpec {
        table: TABLE.into(),
        filter: Some(col("price").lt(lit(q.max_price))),
        keyword: Some(q.keyword.clone()),
        vector: Some(q.embedding.clone()),
        k: K,
        weights: FusionWeights::default(),
    }
}

/// The one call the workload makes per operation, traced or not. It runs
/// the same search `Session::search(..).run()` does and hands back the
/// per-stage profile the engine keeps anyway. Later changes to the hybrid
/// path repoint this adapter; the rest of the workload stays.
pub fn search(db: &Database, q: &Query) -> Result<(Vec<HybridHit>, HybridProfile), String> {
    unified_search_profiled(db, &spec(q))
        .map(|(hits, _, profile)| (hits, profile))
        .map_err(|e| e.to_string())
}

fn product_row(p: &backbone_workloads::hybrid::Product) -> Vec<Value> {
    vec![
        Value::Int(p.id as i64),
        Value::str(p.category),
        Value::Float(p.price),
        Value::Float(p.rating),
        Value::Bool(p.in_stock),
    ]
}

/// Load the table, build the text index and the IVF index.
fn setup(catalog: &ProductCatalog) -> Result<Database, String> {
    let db = Database::new();
    db.create_table(
        TABLE,
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("category", DataType::Utf8),
            Field::new("price", DataType::Float64),
            Field::new("rating", DataType::Float64),
            Field::new("in_stock", DataType::Bool),
        ]),
    )
    .map_err(|e| format!("create: {e}"))?;
    db.insert(TABLE, catalog.products.iter().map(product_row).collect())
        .map_err(|e| format!("load: {e}"))?;
    db.create_text_index_from(
        TABLE,
        catalog.products.iter().map(|p| p.description.as_str()),
    )
    .map_err(|e| format!("text index: {e}"))?;
    let mut ds = Dataset::new(DIM);
    for p in &catalog.products {
        ds.push(p.id, &p.embedding);
    }
    db.create_vector_index(TABLE, ds, VectorIndexSpec::ivf(Metric::L2))
        .map_err(|e| format!("vector index: {e}"))?;
    Ok(db)
}

/// A search is well formed when it returns k hits, all passing the filter.
fn well_formed(catalog: &ProductCatalog, q: &Query, hits: &[HybridHit]) -> bool {
    hits.len() == K
        && hits.iter().all(|h| {
            catalog
                .products
                .get(h.row as usize)
                .is_some_and(|p| p.price < q.max_price)
        })
}

/// Brute-force filtered top-k: exact distance and the full BM25 score of
/// every row passing the filter, fused with the engine's formula.
fn truth(db: &Database, catalog: &ProductCatalog, q: &Query) -> Vec<u64> {
    let text = db.text_index(TABLE).expect("text index");
    let (scored, _) = rank_terms_counted(
        &text,
        &tokenize(&q.keyword),
        PRODUCTS,
        Bm25Params::default(),
    );
    let bm25: HashMap<u64, f64> = scored.into_iter().map(|s| (s.doc, s.score)).collect();
    let mut fused: Vec<(f64, u64)> = catalog
        .products
        .iter()
        .filter(|p| p.price < q.max_price)
        .map(|p| {
            let d = Metric::L2.distance(&q.embedding, &p.embedding);
            let t = bm25.get(&p.id).copied().unwrap_or(0.0);
            (1.0 / (1.0 + d.max(0.0) as f64) + t, p.id)
        })
        .collect();
    fused.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    fused.into_iter().take(K).map(|(_, id)| id).collect()
}

#[derive(Default)]
struct Window {
    reads: Timed,
    samples: Vec<(usize, Vec<u64>)>,
    /// Traced runs: per band, the stages of each search.
    stages: BTreeMap<(usize, &'static str), Series>,
    strategies: BTreeMap<&'static str, u64>,
    candidates: u64,
    hits: u64,
    rows: u64,
    passing: u64,
    postings: u64,
    attempted: u64,
    failed: u64,
    cal: Calibration,
}

impl Window {
    /// Bench-side spans of a traced search: its stages and counts.
    fn record(&mut self, band: usize, hits: &[HybridHit], prof: &HybridProfile) {
        for (stage, ns) in [
            ("filter", prof.filter_ns),
            ("vector", prof.vector_ns),
            ("text", prof.text_ns),
            ("complete", prof.complete_ns),
        ] {
            self.stages
                .entry((band, stage))
                .or_default()
                .push(ns as f64 / 1e6);
        }
        *self.strategies.entry(prof.strategy.name()).or_default() += 1;
        self.candidates += prof.vector_candidates as u64;
        self.hits += hits.len() as u64;
        self.rows += prof.rows as u64;
        self.passing += prof.rows_passing as u64;
        self.postings += prof.bm25.postings_scored;
    }
}

fn load(
    db: &Database,
    catalog: &ProductCatalog,
    qs: &[Query],
    next: &mut usize,
    warmup: Duration,
    window: Duration,
    traced: bool,
) -> Window {
    let mut out = Window::default();
    let begin = Instant::now();
    let (timed_from, end) = (begin + warmup, begin + warmup + window);
    out.cal = Calibration::new(timed_from);
    let mut i = 0u64;
    while Instant::now() < end {
        let qi = *next % qs.len();
        *next += 1;
        let q = &qs[qi];
        let start = Instant::now();
        let res = search(db, q);
        let lat = ms(start);
        out.attempted += 1;
        match res {
            Ok((hits, prof)) if well_formed(catalog, q, &hits) => {
                if traced && start >= timed_from {
                    out.record(q.band, &hits, &prof);
                }
                if i.is_multiple_of(SAMPLE_EVERY) {
                    out.samples.push((qi, hits.iter().map(|h| h.row).collect()));
                }
            }
            _ => out.failed += 1,
        }
        if start >= timed_from {
            out.reads.push((start - timed_from).as_secs_f64(), lat);
        }
        out.cal.tick();
        i += 1;
    }
    out
}

pub fn run(cfg: &Config, dir: &DataDir) -> Result<Outcome, String> {
    let catalog = generate(PRODUCTS, DIM, cfg.seed);
    let qs = queries(cfg.seed);
    let (db, setups) = set_up(cfg, || setup(&catalog))?;
    let warmup = cfg.warmup();
    let mut next = 0;
    let before = Counters::take(&db);
    let (plain, traced) = if cfg.trace {
        let half = cfg.window() / 2;
        let plain = load(&db, &catalog, &qs, &mut next, warmup, half, false);
        let traced = load(&db, &catalog, &qs, &mut next, Duration::ZERO, half, true);
        (plain, Some(traced))
    } else {
        let plain = load(&db, &catalog, &qs, &mut next, warmup, cfg.window(), false);
        (plain, None)
    };
    let after = Counters::take(&db);
    let counters = WindowCounters::between(&before, &after);

    // Recall against the brute-force truth, outside the timed window.
    let mut samples = plain.samples;
    if let Some(t) = &traced {
        samples.extend(t.samples.iter().cloned());
    }
    let mut per_band = [(0.0, 0usize); 3];
    for (qi, rows) in &samples {
        let want = truth(&db, &catalog, &qs[*qi]);
        let found = rows.iter().filter(|r| want.contains(r)).count();
        let b = &mut per_band[qs[*qi].band];
        b.0 += found as f64 / K as f64;
        b.1 += 1;
    }
    let recall = per_band.iter().map(|b| b.0).sum::<f64>()
        / per_band.iter().map(|b| b.1).sum::<usize>().max(1) as f64;

    let mut out = Outcome::default();
    out.attempted = plain.attempted + traced.as_ref().map_or(0, |t| t.attempted) + 1;
    out.failed = plain.failed
        + traced.as_ref().map_or(0, |t| t.failed)
        + u64::from(samples.is_empty() || recall < MIN_RECALL);
    out.correct = out.failed == 0;
    out.note(
        "sizes",
        obj([
            ("products", Json::Int(PRODUCTS as i64)),
            ("dim", Json::Int(DIM as i64)),
            ("k", Json::Int(K as i64)),
            ("vector_index", Json::Str("ivf".into())),
            ("query_pool", Json::Int(QUERY_POOL as i64)),
        ]),
    );
    out.note_num("recall_at_10", recall);
    let by_band = BANDS.iter().zip(per_band).map(|((name, _), (sum, n))| {
        let band = obj([
            ("recall", Json::Float(sum / n.max(1) as f64)),
            ("n", Json::Int(n as i64)),
        ]);
        (*name, band)
    });
    out.note("recall_at_10_by_band", obj(by_band));

    let Some(mut traced) = traced else {
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
    let text = db.text_index(TABLE).expect("text index");
    let vectors = db.vector_index(TABLE).expect("vector index");
    let (mut ivf, mut bm25) = (Series::default(), Series::default());
    for q in qs.iter().take(PROBE_SAMPLES) {
        let t = Instant::now();
        std::hint::black_box(vectors.search_with(&q.embedding, 4 * K.max(16), Parallelism::Serial));
        ivf.push(ms(t));
        let terms = tokenize(&q.keyword);
        let t = Instant::now();
        std::hint::black_box(rank_terms_counted(
            &text,
            &terms,
            4 * K.max(16),
            Bm25Params::default(),
        ));
        bm25.push(ms(t));
    }
    out.note_num("vector.ivf_search_us", ivf.p50() * 1e3);
    out.note_num("text.bm25_us", bm25.p50() * 1e3);
    let n = traced.reads.len().max(1) as f64;
    out.note_num("text.postings_per_query", traced.postings as f64 / n);
    out.note_num(
        "hybrid.candidates_per_hit",
        traced.candidates as f64 / traced.hits.max(1) as f64,
    );
    for (strategy, count) in &traced.strategies {
        let name = strategy.replace('-', "");
        out.note_num(format!("hybrid.strategy_share.{name}"), *count as f64 / n);
    }
    // p50 of each stage over all bands; their sum is the blocking path.
    let mut stage_p50 = BTreeMap::new();
    for stage in ["filter", "vector", "text", "complete"] {
        let mut all = Series::default();
        for (b, (band, _)) in BANDS.iter().enumerate() {
            if let Some(s) = traced.stages.get_mut(&(b, stage)) {
                out.note_num(format!("hybrid.{stage}_ms.{band}"), s.p50());
                all.extend(s);
            }
        }
        if !all.is_empty() {
            stage_p50.insert(stage, all.p50());
        }
    }
    let stage_sum: f64 = stage_p50.values().sum();
    let filter_ms = stage_p50.get("filter").copied().unwrap_or(0.0);
    let read_p50 = plain.reads.series(None).p50();
    let unexplained = read_p50 - stage_sum;
    out.note_num("hybrid-search.unexplained_ms", unexplained);

    let new_row = |i: u64| {
        let mut r = product_row(&catalog.products[i as usize % PRODUCTS]);
        r[0] = Value::Int(1 << 40 | i as i64);
        r
    };
    let spec = ProbeSpec {
        db: &db,
        dir,
        server: None,
        table: TABLE,
        new_row: &new_row,
        templates: &["SELECT id, price FROM products WHERE price < $1"],
        hit: (0, vec![Value::Float(qs[1].max_price)]),
        replay: &[],
    };
    let mut p = layers::probe(&spec)?;
    p.rows_in_per_row_out = traced.rows as f64 / traced.passing.max(1) as f64;
    let overhead = traced.reads.series(None).p50() / read_p50;
    layers::push(&mut out, &p, &counters, filter_ms, unexplained, overhead);
    Ok(out)
}
