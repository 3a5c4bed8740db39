//! E1 — "a MacBook can comfortably run TPC-H scale factor 1000: 'small
//! data' is enough for most applications."
//!
//! We run the TPC-H-like queries at laptop-scale factors, fit the observed
//! linear scaling, and extrapolate to SF 1000. The claim's shape holds if
//! per-query latencies scale linearly and the SF-1000 extrapolation stays
//! in interactive-to-minutes territory on one machine.

use crate::time;
use backbone_query::{execute, Catalog, ExecOptions, MemCatalog, Parallelism};
use backbone_storage::Metrics;
use backbone_workloads::{queries, tpch};

/// One measured cell: query at a scale factor.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Scale factor.
    pub sf: f64,
    /// Query label.
    pub query: &'static str,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Result rows.
    pub rows: usize,
    /// `lineitem` rows at this SF.
    pub lineitem_rows: usize,
    /// `op.*.kernel.*` counters captured during the measured run.
    pub kernels: Vec<(String, u64)>,
}

/// Run every query at every scale factor.
pub fn run(sfs: &[f64], parallelism: Parallelism, seed: u64) -> Vec<E1Row> {
    let mut out = Vec::new();
    for &sf in sfs {
        let catalog: MemCatalog = tpch::generate(sf, seed);
        let lineitem_rows = catalog.table("lineitem").map(|t| t.num_rows()).unwrap_or(0);
        let metrics = Metrics::new();
        let opts = ExecOptions::default()
            .parallel(parallelism)
            .with_metrics(metrics.clone());
        for (label, plan) in queries::all_queries(&catalog).expect("query build") {
            // One warmup, then the measured run with a clean registry.
            let _ = execute(plan.clone(), &catalog, &opts);
            metrics.reset();
            let (result, seconds) = time(|| execute(plan, &catalog, &opts).expect("query run"));
            let kernels: Vec<(String, u64)> = metrics
                .snapshot()
                .into_iter()
                .filter(|(k, v)| k.starts_with("op.") && k.contains(".kernel.") && *v > 0)
                .collect();
            out.push(E1Row {
                sf,
                query: label,
                seconds,
                rows: result.num_rows(),
                lineitem_rows,
                kernels,
            });
        }
    }
    out
}

/// Least-squares linear fit `seconds ≈ a * sf + b` per query, extrapolated
/// to the target scale factor. Returns `(query, projected_seconds)`.
pub fn extrapolate(rows: &[E1Row], target_sf: f64) -> Vec<(&'static str, f64)> {
    let mut queries: Vec<&'static str> = Vec::new();
    for r in rows {
        if !queries.contains(&r.query) {
            queries.push(r.query);
        }
    }
    queries
        .into_iter()
        .map(|q| {
            let pts: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r.query == q)
                .map(|r| (r.sf, r.seconds))
                .collect();
            let n = pts.len() as f64;
            let sx: f64 = pts.iter().map(|p| p.0).sum();
            let sy: f64 = pts.iter().map(|p| p.1).sum();
            let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
            let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
            let denom = n * sxx - sx * sx;
            let (a, b) = if denom.abs() < 1e-12 {
                (0.0, sy / n)
            } else {
                let a = (n * sxy - sx * sy) / denom;
                ((n * sxy - sx * sy) / denom, (sy - a * sx) / n)
            };
            (q, (a * target_sf + b).max(0.0))
        })
        .collect()
}

/// Print the experiment's table.
pub fn report(sfs: &[f64], parallelism: Parallelism, seed: u64) -> String {
    let rows = run(sfs, parallelism, seed);
    let mut out = String::new();
    out.push_str("E1: TPC-H-like analytics at laptop scale\n");
    out.push_str("claim: \"a MacBook can comfortably run TPC-H scale factor 1000\"\n\n");
    out.push_str(&format!(
        "{:>8} {:>6} {:>12} {:>12} {:>10}\n",
        "SF", "query", "lineitem", "latency(ms)", "rows"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:>8} {:>6} {:>12} {:>12.2} {:>10}\n",
            r.sf,
            r.query,
            r.lineitem_rows,
            r.seconds * 1000.0,
            r.rows
        ));
    }
    if let Some(max_sf) = rows.iter().map(|r| r.sf).fold(None, |m: Option<f64>, s| {
        Some(m.map_or(s, |m| if s > m { s } else { m }))
    }) {
        out.push_str(&format!(
            "\nkernel timings at SF {max_sf} (engine truth):\n"
        ));
        for r in rows.iter().filter(|r| r.sf == max_sf) {
            out.push_str(&format!("  {}:\n", r.query));
            for (name, v) in &r.kernels {
                if name.ends_with("_ns") {
                    out.push_str(&format!("    {name:<34} {:>9.2} ms\n", *v as f64 / 1e6));
                } else {
                    out.push_str(&format!("    {name:<34} {v:>9}\n"));
                }
            }
        }
    }
    out.push_str("\nlinear extrapolation to SF 1000 (single machine):\n");
    for (q, secs) in extrapolate(&rows, 1000.0) {
        out.push_str(&format!("  {q}: ~{secs:.1} s\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_scales() {
        let rows = run(&[0.001, 0.002], Parallelism::Serial, 3);
        assert_eq!(rows.len(), 8); // 4 queries x 2 SFs
        assert!(rows.iter().all(|r| r.seconds >= 0.0));
    }

    #[test]
    fn extrapolation_monotone_for_growing_latency() {
        let rows = vec![
            E1Row {
                sf: 1.0,
                query: "Q1",
                seconds: 1.0,
                rows: 1,
                lineitem_rows: 0,
                kernels: vec![],
            },
            E1Row {
                sf: 2.0,
                query: "Q1",
                seconds: 2.0,
                rows: 1,
                lineitem_rows: 0,
                kernels: vec![],
            },
        ];
        let x = extrapolate(&rows, 10.0);
        assert_eq!(x.len(), 1);
        assert!((x[0].1 - 10.0).abs() < 1e-9);
    }
}
