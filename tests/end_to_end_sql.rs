//! End-to-end correctness: the whole declarative stack against
//! hand-computed truths on generated data.

use backbone_query::logical::{asc, desc};
use backbone_query::{
    avg, col, count_star, execute, lit, max, min, sum, Catalog, ExecOptions, LogicalPlan,
    Parallelism,
};
use backbone_storage::Value;
use backbone_workloads::tpch;

fn catalog() -> backbone_query::MemCatalog {
    tpch::generate(0.003, 99)
}

#[test]
fn count_star_matches_table_size() {
    let cat = catalog();
    for table in ["customer", "orders", "lineitem", "nation"] {
        let plan = LogicalPlan::scan(table, &cat)
            .unwrap()
            .aggregate(vec![], vec![count_star().alias("n")]);
        let out = execute(plan, &cat, &ExecOptions::default()).unwrap();
        assert_eq!(
            out.row(0)[0],
            Value::Int(cat.table(table).unwrap().num_rows() as i64),
            "table {table}"
        );
    }
}

#[test]
fn filter_count_matches_manual_scan() {
    let cat = catalog();
    let date = 1200i64;
    let plan = LogicalPlan::scan("orders", &cat)
        .unwrap()
        .filter(col("o_orderdate").lt(lit(date)))
        .aggregate(vec![], vec![count_star().alias("n")]);
    let out = execute(plan, &cat, &ExecOptions::default()).unwrap();

    let orders = cat.table("orders").unwrap().to_batch().unwrap();
    let col_date = orders.column_by_name("o_orderdate").unwrap();
    let manual = (0..orders.num_rows())
        .filter(|&i| col_date.value(i).as_int().unwrap() < date)
        .count();
    assert_eq!(out.row(0)[0], Value::Int(manual as i64));
}

#[test]
fn join_fanout_matches_manual() {
    let cat = catalog();
    // customer ⋈ orders: one row per order (every o_custkey exists).
    let plan = LogicalPlan::scan("customer", &cat)
        .unwrap()
        .join_on(
            LogicalPlan::scan("orders", &cat).unwrap(),
            vec![("c_custkey", "o_custkey")],
        )
        .aggregate(vec![], vec![count_star().alias("n")]);
    let out = execute(plan, &cat, &ExecOptions::default()).unwrap();
    assert_eq!(
        out.row(0)[0],
        Value::Int(cat.table("orders").unwrap().num_rows() as i64)
    );
}

#[test]
fn group_by_nation_balances() {
    let cat = catalog();
    // Counting customers per nation must sum to all customers.
    let plan = LogicalPlan::scan("customer", &cat)
        .unwrap()
        .aggregate(vec![col("c_nationkey")], vec![count_star().alias("n")]);
    let out = execute(plan, &cat, &ExecOptions::default()).unwrap();
    let total: i64 = (0..out.num_rows())
        .map(|i| out.row(i)[1].as_int().unwrap())
        .sum();
    assert_eq!(total, cat.table("customer").unwrap().num_rows() as i64);
    assert!(out.num_rows() <= 25);
}

#[test]
fn aggregates_agree_with_manual_math() {
    let cat = catalog();
    let plan = LogicalPlan::scan("lineitem", &cat).unwrap().aggregate(
        vec![],
        vec![
            sum(col("l_quantity")).alias("s"),
            avg(col("l_quantity")).alias("a"),
            min(col("l_quantity")).alias("lo"),
            max(col("l_quantity")).alias("hi"),
            count_star().alias("n"),
        ],
    );
    let out = execute(plan, &cat, &ExecOptions::default()).unwrap();
    let li = cat.table("lineitem").unwrap().to_batch().unwrap();
    let q = li.column_by_name("l_quantity").unwrap();
    let vals: Vec<f64> = (0..li.num_rows())
        .map(|i| q.value(i).as_float().unwrap())
        .collect();
    let s: f64 = vals.iter().sum();
    let row = out.row(0);
    assert!((row[0].as_float().unwrap() - s).abs() < 1e-6);
    assert!((row[1].as_float().unwrap() - s / vals.len() as f64).abs() < 1e-9);
    assert_eq!(
        row[2].as_float().unwrap(),
        vals.iter().cloned().fold(f64::MAX, f64::min)
    );
    assert_eq!(
        row[3].as_float().unwrap(),
        vals.iter().cloned().fold(f64::MIN, f64::max)
    );
    assert_eq!(row[4], Value::Int(vals.len() as i64));
}

#[test]
fn sort_limit_topk_consistency() {
    let cat = catalog();
    let make = || {
        LogicalPlan::scan("orders", &cat)
            .unwrap()
            .sort(vec![desc(col("o_totalprice")), asc(col("o_orderkey"))])
    };
    // TopK (fused) against the prefix of the full sort.
    let top5 = execute(make().limit(5), &cat, &ExecOptions::default()).unwrap();
    let full = execute(make(), &cat, &ExecOptions::default()).unwrap();
    assert_eq!(top5.to_rows(), full.slice(0, 5).unwrap().to_rows());
}

#[test]
fn parallel_scans_agree_with_serial_across_queries() {
    let cat = catalog();
    for (name, plan) in backbone_workloads::queries::all_queries(&cat).unwrap() {
        let a = execute(plan.clone(), &cat, &ExecOptions::default()).unwrap();
        let b = execute(
            plan,
            &cat,
            &ExecOptions::default().parallel(Parallelism::Fixed(4)),
        )
        .unwrap();
        // Aggregated outputs are order-stable for Q1/Q3/Q5 (sorted) and a
        // single row for Q6; compare with float tolerance.
        let ra = a.to_rows();
        let rb = b.to_rows();
        assert_eq!(ra.len(), rb.len(), "{name}");
        for (x, y) in ra.iter().zip(&rb) {
            for (vx, vy) in x.iter().zip(y) {
                match (vx.as_float(), vy.as_float()) {
                    (Some(fx), Some(fy)) => {
                        assert!(
                            (fx - fy).abs() < 1e-6 * fx.abs().max(1.0),
                            "{name}: {fx} vs {fy}"
                        )
                    }
                    _ => assert_eq!(vx, vy, "{name}"),
                }
            }
        }
    }
}

#[test]
fn left_join_preserves_unmatched_probe_rows() {
    let cat = catalog();
    // nation LEFT JOIN region on a key we offset so nothing matches.
    let plan = LogicalPlan::scan("nation", &cat)
        .unwrap()
        .project(vec![
            col("n_nationkey"),
            col("n_regionkey").add(lit(100i64)).alias("shifted"),
        ])
        .join(
            LogicalPlan::scan("region", &cat).unwrap(),
            vec![("shifted", "r_regionkey")],
            backbone_query::JoinType::Left,
        );
    let out = execute(plan, &cat, &ExecOptions::default()).unwrap();
    assert_eq!(out.num_rows(), 25);
    let rname = out.column_by_name("r_name").unwrap();
    for i in 0..out.num_rows() {
        assert!(rname.value(i).is_null());
    }
}

#[test]
fn explain_is_stable_and_informative() {
    let cat = catalog();
    let plan = backbone_workloads::queries::q5(&cat, "ASIA", 730, 1095).unwrap();
    let text = backbone_query::executor::explain(&plan, &cat, &ExecOptions::default()).unwrap();
    assert!(text.contains("Scan: region"));
    assert!(text.contains("Join"));
    // Pushdown happened: at least one scan carries a filter.
    assert!(text.contains("filters="), "no pushdown in:\n{text}");
}

#[test]
fn explain_analyze_q3_reports_per_operator_truth() {
    let cat = catalog();
    let plan = backbone_workloads::queries::q3(&cat, "BUILDING", 1100).unwrap();
    let (report, result) =
        backbone_query::explain_analyze(&plan, &cat, &ExecOptions::default()).unwrap();

    // The header carries the measured total: actual row count and wall time.
    assert!(result.num_rows() <= 10);
    assert!(
        report.contains(&format!("actual {} rows", result.num_rows())),
        "header disagrees with result:\n{report}"
    );

    // Q3's shape survives into the physical plan: three scans, two hash
    // joins, one aggregation.
    for op in ["TableScan", "HashJoin", "HashAggregate"] {
        assert!(report.contains(op), "missing {op} in:\n{report}");
    }

    // Every operator line is annotated with measured rows and elapsed time.
    let annotated: Vec<&str> = report.lines().filter(|l| l.contains("rows_out=")).collect();
    assert!(
        annotated.len() >= 6,
        "expected >= 6 annotated operators:\n{report}"
    );
    for line in &annotated {
        assert!(line.contains("time="), "untimed operator line: {line}");
        // Leaves (scans) have no plan inputs; everything else reports
        // consumed rows too.
        assert!(
            line.contains("rows_in=") || line.contains("TableScan"),
            "unannotated operator line: {line}"
        );
    }
    assert!(
        report.contains("rows_in="),
        "no operator reported rows_in:\n{report}"
    );

    // Engine truth: the root operator's measured output is the result size.
    let rows_out = |line: &str| -> u64 {
        let tail = &line[line.find("rows_out=").unwrap() + "rows_out=".len()..];
        tail.chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    };
    assert_eq!(rows_out(annotated[0]), result.num_rows() as u64);
}

#[test]
fn fifty_random_filter_queries_match_model() {
    // Randomized differential test: engine vs a naive row-loop model.
    use rand::prelude::*;
    let cat = catalog();
    let orders = cat.table("orders").unwrap().to_batch().unwrap();
    let dates: Vec<i64> = {
        let c = orders.column_by_name("o_orderdate").unwrap();
        (0..orders.num_rows())
            .map(|i| c.value(i).as_int().unwrap())
            .collect()
    };
    let prices: Vec<f64> = {
        let c = orders.column_by_name("o_totalprice").unwrap();
        (0..orders.num_rows())
            .map(|i| c.value(i).as_float().unwrap())
            .collect()
    };
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..50 {
        let d = rng.gen_range(0..2400i64);
        let p = rng.gen_range(0.0..300_000.0f64);
        let plan = LogicalPlan::scan("orders", &cat)
            .unwrap()
            .filter(
                col("o_orderdate")
                    .gt_eq(lit(d))
                    .and(col("o_totalprice").lt(lit(p))),
            )
            .aggregate(vec![], vec![count_star().alias("n")]);
        let out = execute(plan, &cat, &ExecOptions::default()).unwrap();
        let expected = dates
            .iter()
            .zip(&prices)
            .filter(|&(&dd, &pp)| dd >= d && pp < p)
            .count();
        assert_eq!(out.row(0)[0], Value::Int(expected as i64), "d={d} p={p}");
    }
}
