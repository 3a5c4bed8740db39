//! Property: the optimizer never changes query results.
//!
//! Random plans over random data, executed with every rule enabled, each
//! rule alone, and no rules — all answers must agree.

use backbone_query::optimizer::Rule;
use backbone_query::{
    col, count_star, execute, lit, sum, ExecOptions, LogicalPlan, MemCatalog, Parallelism,
};
use backbone_storage::{DataType, Field, Schema, Table, Value};
use proptest::prelude::*;

/// A small random table of ints/strings driven by proptest input.
fn build_catalog(rows: &[(i64, i64, u8)]) -> MemCatalog {
    let cat = MemCatalog::new();
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64),
        Field::new("b", DataType::Int64),
        Field::new("tag", DataType::Utf8),
    ]);
    let mut t = Table::with_group_size(schema, 16);
    for (a, b, tag) in rows {
        t.append_row(vec![
            Value::Int(*a),
            Value::Int(*b),
            Value::str(format!("t{}", tag % 4)),
        ])
        .unwrap();
    }
    cat.register("t", t);
    // A second table for joins, keyed on b % 8.
    let schema2 = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("w", DataType::Int64),
    ]);
    let mut t2 = Table::with_group_size(schema2, 16);
    for k in 0..8i64 {
        t2.append_row(vec![Value::Int(k), Value::Int(k * 100)])
            .unwrap();
    }
    cat.register("dim", t2);
    cat
}

/// One of several plan shapes chosen by `shape`.
fn build_plan(cat: &MemCatalog, shape: u8, threshold: i64) -> LogicalPlan {
    let scan = LogicalPlan::scan("t", cat).unwrap();
    match shape % 5 {
        0 => scan
            .filter(col("a").lt(lit(threshold)))
            .project(vec![col("a"), col("b").add(lit(1i64)).alias("b1")]),
        1 => scan
            .filter(col("a").lt(lit(threshold)).and(lit(true)))
            .aggregate(
                vec![col("tag")],
                vec![sum(col("b")).alias("s"), count_star().alias("n")],
            )
            .sort(vec![backbone_query::logical::asc(col("tag"))]),
        2 => scan
            .project(vec![
                col("a"),
                col("b").modulo(lit(8i64)).alias("bk"),
                col("tag"),
            ])
            .join_on(LogicalPlan::scan("dim", cat).unwrap(), vec![("bk", "k")])
            .filter(col("a").gt_eq(lit(threshold)).or(col("w").gt(lit(300i64))))
            .aggregate(vec![], vec![count_star().alias("n")]),
        3 => scan
            .filter(col("a").gt(lit(threshold)))
            .sort(vec![
                backbone_query::logical::desc(col("a")),
                backbone_query::logical::asc(col("b")),
                // Total order over all visible columns so top-k ties cannot
                // differ between serial and parallel scans.
                backbone_query::logical::asc(col("tag")),
            ])
            .limit(7),
        _ => scan
            .filter(col("tag").eq(lit("t1")).and(col("b").lt(lit(threshold))))
            .project(vec![col("b")]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimizer_preserves_results(
        rows in proptest::collection::vec((-50i64..50, -50i64..50, 0u8..8), 0..120),
        shape in 0u8..5,
        threshold in -60i64..60,
    ) {
        let cat = build_catalog(&rows);
        let plan = build_plan(&cat, shape, threshold);

        let reference = execute(plan.clone(), &cat, &ExecOptions::unoptimized()).unwrap().to_rows();

        // Every rule alone, and all together.
        let mut rule_sets: Vec<Vec<Rule>> = Rule::all().into_iter().map(|r| vec![r]).collect();
        rule_sets.push(Rule::all());
        for rules in rule_sets {
            let opts = ExecOptions {
                rules: Some(rules.clone()),
                ..ExecOptions::serial()
            };
            let got = execute(plan.clone(), &cat, &opts).unwrap().to_rows();
            prop_assert_eq!(&got, &reference, "rules {:?} changed the answer", rules);
        }

        // And the optimized plan under parallel scans.
        let got = execute(plan, &cat, &ExecOptions::default().parallel(Parallelism::Fixed(3))).unwrap().to_rows();
        // Shapes 0 and 4 are unordered projections: compare as multisets.
        let sorted = |mut v: Vec<Vec<Value>>| { v.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}"))); v };
        prop_assert_eq!(sorted(got), sorted(reference));
    }
}
