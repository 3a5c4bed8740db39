//! Quickstart: create a database, load rows, run declarative queries.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use backbone_core::Database;
use backbone_query::logical::desc;
use backbone_query::{avg, col, count_star, lit, sum};
use backbone_storage::{DataType, Field, Schema, Value};

fn main() {
    // 1. A database and a table.
    let db = Database::new();
    db.create_table(
        "sales",
        Schema::new(vec![
            Field::new("region", DataType::Utf8),
            Field::new("product", DataType::Utf8),
            Field::new("units", DataType::Int64),
            Field::new("price", DataType::Float64),
        ]),
    )
    .expect("create table");

    // 2. Some rows.
    let regions = ["north", "south", "east", "west"];
    let products = ["widget", "gadget", "gizmo"];
    let mut rows = Vec::new();
    for i in 0..1000i64 {
        rows.push(vec![
            Value::str(regions[(i % 4) as usize]),
            Value::str(products[(i % 3) as usize]),
            Value::Int(1 + i % 17),
            Value::Float(9.99 + (i % 50) as f64),
        ]);
    }
    db.insert("sales", rows).expect("insert");

    // 3. A declarative query: revenue per region for widgets, best first.
    //    Every read goes through a session.
    let session = db.session();
    let plan = session
        .query("sales")
        .expect("scan")
        .filter(col("product").eq(lit("widget")))
        .aggregate(
            vec![col("region")],
            vec![
                sum(col("units").mul(col("price"))).alias("revenue"),
                avg(col("units")).alias("avg_units"),
                count_star().alias("orders"),
            ],
        )
        .sort(vec![desc(col("revenue"))]);

    // 4. EXPLAIN ANALYZE runs the plan instrumented: the optimized tree
    //    annotated with measured per-operator rows and elapsed time.
    let (report, out) = session.explain_analyze(&plan).expect("explain analyze");
    println!("{report}");

    // 5. Print the result.
    println!(
        "{:>8} {:>12} {:>10} {:>8}",
        "region", "revenue", "avg_units", "orders"
    );
    for i in 0..out.num_rows() {
        let row = out.row(i);
        println!(
            "{:>8} {:>12.2} {:>10.2} {:>8}",
            row[0],
            row[1].as_float().unwrap_or(0.0),
            row[2].as_float().unwrap_or(0.0),
            row[3]
        );
    }

    // 6. The database's shared metrics registry accumulated the operator
    //    totals along the way (`op.*` counters survive across queries).
    println!("\nmetrics:");
    print!("{}", db.metrics().render());
}
