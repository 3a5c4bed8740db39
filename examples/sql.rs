//! SQL over the TPC-H-like catalog: the same declarative algebra as the
//! builder API, in text form.
//!
//! ```sh
//! cargo run --release --example sql
//! ```

use backbone_core::Database;
use backbone_workloads::tpch;

fn main() {
    // Load a generated TPC-H-like catalog into a Database.
    println!("generating TPC-H-like data (SF 0.005)...");
    let generated = tpch::generate(0.005, 42);
    let db = Database::new();
    for name in [
        "region", "nation", "supplier", "part", "customer", "orders", "lineitem",
    ] {
        use backbone_query::Catalog;
        let table = generated.table(name).unwrap();
        db.register_table(name, (*table).clone()).unwrap();
    }

    let session = db.session();
    let queries = [
        "SELECT COUNT(*) AS orders, AVG(o_totalprice) AS avg_price FROM orders",
        "SELECT c_mktsegment, COUNT(*) AS customers \
         FROM customer GROUP BY c_mktsegment ORDER BY customers DESC",
        "SELECT n_name, COUNT(*) AS suppliers \
         FROM supplier JOIN nation ON s_nationkey = n_nationkey \
         GROUP BY n_name ORDER BY suppliers DESC LIMIT 5",
        "SELECT o_orderkey, o_totalprice \
         FROM orders WHERE o_totalprice > 20000 AND o_orderdate BETWEEN 100 AND 400 \
         ORDER BY o_totalprice DESC LIMIT 5",
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, COUNT(*) AS n \
         FROM lineitem WHERE l_shipdate <= 2286 \
         GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
    ];

    for q in queries {
        println!("\nsql> {q}");
        match session.sql(q) {
            Ok(batch) => {
                let names: Vec<&str> = batch
                    .schema()
                    .fields()
                    .iter()
                    .map(|f| f.name.as_str())
                    .collect();
                println!("{}", names.join(" | "));
                for i in 0..batch.num_rows().min(10) {
                    let row: Vec<String> = batch.row(i).iter().map(|v| v.to_string()).collect();
                    println!("{}", row.join(" | "));
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }

    // EXPLAIN ANALYZE is SQL too: the optimized plan comes back as rows,
    // annotated with measured per-operator row counts and timings.
    let q = "EXPLAIN ANALYZE SELECT n_name, COUNT(*) AS suppliers \
             FROM supplier JOIN nation ON s_nationkey = n_nationkey \
             GROUP BY n_name ORDER BY suppliers DESC LIMIT 5";
    println!("\nsql> {q}");
    let plan = session.sql(q).expect("explain analyze");
    for i in 0..plan.num_rows() {
        println!("{}", plan.row(i)[0]);
    }
}
