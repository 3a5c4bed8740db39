//! CSV import/export with schema inference.
//!
//! Naumann (§4.6): *"Whoever has recently tried to install a DBMS, create a
//! database and load a few simple CSV files into it knows firsthand:
//! database systems are not the commodity we would like them to be."*
//! `backbone` answers with a one-call loader: header row, automatic type
//! inference (Int64 → Float64 → Bool → Utf8, widening per column), quoted
//! fields, and NULLs for empty cells.

use crate::database::Database;
use crate::error::{Error, Result};
use backbone_storage::{DataType, Field, Schema, Value};

/// Parse one CSV line into fields, honouring double quotes and `""` escapes.
fn split_line(line: &str) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' if cur.is_empty() => in_quotes = true,
            '"' => {
                return Err(Error::InvalidInput(
                    "CSV: quote in the middle of an unquoted field".into(),
                ))
            }
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    if in_quotes {
        return Err(Error::InvalidInput("CSV: unterminated quoted field".into()));
    }
    fields.push(cur);
    Ok(fields)
}

/// The narrowest type that can represent every non-empty cell of a column.
fn infer_type(cells: &[&str]) -> DataType {
    let mut ty = DataType::Int64;
    let mut saw_value = false;
    for c in cells {
        if c.is_empty() {
            continue;
        }
        saw_value = true;
        ty = match ty {
            DataType::Int64 if c.parse::<i64>().is_ok() => DataType::Int64,
            DataType::Int64 | DataType::Float64 if c.parse::<f64>().is_ok() => DataType::Float64,
            DataType::Int64 | DataType::Float64 | DataType::Bool
                if c.eq_ignore_ascii_case("true") || c.eq_ignore_ascii_case("false") =>
            {
                // Only stay Bool if we were never numeric.
                if ty == DataType::Bool || !saw_numeric(cells) {
                    DataType::Bool
                } else {
                    DataType::Utf8
                }
            }
            _ => DataType::Utf8,
        };
        if ty == DataType::Utf8 {
            break;
        }
    }
    if saw_value {
        ty
    } else {
        DataType::Utf8
    }
}

fn saw_numeric(cells: &[&str]) -> bool {
    cells
        .iter()
        .any(|c| !c.is_empty() && c.parse::<f64>().is_ok())
}

fn parse_cell(cell: &str, ty: DataType) -> Result<Value> {
    if cell.is_empty() {
        return Ok(Value::Null);
    }
    Ok(match ty {
        DataType::Int64 => Value::Int(
            cell.parse::<i64>()
                .map_err(|_| Error::InvalidInput(format!("CSV: '{cell}' is not an integer")))?,
        ),
        DataType::Float64 => Value::Float(
            cell.parse::<f64>()
                .map_err(|_| Error::InvalidInput(format!("CSV: '{cell}' is not a number")))?,
        ),
        DataType::Bool => Value::Bool(cell.eq_ignore_ascii_case("true")),
        DataType::Utf8 => Value::str(cell),
    })
}

impl Database {
    /// Create table `name` from CSV text with a header row, inferring the
    /// schema from the data. Empty cells load as NULL. Returns the number
    /// of rows loaded.
    pub fn load_csv(&self, name: &str, csv: &str) -> Result<usize> {
        let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| Error::InvalidInput("CSV: empty input".into()))?;
        let columns = split_line(header)?;
        if columns.iter().any(|c| c.trim().is_empty()) {
            return Err(Error::InvalidInput(
                "CSV: blank column name in header".into(),
            ));
        }
        let rows: Vec<Vec<String>> = lines.map(split_line).collect::<Result<_>>()?;
        for (i, r) in rows.iter().enumerate() {
            if r.len() != columns.len() {
                return Err(Error::InvalidInput(format!(
                    "CSV: row {} has {} fields, header has {}",
                    i + 2,
                    r.len(),
                    columns.len()
                )));
            }
        }
        // Infer per-column types.
        let mut fields = Vec::with_capacity(columns.len());
        for (c, colname) in columns.iter().enumerate() {
            let cells: Vec<&str> = rows.iter().map(|r| r[c].as_str()).collect();
            fields.push(Field::nullable(colname.trim(), infer_type(&cells)));
        }
        let schema = Schema::new(fields);
        self.create_table(name, schema.clone())?;
        let values: Vec<Vec<Value>> = rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(c, cell)| parse_cell(cell, schema.field(c).data_type))
                    .collect::<Result<Vec<_>>>()
            })
            .collect::<Result<_>>()?;
        let n = values.len();
        self.insert(name, values)?;
        Ok(n)
    }

    /// Export a table as CSV text with a header row. NULLs export as empty
    /// cells; strings containing commas/quotes/newlines are quoted.
    pub fn to_csv(&self, name: &str) -> Result<String> {
        let batch = self.table_batch(name)?;
        let mut out = String::new();
        let names: Vec<String> = batch
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        out.push_str(&names.join(","));
        out.push('\n');
        for i in 0..batch.num_rows() {
            let cells: Vec<String> = batch
                .row(i)
                .iter()
                .map(|v| match v {
                    Value::Null => String::new(),
                    Value::Str(s) => {
                        if s.contains([',', '"', '\n']) {
                            format!("\"{}\"", s.replace('"', "\"\""))
                        } else {
                            s.to_string()
                        }
                    }
                    other => other.to_string(),
                })
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backbone_query::{col, lit};

    #[test]
    fn loads_and_infers_types() {
        let db = Database::new();
        let n = db
            .load_csv(
                "people",
                "name,age,score,active\nann,34,9.5,true\nbob,28,7.25,false\n",
            )
            .unwrap();
        assert_eq!(n, 2);
        let batch = db.table_batch("people").unwrap();
        let s = batch.schema();
        assert_eq!(s.field_by_name("name").unwrap().data_type, DataType::Utf8);
        assert_eq!(s.field_by_name("age").unwrap().data_type, DataType::Int64);
        assert_eq!(
            s.field_by_name("score").unwrap().data_type,
            DataType::Float64
        );
        assert_eq!(s.field_by_name("active").unwrap().data_type, DataType::Bool);
        // And it is queryable straight away.
        let session = db.session();
        let plan = session
            .query("people")
            .unwrap()
            .filter(col("age").gt(lit(30i64)));
        let out = session.execute(plan).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn ints_widen_to_float() {
        let db = Database::new();
        db.load_csv("t", "x\n1\n2.5\n3\n").unwrap();
        let batch = db.table_batch("t").unwrap();
        assert_eq!(batch.schema().field(0).data_type, DataType::Float64);
        assert_eq!(batch.row(0)[0], Value::Float(1.0));
    }

    #[test]
    fn empty_cells_become_null() {
        let db = Database::new();
        db.load_csv("t", "a,b\n1,\n,x\n").unwrap();
        let batch = db.table_batch("t").unwrap();
        assert!(batch.row(0)[1].is_null());
        assert!(batch.row(1)[0].is_null());
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let db = Database::new();
        db.load_csv("t", "msg\n\"hello, world\"\n\"say \"\"hi\"\"\"\n")
            .unwrap();
        let batch = db.table_batch("t").unwrap();
        assert_eq!(batch.row(0)[0], Value::str("hello, world"));
        assert_eq!(batch.row(1)[0], Value::str("say \"hi\""));
    }

    #[test]
    fn roundtrip() {
        let db = Database::new();
        db.load_csv("t", "a,b,c\n1,x,2.5\n2,\"y,z\",\n").unwrap();
        let csv = db.to_csv("t").unwrap();
        let db2 = Database::new();
        db2.load_csv("t", &csv).unwrap();
        assert_eq!(
            db.table_batch("t").unwrap().to_rows(),
            db2.table_batch("t").unwrap().to_rows()
        );
    }

    #[test]
    fn malformed_inputs_rejected() {
        let db = Database::new();
        assert!(db.load_csv("a", "").is_err());
        assert!(db.load_csv("b", "x,y\n1\n").is_err()); // ragged row
        assert!(db.load_csv("c", "x\n\"unterminated\n").is_err());
        assert!(db.load_csv("d", ",\n1,2\n").is_err()); // blank header
    }

    #[test]
    fn all_empty_column_is_utf8() {
        let db = Database::new();
        db.load_csv("t", "a,b\n1,\n2,\n").unwrap();
        let batch = db.table_batch("t").unwrap();
        assert_eq!(batch.schema().field(1).data_type, DataType::Utf8);
    }
}
