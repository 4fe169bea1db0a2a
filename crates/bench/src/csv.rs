//! Minimal CSV writing for machine-readable experiment output.
//!
//! Every figure binary prints human-readable tables to stdout; with
//! `SPARK_MOE_CSV_DIR=<dir>` set, campaign binaries additionally drop CSV
//! series there for plotting. Quoting follows RFC 4180 for the small
//! subset needed (fields containing commas, quotes or newlines).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A CSV table under construction.
#[derive(Debug, Clone)]
pub struct CsvTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Starts a table with the given column names.
    #[must_use]
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        CsvTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header.
    pub fn push<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders to CSV text.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            for (i, field) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&escape(field));
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Writes the table as `<dir>/<name>.csv` via an atomic
    /// temp-file-then-rename ([`crate::fsutil::atomic_write_in`]), so a kill
    /// mid-write never leaves a truncated series behind.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        crate::fsutil::atomic_write_in(dir, &format!("{name}.csv"), &self.to_csv())
    }
}

/// Formats a float with enough digits for replotting.
#[must_use]
pub fn num(v: f64) -> String {
    let mut s = String::new();
    let _ = write!(s, "{v:.6}");
    s
}

/// The CSV output directory from `SPARK_MOE_CSV_DIR`, if configured.
#[must_use]
pub fn csv_dir() -> Option<PathBuf> {
    std::env::var_os("SPARK_MOE_CSV_DIR").map(PathBuf::from)
}

fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_simple_tables() {
        let mut t = CsvTable::new(["scenario", "stp"]);
        t.push(["L1", "1.94"]);
        t.push(["L10", "13.46"]);
        assert_eq!(t.to_csv(), "scenario,stp\nL1,1.94\nL10,13.46\n");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn escapes_delimiters_and_quotes() {
        let mut t = CsvTable::new(["name"]);
        t.push(["a,b"]);
        t.push(["say \"hi\""]);
        assert_eq!(t.to_csv(), "name\n\"a,b\"\n\"say \"\"hi\"\"\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = CsvTable::new(["a", "b"]);
        t.push(["only one"]);
    }

    #[test]
    fn writes_files() {
        let dir = std::env::temp_dir().join("spark_moe_csv_test");
        let mut t = CsvTable::new(["x"]);
        t.push([num(1.5)]);
        let path = t.write_to(&dir, "probe").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("1.500000"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
