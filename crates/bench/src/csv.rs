//! Minimal CSV writing for machine-readable experiment output.
//!
//! Every figure prints human-readable tables to stdout; given a record
//! directory (`figures --out`), campaign figures additionally drop CSV
//! series there for plotting. Quoting follows RFC 4180 for the small
//! subset needed (fields containing commas, quotes or newlines).

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

    /// Writes the table as the record `<dir>/<name>.csv`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        write_record(dir, &format!("{name}.csv"), &self.to_csv())
    }
}

/// Writes the record `<dir>/<file>`, creating `dir` as needed, and returns
/// its path. The write goes through [`simkit::wire::atomic_write`], so a
/// kill or a full disk mid-write leaves the previous record intact.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_record(dir: &Path, file: &str, contents: &str) -> std::io::Result<PathBuf> {
    let path = dir.join(file);
    simkit::wire::atomic_write(&path, contents.as_bytes())?;
    Ok(path)
}

/// Formats a float with enough digits for replotting.
#[must_use]
pub fn num(v: f64) -> String {
    format!("{v:.6}")
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
        let dir = std::env::temp_dir()
            .join(format!("spark_moe_csv_{}", std::process::id()))
            .join("nested");
        let mut t = CsvTable::new(["x"]);
        t.push([num(1.5)]);
        let path = t.write_to(&dir, "probe").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x\n1.500000\n");
        t.push([num(2.0)]);
        t.write_to(&dir, "probe").unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "x\n1.500000\n2.000000\n"
        );
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }
}
