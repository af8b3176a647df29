#![warn(missing_docs)]

//! Experiment harness shared by the figure/table regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a binary under
//! `src/bin/` that regenerates it: the binary prints the series the paper
//! plots (aligned, human-readable) and writes the same data as CSV under
//! `results/`. Run them all with `cargo run -p ipso-bench --bin
//! all_experiments --release`.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2_taxonomy_fixed_time` | Fig. 2 — fixed-time taxonomy curves |
//! | `fig3_taxonomy_fixed_size` | Fig. 3 — fixed-size taxonomy curves |
//! | `fig4_mapreduce_speedups` | Fig. 4 — measured vs Gustafson, 4 jobs |
//! | `fig5_terasort_stepwise` | Fig. 5 — TeraSort step-wise `IN(n)` |
//! | `fig6_scaling_factors` | Fig. 6 — `EX(n)`, `IN(n)` fits |
//! | `fig7_ipso_prediction` | Fig. 7 — IPSO vs measured vs Gustafson |
//! | `table1_collab_filtering` | Table I — CF workload measurements |
//! | `fig8_collab_filtering` | Fig. 8 — CF workload fits and speedups |
//! | `fig9_spark_fixed_time` | Fig. 9 — Spark fixed-time dimension |
//! | `fig10_spark_fixed_size` | Fig. 10 — Spark fixed-size dimension |
//! | `provisioning_tradeoffs` | §I/§VI — speedup-versus-cost analysis |

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

pub mod parallel;

pub use parallel::{jobs_from_args, PointCtx, SweepCase, SweepFn, SweepRunner};

use ipso_workloads::{qmc, sort, terasort, wordcount};

/// The paper's four MapReduce cases (Figs. 4, 6 and 7), by name.
pub const MAPREDUCE_CASES: [(&str, SweepFn); 4] = [
    ("qmc", qmc::sweep),
    ("wordcount", wordcount::sweep),
    ("sort", sort::sweep),
    ("terasort", terasort::sweep),
];

/// Where experiment CSVs are written: `<workspace>/results/`.
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    fs::create_dir_all(&dir).expect("cannot create results directory");
    dir
}

/// Locates the workspace root by walking up from this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels down")
        .to_path_buf()
}

/// A rectangular experiment result: named columns plus rows of numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment identifier (`fig4-sort`, `table1`, …).
    pub name: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; each must match `columns` in length.
    pub rows: Vec<Vec<f64>>,
}

impl Table {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    pub fn new(name: &str, columns: &[&str]) -> Table {
        assert!(!columns.is_empty(), "a table needs columns");
        Table {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders an aligned, human-readable table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|v| format_number(*v)).collect())
            .collect();
        for row in &cells {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.name));
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        for row in &cells {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Writes the table as `results/<name>.csv` and returns the path.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (experiment binaries want loud failures).
    pub fn write_csv(&self) -> PathBuf {
        let path = results_dir().join(format!("{}.csv", self.name));
        let mut f = fs::File::create(&path).expect("cannot create CSV");
        writeln!(f, "{}", self.columns.join(",")).expect("csv write failed");
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(|v| format_number(*v)).collect();
            writeln!(f, "{}", line.join(",")).expect("csv write failed");
        }
        path
    }

    /// Prints the table and writes the CSV — what every binary does.
    pub fn emit(&self) {
        print!("{}", self.render());
        let path = self.write_csv();
        println!("-> {}\n", path.display());
    }

    /// Column index by name.
    ///
    /// # Panics
    ///
    /// Panics if the column does not exist.
    pub fn column(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column {name:?} in table {}", self.name))
    }

    /// All values of one column.
    pub fn values(&self, name: &str) -> Vec<f64> {
        let idx = self.column(name);
        self.rows.iter().map(|r| r[idx]).collect()
    }
}

/// The experiment binaries' shared `--trace-out FILE` support.
///
/// `main` wraps its body as `trace_out_from_env().run(body)`. With the
/// flag, the body runs inside one [`ipso_obs::capture`] and its spans
/// are written as a Chrome trace-event (Perfetto) file; without it the
/// body just runs.
#[derive(Debug)]
#[must_use = "call run() with the body of main"]
pub struct TraceOut {
    path: Option<PathBuf>,
}

/// Parses `--trace-out FILE` (or `--trace-out=FILE`) from the process
/// arguments.
pub fn trace_out_from_env() -> TraceOut {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == "--trace-out" && i + 1 < raw.len() {
            path = Some(PathBuf::from(&raw[i + 1]));
            i += 2;
        } else if let Some(p) = raw[i].strip_prefix("--trace-out=") {
            path = Some(PathBuf::from(p));
            i += 1;
        } else {
            i += 1;
        }
    }
    TraceOut { path }
}

impl TraceOut {
    /// Runs `body`, tracing it when `--trace-out` was given, and then
    /// writes the timeline it recorded.
    ///
    /// # Panics
    ///
    /// Panics if the output file cannot be written (experiment binaries
    /// want loud failures).
    pub fn run<R>(self, body: impl FnOnce() -> R) -> R {
        let Some(path) = self.path else {
            return body();
        };
        let (result, records) = ipso_obs::capture(body);
        let events = records.into_events();
        ipso_obs::write_chrome_trace(&path, &events).expect("cannot write --trace-out file");
        println!(
            "{} trace events -> {} (open in https://ui.perfetto.dev)",
            events.len(),
            path.display()
        );
        result
    }
}

fn format_number(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 || v.fract() == 0.0 && v.abs() < 1e9 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["n", "speedup"]);
        t.push(vec![1.0, 1.0]);
        t.push(vec![128.0, 20.5]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("n  speedup"));
        assert!(text.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(vec![1.0]);
    }

    #[test]
    fn column_lookup() {
        let mut t = Table::new("x", &["n", "s"]);
        t.push(vec![2.0, 3.0]);
        assert_eq!(t.column("s"), 1);
        assert_eq!(t.values("n"), vec![2.0]);
    }

    #[test]
    fn number_formats() {
        assert_eq!(format_number(0.0), "0");
        assert_eq!(format_number(5.0), "5");
        assert_eq!(format_number(3.25), "3.250");
        assert_eq!(format_number(0.0061), "0.00610");
        // Banker's rounding of {:.0}.
        assert_eq!(format_number(1602.5), "1602");
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let mut t = Table::new("unit-test-csv", &["a", "b"]);
        t.push(vec![1.0, 2.0]);
        let path = t.write_csv();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.starts_with("a,b\n1,2\n"));
        std::fs::remove_file(path).ok();
    }
}
