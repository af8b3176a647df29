//! Golden fingerprints: the exact bits of every point's measurement at
//! the default seed, and the committed figure CSVs they must reproduce.
//!
//! A golden file holds one line per point: its label, then each measured
//! value as the 16 hex digits of `f64::to_bits`.

use std::collections::BTreeMap;

use ipso_bench::Table;

/// Golden fingerprints by point label.
pub type Golden = BTreeMap<String, Vec<u64>>;

/// One golden line for `values` under `label`.
pub fn line(label: &str, values: &[f64]) -> String {
    let bits: Vec<String> = values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect();
    format!("{label} {}", bits.join(" "))
}

/// Parses a golden file.
///
/// # Errors
///
/// Returns the first malformed or duplicated line.
pub fn parse(text: &str) -> Result<Golden, String> {
    let mut out = Golden::new();
    for (i, raw) in text.lines().enumerate() {
        let mut fields = raw.split_whitespace();
        let Some(label) = fields.next() else { continue };
        let bits = fields
            .map(|f| u64::from_str_radix(f, 16).map_err(|e| format!("line {}: {e}", i + 1)))
            .collect::<Result<Vec<u64>, String>>()?;
        if bits.is_empty() {
            return Err(format!("line {}: no values for {label}", i + 1));
        }
        if out.insert(label.to_string(), bits).is_some() {
            return Err(format!("line {}: duplicate label {label}", i + 1));
        }
    }
    Ok(out)
}

/// Checks `values` against the golden bits of `label`.
///
/// # Errors
///
/// Names the first differing value.
pub fn check(golden: &Golden, label: &str, values: &[f64]) -> Result<(), String> {
    let want = golden
        .get(label)
        .ok_or_else(|| "no golden fingerprint".to_string())?;
    if want.len() != values.len() {
        return Err(format!(
            "{} values, golden has {}",
            values.len(),
            want.len()
        ));
    }
    for (i, (&w, v)) in want.iter().zip(values).enumerate() {
        if w != v.to_bits() {
            return Err(format!(
                "value {i} is {v:e}, golden {:e}",
                f64::from_bits(w)
            ));
        }
    }
    Ok(())
}

/// `v` formatted the way the experiment binaries write it to CSV.
pub fn csv_cell(v: f64) -> String {
    let mut table = Table::new("cell", &["v"]);
    table.push(vec![v]);
    let rendered = table.render();
    let last = rendered.lines().last().expect("a rendered row");
    last.trim().to_string()
}

/// The cells of `column` in a CSV file's text, by the value of its `key`
/// column.
///
/// # Errors
///
/// Returns an error when a column is missing or a row is short.
pub fn csv_column(text: &str, key: &str, column: &str) -> Result<BTreeMap<String, String>, String> {
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().ok_or("empty CSV")?.split(',').collect();
    let find = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .ok_or_else(|| format!("no column {name:?}"))
    };
    let (k, c) = (find(key)?, find(column)?);
    let mut out = BTreeMap::new();
    for row in lines.filter(|l| !l.trim().is_empty()) {
        let cells: Vec<&str> = row.split(',').collect();
        let (Some(kv), Some(cv)) = (cells.get(k), cells.get(c)) else {
            return Err(format!("short row {row:?}"));
        };
        out.insert(kv.to_string(), cv.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_bit_for_bit() {
        let values = [1.5, -0.0, f64::MIN_POSITIVE, 0.1 + 0.2];
        let golden = parse(&(line("sort/n=8", &values) + "\n\n")).unwrap();
        assert!(check(&golden, "sort/n=8", &values).is_ok());
    }

    #[test]
    fn a_one_ulp_change_is_a_mismatch() {
        let golden = parse(&line("qmc/n=1", &[2.0, 3.0])).unwrap();
        let nudged = f64::from_bits(3.0f64.to_bits() + 1);
        let err = check(&golden, "qmc/n=1", &[2.0, nudged]).unwrap_err();
        assert!(err.contains("value 1"), "{err}");
        assert!(check(&golden, "qmc/n=1", &[2.0]).is_err());
        assert!(check(&golden, "qmc/n=2", &[2.0, 3.0]).is_err());
    }

    #[test]
    fn malformed_files_are_rejected() {
        assert!(parse("a 3ff0000000000000\na 3ff0000000000000").is_err());
        assert!(parse("a zz").is_err());
        assert!(parse("a").is_err());
    }

    #[test]
    fn csv_cells_match_the_table_writer() {
        assert_eq!(csv_cell(0.74376_f64), "0.74376");
        assert_eq!(csv_cell(1.161_f64), "1.161");
        assert_eq!(csv_cell(2.0), "2");
        assert_eq!(csv_cell(1234.56), "1235");
        assert_eq!(csv_cell(0.0), "0");
    }

    #[test]
    fn csv_columns_by_key() {
        let text = "n,measured,gustafson\n1,0.74376,1\n2,1.161,1.609\n";
        let col = csv_column(text, "n", "measured").unwrap();
        assert_eq!(col["2"], "1.161");
        assert!(csv_column(text, "n", "ipso").is_err());
    }
}
