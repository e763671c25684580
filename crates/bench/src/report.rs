//! Plain-text tables and CSV output for the experiment reports.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A result table: the unit every experiment emits.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (printed as a header; also the CSV stem suggestion).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| format!("+{}", "-".repeat(w + 2)))
            .collect::<String>()
            + "+";
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("| {c:<w$} "))
                .collect::<String>()
                + "|"
        };
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }

    /// Serializes to CSV (RFC-4180-ish quoting for commas/quotes).
    fn to_csv(&self) -> String {
        fn quote(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV under `dir/name.csv`, creating `dir` if needed.
    pub fn save_csv(&self, dir: &Path, name: &str) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// Formats a float with `digits` decimal places.
pub fn fmt_f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Formats a ratio as a percentage with two decimals.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Formats a duration in engineering-friendly units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Linear-interpolated `p`-th percentile (`p ∈ [0, 100]`) of a sample;
/// 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Renders a series as a unicode sparkline (`▁▂▃▄▅▆▇█`), normalized to the
/// series' own min/max — a quick shape check for trend tables in terminal
/// output.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() || hi <= lo {
        return BARS[0].to_string().repeat(values.len());
    }
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return ' ';
            }
            let t = (v - lo) / (hi - lo);
            BARS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("demo", &["a", "long_header", "c"]);
        t.push_row(vec!["1".into(), "2".into(), "3".into()]);
        t.push_row(vec!["x,y".into(), "q\"uote".into(), "zz".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let out = table().render();
        assert!(out.contains("# demo"));
        assert!(out.contains("| long_header |"));
        let lines: Vec<&str> = out.lines().collect();
        // Separator, header, separator, 2 rows, separator + title line.
        assert_eq!(lines.len(), 7);
        // Every body line has the same width.
        let widths: Vec<usize> = lines[1..].iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn csv_quotes_special_cells() {
        let csv = table().to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"q\"\"uote\""));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn save_csv_writes_file() {
        let dir = std::env::temp_dir().join("fedaqp_report_test");
        let path = table().save_csv(&dir, "demo").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,long_header,c"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        let up = sparkline(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(up.chars().count(), 4);
        assert!(up.starts_with('▁') && up.ends_with('█'));
        let flat = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(flat, "▁▁▁");
        let with_nan = sparkline(&[1.0, f64::NAN, 3.0]);
        assert_eq!(with_nan.chars().count(), 3);
    }

    #[test]
    fn percentiles() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 95.0) - 3.85).abs() < 1e-12);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_pct(0.123456), "12.35%");
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!(fmt_duration(std::time::Duration::from_millis(5)).contains("ms"));
        assert!(fmt_duration(std::time::Duration::from_secs(2)).contains(" s"));
        assert!(fmt_duration(std::time::Duration::from_micros(7)).contains("µs"));
    }
}
