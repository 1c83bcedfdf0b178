//! Minimal fixed-width table rendering for terminal output.

use std::fmt::Write as _;

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        while cells.len() < self.header.len() {
            cells.push(String::new());
        }
        self.rows.push(cells);
    }

    /// Renders the table with a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "{cell:<w$}");
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Formats a throughput in tokens/second with thousands grouping.
pub fn fmt_tput(tput: Option<f64>) -> String {
    match tput {
        Some(t) => {
            if t >= 1e6 {
                format!("{:.2}M", t / 1e6)
            } else if t >= 1e3 {
                format!("{:.1}k", t / 1e3)
            } else {
                format!("{t:.0}")
            }
        }
        None => "OOM".to_string(),
    }
}

/// Formats a speedup factor.
pub fn fmt_speedup(num: Option<f64>, base: Option<f64>) -> String {
    match (num, base) {
        (Some(n), Some(b)) if b > 0.0 => format!("{:.2}x", n / b),
        _ => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["method", "tput"]);
        t.row(vec!["TE CP", "10.0k"]);
        t.row(vec!["Zeppelin", "28.1k"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("method"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "tput" column starts at the same index everywhere.
        let idx = lines[0].find("tput").unwrap();
        assert_eq!(&lines[2][idx..idx + 2], "10");
        assert_eq!(&lines[3][idx..idx + 2], "28");
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        assert_eq!(t.render().lines().count(), 3);
        assert!(t.render().contains('x'));
    }

    #[test]
    fn throughput_formatting() {
        assert_eq!(fmt_tput(Some(1_234_567.0)), "1.23M");
        assert_eq!(fmt_tput(Some(45_600.0)), "45.6k");
        assert_eq!(fmt_tput(Some(312.0)), "312");
        assert_eq!(fmt_tput(None), "OOM");
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(Some(20.0), Some(10.0)), "2.00x");
        assert_eq!(fmt_speedup(None, Some(10.0)), "-");
        assert_eq!(fmt_speedup(Some(1.0), None), "-");
    }
}
