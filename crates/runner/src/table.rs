//! Minimal table model with markdown and CSV rendering.

/// A rectangular results table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; its length must match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in '{}'",
            self.title
        );
        self.rows.push(cells);
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Data rows.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render as a GitHub-flavoured markdown table (with title line).
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("**{}**\n\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = *w))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |\n", dashes.join(" | ")));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Render as CSV (headers first; no title line).
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a float with three significant decimals, trimming noise.
pub(crate) fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["a", "bbb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["10".into(), "x,y".into()]);
        t
    }

    #[test]
    fn markdown_is_aligned() {
        let md = sample().to_markdown();
        assert!(md.contains("**demo**"));
        assert!(md.contains("|  a | bbb |"));
        assert!(md.contains("|  1 |   2 |"));
        assert!(md.lines().filter(|l| l.starts_with('|')).count() == 4);
    }

    #[test]
    fn csv_escapes_commas() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("a,bbb\n"));
        assert!(csv.contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_rejected() {
        let mut t = Table::new("t", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(3.21987), "3.22");
        assert_eq!(fnum(42.42), "42.4");
        assert_eq!(fnum(12345.6), "12346");
    }
}
