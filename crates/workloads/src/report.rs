//! Plain-text tables for the `experiments` binary — the "same rows the
//! paper reports" renderer (our paper reports claims; the rows are the
//! counters that check them).

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
    /// Indices of the columns declared [`exact`](Table::exact).
    exact: Vec<usize>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            exact: Vec::new(),
        }
    }

    /// Declares the columns whose cells are labels or deterministic
    /// counts: equal on every run and every host, so they can be committed
    /// and compared byte for byte. Anything timed, or derived from a
    /// timed value, stays undeclared and is only printed.
    ///
    /// # Panics
    ///
    /// Panics if a name is not one of the table's headers.
    pub fn exact(&mut self, columns: &[&str]) -> &mut Table {
        self.exact = columns
            .iter()
            .map(|c| {
                self.headers
                    .iter()
                    .position(|h| h == c)
                    .unwrap_or_else(|| panic!("exact column {c:?} is not a header"))
            })
            .collect();
        self
    }

    /// Declares every column [`exact`](Table::exact).
    pub fn exact_all(&mut self) -> &mut Table {
        self.exact = (0..self.headers.len()).collect();
        self
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a footnote line.
    pub fn note(&mut self, text: impl Into<String>) -> &mut Table {
        self.notes.push(text.into());
        self
    }

    /// The table's exact projection as a JSON object
    /// (`{"name", "title", "headers", "rows"}`, one row per line): the
    /// columns declared [`exact`](Table::exact) and nothing else — no
    /// timed column, no note (notes carry host shape and timed headlines).
    /// `None` when no column is declared. No external serializer: cells
    /// are strings, so escaping is all that is needed, and key order is
    /// fixed by construction — the same counts give the same bytes, which
    /// is what lets `experiments --json` output be committed and gated by
    /// `git diff`.
    pub fn exact_json(&self, name: &str) -> Option<String> {
        if self.exact.is_empty() {
            return None;
        }
        let arr = |cells: &[String]| {
            let picked: Vec<String> = self
                .exact
                .iter()
                .map(|&i| format!("\"{}\"", json_escape(&cells[i])))
                .collect();
            format!("[{}]", picked.join(","))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| arr(r)).collect();
        Some(format!(
            "{{\"name\":\"{}\",\"title\":\"{}\",\"headers\":{},\"rows\":[\n{}]}}",
            json_escape(name),
            json_escape(&self.title),
            arr(&self.headers),
            rows.join(",\n")
        ))
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                let _ = write!(s, "{cell:>width$}", width = widths[i]);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a count with thousands separators.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a ratio with two decimals, or "inf" for division by zero.
pub fn fmt_ratio(num: f64, den: f64) -> String {
    if den == 0.0 {
        return "inf".to_string();
    }
    format!("{:.2}", num / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "count"]);
        t.row(&["short".into(), "1".into()]);
        t.row(&["much-longer-name".into(), "1000".into()]);
        t.note("a footnote");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("much-longer-name"));
        assert!(s.contains("note: a footnote"));
        // Columns align: both rows end at the same width.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[2].len(), lines[3].len().max(lines[2].len()));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn json_output_is_escaped_and_structured() {
        let mut t = Table::new("quotes \"here\"", &["a", "b"]);
        t.row(&["x\n".into(), "1".into()]);
        t.row(&["50% of \\ cases".into(), "2".into()]);
        t.exact_all();
        assert_eq!(
            t.exact_json("demo").unwrap(),
            "{\"name\":\"demo\",\"title\":\"quotes \\\"here\\\"\",\"headers\":[\"a\",\"b\"],\
             \"rows\":[\n[\"x\\n\",\"1\"],\n[\"50% of \\\\ cases\",\"2\"]]}"
        );
    }

    #[test]
    fn exact_projection_is_declared_columns_only_and_byte_stable() {
        let build = |timed: &str, host: &str| {
            let mut t = Table::new("demo", &["config", "Mw/s", "collections"]);
            t.row(&["a".into(), timed.into(), "1,024".into()]);
            t.note(format!("environment: {host} hardware threads"));
            t.exact(&["config", "collections"]);
            t
        };
        let fast = build("98.3", "8");
        let slow = build("41.7", "1");
        let json = fast.exact_json("demo").unwrap();
        assert_eq!(
            json,
            "{\"name\":\"demo\",\"title\":\"demo\",\"headers\":[\"config\",\"collections\"],\
             \"rows\":[\n[\"a\",\"1,024\"]]}"
        );
        // Two runs that differ only in timed cells and host notes project
        // to the same bytes; the printed table still shows both.
        assert_eq!(json, slow.exact_json("demo").unwrap());
        assert!(fast.render().contains("98.3") && fast.render().contains("note: environment"));
        // Nothing declared, nothing projected.
        assert_eq!(Table::new("demo", &["a"]).exact_json("demo"), None);
    }

    #[test]
    #[should_panic(expected = "is not a header")]
    fn exact_rejects_unknown_columns() {
        Table::new("demo", &["a"]).exact(&["b"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1000), "1,000");
        assert_eq!(fmt_count(1234567), "1,234,567");
        assert_eq!(fmt_ratio(3.0, 2.0), "1.50");
        assert_eq!(fmt_ratio(1.0, 0.0), "inf");
    }
}
