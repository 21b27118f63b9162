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
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
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

    /// The table as a JSON object (`{"name", "title", "headers", "rows"}`,
    /// one row per line; notes are prose and stay out). No external
    /// serializer: cells are strings, so escaping is all that is needed,
    /// and key order is fixed by construction — the same cells give the
    /// same bytes, which is what lets `experiments --json` output be
    /// committed and gated by `git diff`.
    pub fn json(&self, name: &str) -> String {
        let arr = |cells: &[String]| {
            let quoted: Vec<String> = cells
                .iter()
                .map(|c| format!("\"{}\"", json_escape(c)))
                .collect();
            format!("[{}]", quoted.join(","))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| arr(r)).collect();
        format!(
            "{{\"name\":\"{}\",\"title\":\"{}\",\"headers\":{},\"rows\":[\n{}]}}",
            json_escape(name),
            json_escape(&self.title),
            arr(&self.headers),
            rows.join(",\n")
        )
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
        assert_eq!(
            t.json("demo"),
            "{\"name\":\"demo\",\"title\":\"quotes \\\"here\\\"\",\"headers\":[\"a\",\"b\"],\
             \"rows\":[\n[\"x\\n\",\"1\"],\n[\"50% of \\\\ cases\",\"2\"]]}"
        );
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
