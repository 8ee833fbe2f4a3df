//! Tabular experiment reports.
//!
//! Every experiment produces one [`Table`]; the `exp` binary prints it as
//! plain text and as the markdown the README's tables are taken from.

use std::fmt::Write as _;

/// One experiment's results: a titled table plus free-form notes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    /// Experiment identifier, e.g. `"E1"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Interpretation notes appended below the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table with the given identifier, title and columns.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        columns: &[&str],
    ) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row; the number of cells must match the columns.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push(cells);
    }

    /// Appends an interpretation note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the table as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}: {}", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths[i]))
            .collect();
        let _ = writeln!(out, "  {}", header.join("  "));
        let underline: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "  {}", underline.join("  "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<width$}", width = widths[i]))
                .collect();
            let _ = writeln!(out, "  {}", cells.join("  "));
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}: {}\n", self.id, self.title);
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        for note in &self.notes {
            let _ = writeln!(out, "\n*{note}*");
        }
        out
    }

    /// Prints the plain-text rendering to standard output.
    pub fn print(&self) {
        println!("{}", self.to_text());
    }
}

/// Formats a float with three significant decimals for table cells.
pub fn fmt_f64(value: f64) -> String {
    if value.abs() >= 100.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("E0", "sample", &["a", "long-column", "c"]);
        t.push_row(vec!["1".into(), "2".into(), "3".into()]);
        t.push_row(vec!["10".into(), "twenty".into(), "30".into()]);
        t.note("just a sample");
        t
    }

    #[test]
    fn text_rendering_contains_all_cells_and_notes() {
        let text = sample().to_text();
        assert!(text.contains("E0: sample"));
        assert!(text.contains("long-column"));
        assert!(text.contains("twenty"));
        assert!(text.contains("note: just a sample"));
    }

    #[test]
    fn markdown_rendering_is_a_table() {
        let md = sample().to_markdown();
        assert!(md.contains("### E0: sample"));
        assert!(md.contains("| a | long-column | c |"));
        assert!(md.contains("| 10 | twenty | 30 |"));
        assert!(md.contains("*just a sample*"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_are_rejected() {
        let mut t = Table::new("E0", "sample", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(1.23456), "1.235");
        assert_eq!(fmt_f64(1234.5), "1234.5");
    }
}
