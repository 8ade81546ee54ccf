//! Plain-text and CSV table emitters used by the figure examples.

/// A simple column-aligned text table that can also render itself as CSV.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    /// Panics if the number of cells differs from the number of headers.
    pub fn add_row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Convenience for rows of displayable values.
    pub fn add_display_row(&mut self, cells: &[&dyn std::fmt::Display]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.add_row(&cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (headers first).
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to a file.
    pub fn write_csv(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TextTable {
        let mut t = TextTable::new("Table 1", &["dataset", "classes", "samples"]);
        t.add_row(&["HIGGS".to_string(), "2".to_string(), "11000000".to_string()]);
        t.add_row(&["MNIST".to_string(), "10".to_string(), "70000".to_string()]);
        t
    }

    #[test]
    fn text_rendering_is_aligned_and_complete() {
        let t = sample();
        let text = t.to_text();
        assert!(text.contains("Table 1"));
        assert!(text.contains("HIGGS"));
        assert!(text.contains("MNIST"));
        assert!(text.lines().count() >= 4);
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn csv_rendering_and_escaping() {
        let mut t = TextTable::new("", &["name", "note"]);
        t.add_row(&["a,b".to_string(), "say \"hi\"".to_string()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("name,note\n"));
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn display_row_helper() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.add_display_row(&[&1.5f64, &"two"]);
        assert_eq!(t.num_rows(), 1);
        assert!(t.to_text().contains("1.5"));
    }

    #[test]
    #[should_panic]
    fn wrong_arity_row_is_rejected() {
        let mut t = sample();
        t.add_row(&["only one".to_string()]);
    }

    #[test]
    fn csv_file_round_trip() {
        let t = sample();
        let path = std::env::temp_dir().join("nadmm_table_test.csv");
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("HIGGS"));
        std::fs::remove_file(&path).ok();
    }
}
