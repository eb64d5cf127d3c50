//! Plain-text tables and CSV output for experiment results, and the one
//! field reader for the JSON this workspace writes.

use std::fmt;
use std::str::FromStr;

/// A simple aligned text table.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the table.
    #[must_use]
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row; cells are padded/truncated to the header count.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
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

    /// Renders as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(&format!("**{t}**\n\n"));
        }
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", self.headers.iter().map(|_| "---|").collect::<String>()));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        if let Some(t) = &self.title {
            writeln!(f, "{t}")?;
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let parts: Vec<String> =
                cells.iter().enumerate().map(|(i, c)| format!("{:w$}", c, w = widths[i])).collect();
            writeln!(f, "  {}", parts.join("  "))
        };
        line(f, &self.headers)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &rule)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with 2 decimals for table cells.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// The raw text of `key`'s value in a JSON object written on one line:
/// a `BENCH_*.json` row, a `STATS` reply, a certificate line. A string
/// keeps its quotes and escapes; an array or object keeps its brackets.
/// `None` when the key is absent or its value does not end on the line.
///
/// This is not a general JSON parser (the workspace has no serde_json):
/// it takes the first `"key":` on the line, so a key inside an earlier
/// nested object shadows a later one.
pub fn json_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = line[line.find(&tag)? + tag.len()..].trim_start();
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, c) in rest.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' if depth == 0 => return Some(&rest[..=i]),
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' | '{' => depth += 1,
            ']' | '}' if depth == 1 => return Some(&rest[..=i]),
            ']' | '}' if depth > 1 => depth -= 1,
            ']' | '}' | ',' if depth == 0 => return Some(rest[..i].trim_end()),
            _ => {}
        }
    }
    None
}

/// `key`'s bare (unquoted) value parsed as `T`; `None` when absent or
/// unparsable.
pub fn json_number<T: FromStr>(line: &str, key: &str) -> Option<T> {
    json_value(line, key)?.parse().ok()
}

/// `key`'s string value with the writers' `\"` and `\\` escapes undone;
/// `None` when absent, not a string, or carrying any other escape.
pub fn json_string(line: &str, key: &str) -> Option<String> {
    let raw = json_value(line, key)?.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => chars.next().filter(|e| matches!(e, '"' | '\\'))?,
            c => c,
        });
    }
    Some(out)
}

/// The text between the brackets of `key`'s array value.
pub fn json_array_body<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    json_value(line, key)?.strip_prefix('[')?.strip_suffix(']')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(["name", "value"]).with_title("demo");
        t.row(["alpha", "1"]);
        t.row(["beta-long", "22"]);
        t
    }

    #[test]
    fn display_aligns_columns() {
        let s = sample().to_string();
        assert!(s.contains("demo"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Both value cells start at the same column.
        let col = lines[1].find("value").unwrap();
        assert_eq!(&lines[3][col..col + 1], "1");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new(["a", "b"]);
        t.row(["x,y", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn markdown_shape() {
        let md = sample().to_markdown();
        assert!(md.starts_with("**demo**"));
        assert!(md.contains("| name | value |"));
        assert!(md.contains("|---|---|"));
    }

    #[test]
    fn rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.to_csv().lines().nth(1).unwrap().ends_with(",,"));
    }

    #[test]
    fn f2_formats() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f2(2.5), "2.50");
    }

    #[test]
    fn json_reader_takes_each_value_kind() {
        let line = r#"{"n": 12,"s":"a\"b\\c,}","v":[[1,2],[3]],"o":{"k":"]"},"last":-1.5}"#;
        assert_eq!(json_value(line, "n"), Some("12"));
        assert_eq!(json_number::<u32>(line, "n"), Some(12));
        assert_eq!(json_string(line, "s").as_deref(), Some(r#"a"b\c,}"#));
        assert_eq!(json_array_body(line, "v"), Some("[1,2],[3]"));
        assert_eq!(json_value(line, "o"), Some(r#"{"k":"]"}"#));
        assert_eq!(json_number::<f64>(line, "last"), Some(-1.5));
    }

    #[test]
    fn json_reader_refuses_what_it_cannot_read() {
        let line = r#"{"n":12,"s":"x","bad":"a\nb","u":7"#;
        assert_eq!(json_value(line, "missing"), None);
        assert_eq!(json_number::<u32>(line, "s"), None);
        assert_eq!(json_string(line, "n"), None);
        assert_eq!(json_array_body(line, "n"), None);
        assert_eq!(json_string(line, "bad"), None);
        assert_eq!(json_value(line, "u"), None, "unterminated value");
        assert_eq!(json_value(r#"{"s":"open"#, "s"), None);
        assert_eq!(json_value(r#"{"v":[1,[2]"#, "v"), None);
    }
}
