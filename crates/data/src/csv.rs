//! Minimal, dependency-free CSV import/export.
//!
//! The on-disk format is self-describing: each header cell is
//! `role:kind:name` where `role ∈ {n, s, aux}` and `kind ∈ {num, cat}`.
//! Categorical cells hold labels; domains are reconstructed on read in
//! first-appearance order. Cells containing commas, quotes or newlines are
//! quoted per RFC 4180.
//!
//! ## Reading
//!
//! [`read_csv`] reads the whole text, then makes two passes over it with
//! a byte scanner that yields each record's cells borrowed from the text.
//! A cell is copied only when it has a quoted section, to undo doubled
//! quotes.
//!
//! 1. The first pass scans every record, parses the header, checks each
//!    record's arity and gathers the categorical domains in
//!    first-appearance order.
//! 2. The second pass parses the numbers, maps each label to its index in
//!    its domain and pushes the rows through a [`DatasetBuilder`].
//!
//! So the reader holds the text, the columns it builds and one string per
//! distinct label (borrowed from the text unless quoted), never a string
//! per cell.
//!
//! Errors take this precedence, wherever they sit in the text:
//!
//! 1. a scan error anywhere (a quote inside an unquoted cell, an
//!    unterminated quoted cell);
//! 2. a header error (no header, a cell that is not `role:kind:name`);
//! 3. the first record with the wrong number of cells;
//! 4. a schema error from the builder (a duplicate name, a categorical
//!    column with no rows);
//! 5. in row order, the first cell that is not a number or not finite.

use crate::builder::DatasetBuilder;
use crate::dataset::Dataset;
use crate::error::DataError;
use crate::schema::Role;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{Read, Write};

/// Serialize a dataset to CSV.
pub fn write_csv<W: Write>(dataset: &Dataset, mut w: W) -> Result<(), DataError> {
    let header: Vec<String> = dataset
        .schema()
        .iter()
        .map(|(_, a)| {
            let kind = if a.kind.is_categorical() {
                "cat"
            } else {
                "num"
            };
            escape(&format!("{}:{}:{}", a.role.tag(), kind, a.name))
        })
        .collect();
    writeln!(w, "{}", header.join(","))?;
    for r in 0..dataset.n_rows() {
        let mut cells = Vec::with_capacity(dataset.schema().len());
        for (id, _) in dataset.schema().iter() {
            let cell = match dataset.value(r, id).expect("valid row/attr") {
                Value::Num(x) => format_num(x),
                Value::Label(s) => escape(&s),
                Value::CatIndex(_) => unreachable!("Dataset::value resolves labels"),
            };
            cells.push(cell);
        }
        writeln!(w, "{}", cells.join(","))?;
    }
    Ok(())
}

/// Deserialize a dataset from CSV produced by [`write_csv`] (or any CSV with
/// matching `role:kind:name` headers). Categorical domains are gathered from
/// the data in first-appearance order.
pub fn read_csv<R: Read>(mut r: R) -> Result<Dataset, DataError> {
    let mut text = String::new();
    r.read_to_string(&mut text).map_err(DataError::from)?;
    let mut cells = Vec::new();

    // Pass 1. A scan error anywhere outranks every other error, so the
    // first other error waits until the whole text has scanned clean.
    let mut scan = Scanner::new(&text);
    if scan.next_record(&mut cells)?.is_none() {
        return Err(DataError::Csv {
            line: 1,
            message: "missing header".into(),
        });
    }
    let mut first_err = None;
    let specs = parse_header(&cells).unwrap_or_else(|e| {
        first_err = Some(e);
        Vec::new()
    });
    // Per column, each distinct label and its index in first-appearance
    // order (empty for numeric columns).
    let mut domains: Vec<HashMap<Cow<str>, u32>> = specs.iter().map(|_| HashMap::new()).collect();
    while let Some(line) = scan.next_record(&mut cells)? {
        if first_err.is_some() {
            continue;
        }
        if cells.len() != specs.len() {
            first_err = Some(DataError::Csv {
                line,
                message: format!("expected {} cells, got {}", specs.len(), cells.len()),
            });
            continue;
        }
        for ((cell, spec), domain) in cells.drain(..).zip(&specs).zip(&mut domains) {
            if spec.is_cat {
                let next = domain.len() as u32;
                domain.entry(cell).or_insert(next);
            }
        }
    }
    if let Some(err) = first_err {
        return Err(err);
    }

    let mut builder = DatasetBuilder::new();
    for (spec, domain) in specs.iter().zip(&domains) {
        if spec.is_cat {
            let mut labels = vec![""; domain.len()];
            for (label, &index) in domain {
                labels[index as usize] = label;
            }
            builder.categorical(&spec.name, spec.role, &labels)?;
        } else {
            builder.numeric(&spec.name, spec.role)?;
        }
    }

    // Pass 2: the same records, which now scan clean and fit the header,
    // each parsed into one reused row buffer.
    let mut scan = Scanner::new(&text);
    scan.next_record(&mut cells)?;
    let mut row = Vec::with_capacity(specs.len());
    while let Some(line) = scan.next_record(&mut cells)? {
        row.clear();
        for ((cell, spec), domain) in cells.iter().zip(&specs).zip(&domains) {
            row.push(if spec.is_cat {
                Value::CatIndex(domain[&**cell])
            } else {
                Value::Num(cell.parse().map_err(|_| DataError::Csv {
                    line,
                    message: format!("`{cell}` is not a number"),
                })?)
            });
        }
        builder.push_cells(&row)?;
    }
    builder.build()
}

/// One column as its header cell declares it.
struct ColSpec {
    role: Role,
    is_cat: bool,
    name: String,
}

fn parse_header(cells: &[Cow<str>]) -> Result<Vec<ColSpec>, DataError> {
    let header_err = |message| DataError::Csv { line: 1, message };
    let mut specs = Vec::with_capacity(cells.len());
    for cell in cells {
        let mut parts = cell.splitn(3, ':');
        let (role, kind, name) = match (parts.next(), parts.next(), parts.next()) {
            (Some(r), Some(k), Some(n)) => (r, k, n),
            _ => {
                return Err(header_err(format!(
                    "header cell `{cell}` is not role:kind:name"
                )))
            }
        };
        let role = match role {
            "n" => Role::NonSensitive,
            "s" => Role::Sensitive,
            "aux" => Role::Auxiliary,
            other => return Err(header_err(format!("unknown role tag `{other}`"))),
        };
        let is_cat = match kind {
            "cat" => true,
            "num" => false,
            other => return Err(header_err(format!("unknown kind tag `{other}`"))),
        };
        specs.push(ColSpec {
            role,
            is_cat,
            name: name.to_string(),
        });
    }
    Ok(specs)
}

fn format_num(x: f64) -> String {
    // Round-trippable without scientific-notation surprises for our ranges.
    let s = format!("{x}");
    s
}

fn escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') || cell.contains('\r') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// RFC 4180 record scanner over a whole text. Quoted cells may contain
/// commas, doubled quotes and line breaks, so a record can span several
/// physical lines. Records end at `\n` or `\r\n` (a lone `\r` is cell
/// content); blank lines between records are skipped, and the final
/// record needs no line break. Cells are borrowed from the text unless
/// they have a quoted section.
struct Scanner<'a> {
    text: &'a str,
    /// Byte offset of the first unscanned byte.
    pos: usize,
    /// Physical line `pos` is on, 1-based.
    line: usize,
}

/// What ended a cell.
#[derive(Clone, Copy, PartialEq)]
enum CellEnd {
    Comma,
    Newline,
    Eof,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            line: 1,
        }
    }

    /// Replace `cells` with the next record's cells and return the line
    /// the record starts on, or `None` once the text is exhausted.
    fn next_record(&mut self, cells: &mut Vec<Cow<'a, str>>) -> Result<Option<usize>, DataError> {
        cells.clear();
        let mut start = self.line;
        loop {
            let (cell, has_content, end) = self.cell(start)?;
            // A record whose first cell ends the line with nothing in it
            // is a blank line.
            let blank = cells.is_empty() && !has_content;
            match end {
                CellEnd::Comma => cells.push(cell),
                CellEnd::Newline if blank => start = self.line,
                CellEnd::Eof if blank => return Ok(None),
                CellEnd::Newline | CellEnd::Eof => {
                    cells.push(cell);
                    return Ok(Some(start));
                }
            }
        }
    }

    /// Scan the cell at `pos`: its content, whether it has any (an empty
    /// quoted section counts), and what ended it. `record` is the line
    /// the record started on.
    fn cell(&mut self, record: usize) -> Result<(Cow<'a, str>, bool, CellEnd), DataError> {
        let text = self.text;
        let bytes = text.as_bytes();
        let mut i = self.pos;
        let mut quoted = None;
        if bytes.get(i) == Some(&b'"') {
            let mut owned = String::new();
            i += 1;
            let mut from = i;
            loop {
                i += bytes[i..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\n')
                    .ok_or_else(|| DataError::Csv {
                        line: record,
                        message: "unterminated quoted cell".into(),
                    })?;
                if bytes[i] == b'\n' {
                    self.line += 1;
                    i += 1;
                    continue;
                }
                owned.push_str(&text[from..i]);
                i += 1;
                if bytes.get(i) != Some(&b'"') {
                    break;
                }
                // A doubled quote: the second one starts the next run.
                from = i;
                i += 1;
            }
            quoted = Some(owned);
        }
        let from = i;
        i += bytes[i..]
            .iter()
            .position(|&b| matches!(b, b',' | b'\n' | b'"'))
            .unwrap_or(bytes.len() - i);
        let end = match bytes.get(i) {
            None => CellEnd::Eof,
            Some(b',') => CellEnd::Comma,
            Some(b'\n') => CellEnd::Newline,
            Some(_) => {
                return Err(DataError::Csv {
                    line: self.line,
                    message: "quote inside unquoted cell".into(),
                })
            }
        };
        let mut to = i;
        if end == CellEnd::Newline {
            self.line += 1;
            // `\r\n` ends a record as `\n` does.
            if to > from && bytes[to - 1] == b'\r' {
                to -= 1;
            }
        }
        self.pos = if end == CellEnd::Eof { i } else { i + 1 };
        let tail = &text[from..to];
        let has_content = quoted.is_some() || !tail.is_empty();
        let cell = match quoted {
            Some(mut owned) => {
                owned.push_str(tail);
                Cow::Owned(owned)
            }
            None => Cow::Borrowed(tail),
        };
        Ok((cell, has_content, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{row, AttrId};

    /// The reader this module had before the two-pass scanner: every
    /// record buffered, every cell an owned `String`. The scanner and
    /// [`read_csv`] are checked against it.
    mod oracle {
        use crate::builder::DatasetBuilder;
        use crate::dataset::Dataset;
        use crate::error::DataError;
        use crate::schema::Role;
        use crate::value::Value;

        /// The reader as it was before the scanner: the records first,
        /// then the header, the arity and the domains, then the cells.
        pub fn read_csv(text: &str) -> Result<Dataset, DataError> {
            let mut record_iter = split_records(text)?.into_iter();
            let (_, header) = record_iter.next().ok_or(DataError::Csv {
                line: 1,
                message: "missing header".into(),
            })?;

            struct ColSpec {
                role: Role,
                is_cat: bool,
                name: String,
            }
            let mut specs = Vec::with_capacity(header.len());
            for cell in &header {
                let mut parts = cell.splitn(3, ':');
                let (role, kind, name) = match (parts.next(), parts.next(), parts.next()) {
                    (Some(r), Some(k), Some(n)) => (r, k, n),
                    _ => {
                        return Err(DataError::Csv {
                            line: 1,
                            message: format!("header cell `{cell}` is not role:kind:name"),
                        })
                    }
                };
                let role = match role {
                    "n" => Role::NonSensitive,
                    "s" => Role::Sensitive,
                    "aux" => Role::Auxiliary,
                    other => {
                        return Err(DataError::Csv {
                            line: 1,
                            message: format!("unknown role tag `{other}`"),
                        })
                    }
                };
                let is_cat = match kind {
                    "cat" => true,
                    "num" => false,
                    other => {
                        return Err(DataError::Csv {
                            line: 1,
                            message: format!("unknown kind tag `{other}`"),
                        })
                    }
                };
                specs.push(ColSpec {
                    role,
                    is_cat,
                    name: name.to_string(),
                });
            }

            // First pass: buffer records and gather categorical domains.
            let mut records: Vec<(usize, Vec<String>)> = Vec::new();
            let mut domains: Vec<Vec<String>> = specs.iter().map(|_| Vec::new()).collect();
            for (lineno, rec) in record_iter {
                if rec.len() != specs.len() {
                    return Err(DataError::Csv {
                        line: lineno,
                        message: format!("expected {} cells, got {}", specs.len(), rec.len()),
                    });
                }
                for (cell, (spec, domain)) in rec.iter().zip(specs.iter().zip(domains.iter_mut())) {
                    if spec.is_cat && !domain.iter().any(|d| d == cell) {
                        domain.push(cell.clone());
                    }
                }
                records.push((lineno, rec));
            }

            let mut builder = DatasetBuilder::new();
            for (spec, domain) in specs.iter().zip(&domains) {
                if spec.is_cat {
                    let refs: Vec<&str> = domain.iter().map(String::as_str).collect();
                    builder.categorical(&spec.name, spec.role, &refs)?;
                } else {
                    builder.numeric(&spec.name, spec.role)?;
                }
            }
            for (lineno, rec) in records {
                let mut row = Vec::with_capacity(rec.len());
                for (cell, spec) in rec.into_iter().zip(&specs) {
                    if spec.is_cat {
                        row.push(Value::Label(cell));
                    } else {
                        let x: f64 = cell.parse().map_err(|_| DataError::Csv {
                            line: lineno,
                            message: format!("`{cell}` is not a number"),
                        })?;
                        row.push(Value::Num(x));
                    }
                }
                builder.push_row(row)?;
            }
            builder.build()
        }

        /// RFC-4180 record scanner: splits the whole input into `(start_line,
        /// cells)` records, honoring quoting — quoted cells may contain commas,
        /// doubled quotes, and line breaks (so a record can span several physical
        /// lines). Record separators are `\n` or `\r\n`; blank lines between
        /// records are skipped.
        pub fn split_records(text: &str) -> Result<Vec<(usize, Vec<String>)>, DataError> {
            let mut records: Vec<(usize, Vec<String>)> = Vec::new();
            let mut cells: Vec<String> = Vec::new();
            let mut cur = String::new();
            // Whether the current cell already has content that makes a bare quote
            // illegal (any unquoted character, or a completed quoted section).
            let mut cell_started = false;
            let mut in_quotes = false;
            let mut line = 1usize; // current physical line
            let mut record_line = 1usize; // line the current record started on
            let mut chars = text.chars().peekable();
            while let Some(c) = chars.next() {
                if in_quotes {
                    match c {
                        '"' => {
                            if chars.peek() == Some(&'"') {
                                chars.next();
                                cur.push('"');
                            } else {
                                in_quotes = false;
                            }
                        }
                        '\n' => {
                            line += 1;
                            cur.push('\n');
                        }
                        other => cur.push(other),
                    }
                    continue;
                }
                match c {
                    '"' => {
                        if cell_started {
                            return Err(DataError::Csv {
                                line,
                                message: "quote inside unquoted cell".into(),
                            });
                        }
                        in_quotes = true;
                        cell_started = true;
                    }
                    ',' => {
                        cells.push(std::mem::take(&mut cur));
                        cell_started = false;
                    }
                    '\r' if chars.peek() == Some(&'\n') => {} // folded into the \n
                    '\n' => {
                        line += 1;
                        let blank = cells.is_empty() && cur.is_empty() && !cell_started;
                        if !blank {
                            cells.push(std::mem::take(&mut cur));
                            records.push((record_line, std::mem::take(&mut cells)));
                        }
                        cell_started = false;
                        record_line = line;
                    }
                    other => {
                        cur.push(other);
                        cell_started = true;
                    }
                }
            }
            if in_quotes {
                return Err(DataError::Csv {
                    line: record_line,
                    message: "unterminated quoted cell".into(),
                });
            }
            // Final record when the input lacks a trailing newline.
            if !cells.is_empty() || !cur.is_empty() || cell_started {
                cells.push(cur);
                records.push((record_line, cells));
            }
            Ok(records)
        }
    }

    /// [`read_csv`] on `text`, asserted to agree with the oracle: the same
    /// records from the scanner, and the same error or a dataset with the
    /// same schema and the same column bits.
    fn read(text: &[u8]) -> Result<Dataset, DataError> {
        let text = std::str::from_utf8(text).expect("test inputs are UTF-8");
        assert_eq!(records(text), oracle::split_records(text), "{text:?}");
        let got = read_csv(text.as_bytes());
        match (&got, oracle::read_csv(text)) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.schema(), want.schema(), "{text:?}");
                assert_eq!(got.n_rows(), want.n_rows(), "{text:?}");
                for (id, attr) in want.schema().iter() {
                    if attr.kind.is_categorical() {
                        let col = |d: &Dataset| d.categorical_column(id).unwrap().to_vec();
                        assert_eq!(col(got), col(&want), "{text:?}");
                    } else {
                        let bits = |d: &Dataset| -> Vec<u64> {
                            let col = d.numeric_column(id).unwrap();
                            col.iter().map(|x| x.to_bits()).collect()
                        };
                        assert_eq!(bits(got), bits(&want), "{text:?}");
                    }
                }
            }
            (got, want) => assert_eq!(got.as_ref().err(), want.as_ref().err(), "{text:?}"),
        }
        got
    }

    /// Every record the scanner yields, in the oracle's shape.
    fn records(text: &str) -> Result<Vec<(usize, Vec<String>)>, DataError> {
        let mut scan = Scanner::new(text);
        let mut cells = Vec::new();
        let mut out = Vec::new();
        while let Some(line) = scan.next_record(&mut cells)? {
            out.push((line, cells.iter().map(|c| c.to_string()).collect()));
        }
        Ok(out)
    }

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        b.categorical("g", Role::Sensitive, &["a,with comma", "b\"q\""])
            .unwrap();
        b.categorical("lab", Role::Auxiliary, &["lo", "hi"])
            .unwrap();
        b.push_row(row![1.5, "a,with comma", "lo"]).unwrap();
        b.push_row(row![-2.0, "b\"q\"", "hi"]).unwrap();
        b.push_row(row![0.25, "a,with comma", "hi"]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything_observable() {
        let d = sample();
        let mut buf = Vec::new();
        write_csv(&d, &mut buf).unwrap();
        let d2 = read(&buf).unwrap();
        assert_eq!(d2.n_rows(), d.n_rows());
        assert_eq!(d2.schema().len(), d.schema().len());
        for (_id, attr) in d.schema().iter() {
            let (_, attr2) = d2.schema().attr_by_name(&attr.name).unwrap();
            assert_eq!(attr2.role, attr.role);
            assert_eq!(attr2.kind.is_categorical(), attr.kind.is_categorical());
        }
        for r in 0..d.n_rows() {
            for (id, _) in d.schema().iter() {
                assert_eq!(d2.value(r, id).unwrap(), d.value(r, id).unwrap());
            }
        }
    }

    #[test]
    fn scanner_handles_quotes() {
        let records = records("a,\"b,c\",\"d\"\"e\"").unwrap();
        assert_eq!(
            records,
            vec![(1, vec!["a".into(), "b,c".into(), "d\"e".into()])]
        );
    }

    #[test]
    fn scanner_spans_quoted_newlines() {
        // One record whose middle cell contains a line break; the record
        // after it still reports the correct physical start line.
        let records = records("a,\"line1\nline2\",c\nd,e,f\n").unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].0, 1);
        assert_eq!(records[0].1[1], "line1\nline2");
        assert_eq!(records[1].0, 3);
        assert_eq!(records[1].1, vec!["d", "e", "f"]);
    }

    #[test]
    fn scanner_borrows_every_cell_without_a_quoted_section() {
        let text = "a,\"q\"x,,b\r\n\r\n\"\",c\rd";
        let mut scan = Scanner::new(text);
        let mut cells = Vec::new();
        let mut seen = Vec::new();
        while let Some(line) = scan.next_record(&mut cells).unwrap() {
            for cell in &cells {
                seen.push((line, cell.to_string(), matches!(cell, Cow::Borrowed(_))));
            }
        }
        let want = [
            (1, "a", true),
            (1, "qx", false),
            (1, "", true),
            (1, "b", true),
            (3, "", false),
            (3, "c\rd", true),
        ];
        let want: Vec<_> = want
            .iter()
            .map(|&(l, c, b)| (l, c.to_string(), b))
            .collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn roundtrip_preserves_newlines_and_carriage_returns_in_labels() {
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        b.categorical("g", Role::Sensitive, &["multi\nline", "with\rcr", "plain"])
            .unwrap();
        b.push_row(row![1.0, "multi\nline"]).unwrap();
        b.push_row(row![2.0, "with\rcr"]).unwrap();
        b.push_row(row![3.0, "plain"]).unwrap();
        let d = b.build().unwrap();
        let mut buf = Vec::new();
        write_csv(&d, &mut buf).unwrap();
        let d2 = read(&buf).unwrap();
        assert_eq!(d2.n_rows(), 3);
        for r in 0..3 {
            assert_eq!(
                d2.value(r, AttrId(1)).unwrap(),
                d.value(r, AttrId(1)).unwrap()
            );
        }
    }

    #[test]
    fn crlf_line_endings_are_accepted() {
        let csv = "n:num:x,s:cat:g\r\n1.0,a\r\n2.0,b\r\n";
        let d = read(csv.as_bytes()).unwrap();
        assert_eq!(d.n_rows(), 2);
        assert_eq!(d.value(1, AttrId(1)).unwrap(), Value::Label("b".into()));
    }

    #[test]
    fn bad_number_is_reported_with_line() {
        let csv = "n:num:x\n1.0\nnot_a_number\n";
        let err = read(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, DataError::Csv { line: 3, .. }));
    }

    #[test]
    fn missing_numeric_value_is_reported_with_line() {
        // An empty cell in a numeric column is a missing value — rejected
        // with the offending line, never silently coerced.
        let csv = "n:num:x,s:cat:g\n1.0,a\n,b\n";
        let err = read(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, DataError::Csv { line: 3, .. }), "{err}");
    }

    #[test]
    fn empty_categorical_cell_is_a_distinct_label() {
        // Missing categorical cells become the empty label, which gets its
        // own domain slot instead of merging with a real value.
        let csv = "n:num:x,s:cat:g\n1.0,a\n2.0,\n";
        let d = read(csv.as_bytes()).unwrap();
        assert_eq!(d.value(1, AttrId(1)).unwrap(), Value::Label(String::new()));
        let space = d.sensitive_space().unwrap();
        assert_eq!(space.categorical()[0].cardinality(), 2);
    }

    #[test]
    fn duplicate_headers_are_rejected() {
        let csv = "n:num:x,n:num:x\n1.0,2.0\n";
        let err = read(csv.as_bytes()).unwrap_err();
        assert_eq!(err, DataError::DuplicateAttribute("x".into()));
    }

    #[test]
    fn trailing_newlines_and_blank_lines_are_skipped() {
        for csv in [
            "n:num:x\n1.0\n2.0",       // no trailing newline
            "n:num:x\n1.0\n2.0\n",     // one trailing newline
            "n:num:x\n1.0\n2.0\n\n",   // extra blank line at the end
            "n:num:x\n\n1.0\n\n2.0\n", // blank lines between records
        ] {
            let d = read(csv.as_bytes()).unwrap();
            assert_eq!(d.n_rows(), 2, "input {csv:?}");
            assert_eq!(d.numeric_column(AttrId(0)).unwrap(), &[1.0, 2.0]);
        }
    }

    #[test]
    fn missing_header_is_error() {
        assert!(read(b"").is_err());
    }

    #[test]
    fn arity_mismatch_is_error() {
        let csv = "n:num:x,s:cat:g\n1.0\n";
        assert!(read(csv.as_bytes()).is_err());
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(records("\"abc").is_err());
        assert!(read(b"n:num:x\n\"1.0\n").is_err());
    }

    #[test]
    fn quote_inside_unquoted_cell_is_error() {
        let err = records("ab\"c").unwrap_err();
        assert!(matches!(err, DataError::Csv { line: 1, .. }));
    }

    /// xorshift64*: a seeded stream for generated inputs.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }
    }

    /// A seeded CSV text with quoted commas, quotes, newlines and CRs,
    /// CRLF line ends, blank lines, empty cells, sometimes a final record
    /// without a line break and, with `faults`, now and then a bad header
    /// cell, a duplicate name, a wrong arity, a bad or non-finite number,
    /// a stray quote or an unterminated quoted cell.
    fn generated(seed: u64, faults: bool) -> String {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let labels = [
            "a",
            "b",
            "b,c",
            "q\"q",
            "two\nlines",
            "cr\rx",
            "",
            "crlf\r\nin",
            "ü,ß",
        ];
        let numbers = ["1.5", "-0", "0", "1e300", "2.25", "7.", "-3.125e-7"];
        let bad_numbers = ["x", "", "nan", "inf", "1e999", " 3", "1,5"];
        let eol = |rng: &mut Rng| if rng.one_in(3) { "\r\n" } else { "\n" };
        // Quote what must be quoted, and now and then what need not be,
        // sometimes with an unquoted tail after the quoted section.
        let cell = |rng: &mut Rng, s: &str| {
            if rng.one_in(5) || s.contains([',', '"', '\n', '\r']) {
                let quoted = format!("\"{}\"", s.replace('"', "\"\""));
                if rng.one_in(6) {
                    format!("{quoted}tail")
                } else {
                    quoted
                }
            } else {
                s.to_string()
            }
        };
        let n_cols = 1 + rng.below(4);
        let cats: Vec<bool> = (0..n_cols).map(|_| rng.one_in(2)).collect();
        let mut header = Vec::new();
        for (j, &cat) in cats.iter().enumerate() {
            let role = rng.pick(&["n", "s", "aux"]);
            let kind = if cat { "cat" } else { "num" };
            let mut name = format!("{role}:{kind}:c{j}");
            if faults && rng.one_in(30) {
                name = rng
                    .pick(&["bogus", "x:num:y", "n:int:z", "s:cat:c0"])
                    .into();
            }
            header.push(cell(&mut rng, &name));
        }
        let mut out = header.join(",");
        for _ in 0..rng.below(12) {
            out.push_str(eol(&mut rng));
            while rng.one_in(4) {
                out.push_str(eol(&mut rng));
            }
            let mut row = Vec::new();
            for &cat in &cats {
                let s = if cat {
                    rng.pick(&labels)
                } else if faults && rng.one_in(25) {
                    rng.pick(&bad_numbers)
                } else {
                    rng.pick(&numbers)
                };
                row.push(cell(&mut rng, s));
            }
            if faults && rng.one_in(30) {
                row.pop();
            }
            if faults && rng.one_in(30) {
                row.push("extra".into());
            }
            if faults && rng.one_in(60) {
                row.push("st\"ray".into());
            }
            out.push_str(&row.join(","));
        }
        if faults && rng.one_in(40) {
            out.push_str("\n\"open");
        }
        if rng.one_in(2) {
            out.push_str(eol(&mut rng));
        }
        out
    }

    #[test]
    fn reader_agrees_with_the_oracle_on_generated_inputs() {
        let (mut ok, mut err) = (0, 0);
        for seed in 0..3000 {
            let text = generated(seed, seed % 2 == 1);
            match read(text.as_bytes()) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
        // Both outcomes are exercised, not just one.
        assert!(ok > 500 && err > 500, "{ok} parsed, {err} rejected");
    }

    #[test]
    fn errors_keep_the_old_precedence() {
        let csv = |line, message: &str| DataError::Csv {
            line,
            message: message.into(),
        };
        let cases = [
            // A scan error after an arity error: the scan error.
            (
                "n:num:x,s:cat:g\n1.0\n2.0,a\nb\"ad,c\n",
                csv(4, "quote inside unquoted cell"),
            ),
            // A scan error after a header error: the scan error.
            ("bogus\n1.0\n\"open\n", csv(3, "unterminated quoted cell")),
            // An arity error after a bad number: the arity error.
            (
                "n:num:x,s:cat:g\nnope,a\n1.0\n",
                csv(3, "expected 2 cells, got 1"),
            ),
            // An arity error after a duplicate name: the arity error.
            ("n:num:x,n:num:x\n1.0\n", csv(2, "expected 2 cells, got 1")),
            // A duplicate name before a bad number: the duplicate.
            (
                "n:num:x,n:num:x\nz,1\n",
                DataError::DuplicateAttribute("x".into()),
            ),
            // Within a row, a bad number after a non-finite one: the bad
            // number, as every cell parses before the row is pushed.
            ("n:num:x,n:num:y\ninf,zz\n", csv(2, "`zz` is not a number")),
            // A non-finite number in a row before a bad one: row order.
            (
                "n:num:x\ninf\nzz\n",
                DataError::NonFiniteValue {
                    attribute: "x".into(),
                    row: 0,
                },
            ),
        ];
        for (text, want) in cases {
            assert_eq!(read(text.as_bytes()).unwrap_err(), want, "{text:?}");
        }
    }
}
