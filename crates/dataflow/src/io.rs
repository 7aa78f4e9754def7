//! Disk I/O: newline-delimited JSON sources and result writing.
//!
//! The paper's pipelines read `tweets.json` from distributed storage and
//! "write the result to disk to ensure that Spark computes the full
//! result" (Sec. 7.2). This module provides the same boundary for the
//! substrate: NDJSON loading into a [`Context`] and buffered result
//! writing, so benchmarks can include the I/O cost when desired.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path as FsPath;

use pebble_nested::{json, DataItem};

use crate::context::Context;
use crate::exec::RunOutput;

/// I/O errors: filesystem or JSON decoding.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Fs(std::io::Error),
    /// Malformed JSON on a specific line (1-based).
    Json {
        /// Line number (1-based).
        line: usize,
        /// Parse error.
        error: json::JsonError,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Fs(e) => write!(f, "I/O error: {e}"),
            IoError::Json { line, error } => write!(f, "line {line}: {error}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Fs(e)
    }
}

/// Reads an NDJSON file (one top-level object per line) into data items.
/// Uses a reusable line buffer, so allocation stays proportional to the
/// longest line rather than the file.
pub fn read_ndjson(path: impl AsRef<FsPath>) -> Result<Vec<DataItem>, IoError> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut items = Vec::new();
    let mut line = String::new();
    let mut line_no = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(items);
        }
        line_no += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match json::parse(trimmed) {
            Ok(pebble_nested::Value::Item(d)) => items.push(d),
            Ok(_) => {
                return Err(IoError::Json {
                    line: line_no,
                    error: json::JsonError {
                        offset: 0,
                        message: "expected a JSON object".into(),
                    },
                })
            }
            Err(error) => {
                return Err(IoError::Json {
                    line: line_no,
                    error,
                })
            }
        }
    }
}

/// Writes data items as NDJSON with a buffered writer.
pub fn write_ndjson(
    path: impl AsRef<FsPath>,
    items: impl IntoIterator<Item = impl std::borrow::Borrow<DataItem>>,
) -> Result<usize, IoError> {
    let mut out = BufWriter::new(File::create(path)?);
    let mut n = 0usize;
    for item in items {
        out.write_all(json::item_to_string(item.borrow()).as_bytes())?;
        out.write_all(b"\n")?;
        n += 1;
    }
    out.flush()?;
    Ok(n)
}

impl Context {
    /// Registers an NDJSON file as a named source.
    pub fn register_file(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<FsPath>,
    ) -> Result<usize, IoError> {
        let items = read_ndjson(path)?;
        let n = items.len();
        self.register(name, items);
        Ok(n)
    }
}

impl RunOutput {
    /// Writes the result items to disk as NDJSON ("to ensure the full
    /// result is computed", as the paper's experiments do).
    pub fn write_ndjson(&self, path: impl AsRef<FsPath>) -> Result<usize, IoError> {
        write_ndjson(path, self.rows.iter().map(|r| &r.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run, ExecConfig};
    use crate::expr::Expr;
    use crate::program::ProgramBuilder;
    use crate::sink::NoSink;
    use pebble_nested::{DataItem, Value};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pebble-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn ndjson_roundtrip_through_pipeline() {
        let items = vec![
            DataItem::from_fields([("k", Value::Int(1)), ("s", Value::str("a\nb"))]),
            DataItem::from_fields([("k", Value::Int(2)), ("s", Value::str("c"))]),
        ];
        let src = tmp("src.ndjson");
        let dst = tmp("dst.ndjson");
        write_ndjson(&src, &items).unwrap();

        let mut ctx = Context::new();
        assert_eq!(ctx.register_file("t", &src).unwrap(), 2);
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.filter(r, Expr::col("k").ge(Expr::lit(2i64)));
        let out = run(&b.build(f), &ctx, ExecConfig::with_partitions(2), &NoSink).unwrap();
        assert_eq!(out.write_ndjson(&dst).unwrap(), 1);

        let back = read_ndjson(&dst).unwrap();
        assert_eq!(back, vec![items[1].clone()]);
        let _ = std::fs::remove_file(src);
        let _ = std::fs::remove_file(dst);
    }

    #[test]
    fn blank_lines_skipped_and_errors_located() {
        let p = tmp("bad.ndjson");
        std::fs::write(&p, "{\"a\":1}\n\n{\"a\":2}\nnot json\n").unwrap();
        let err = read_ndjson(&p).unwrap_err();
        match err {
            IoError::Json { line, .. } => assert_eq!(line, 4),
            other => panic!("unexpected {other}"),
        }
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn line_endings_and_error_positions() {
        // CRLF endings, blank and whitespace-only lines, no final newline.
        let p = tmp("crlf.ndjson");
        std::fs::write(&p, "{\"a\":1}\r\n\r\n  \t\r\n  {\"a\":2}  \r\n{\"a\":3}").unwrap();
        let items = read_ndjson(&p).unwrap();
        let values: Vec<_> = items.iter().map(|d| d.get("a").cloned()).collect();
        assert_eq!(values, [1, 2, 3].map(|i| Some(Value::Int(i))));

        // Blank lines count towards the line number; the offset is relative
        // to the trimmed line.
        std::fs::write(
            &p,
            "\r\n{\"a\":1}\r\n\n\n  {\"a\":1,\"a\":2}\r\n{\"a\":3}\n",
        )
        .unwrap();
        match read_ndjson(&p).unwrap_err() {
            IoError::Json { line, error } => {
                assert_eq!(line, 5);
                assert_eq!(
                    (error.offset, error.message.as_str()),
                    (12, "duplicate key `a`")
                );
            }
            other => panic!("unexpected {other}"),
        }

        // A truncated last line without a newline is located too.
        std::fs::write(&p, "{\"a\":1}\n{\"a\":").unwrap();
        match read_ndjson(&p).unwrap_err() {
            IoError::Json { line, error } => {
                assert_eq!(line, 2);
                assert_eq!(
                    (error.offset, error.message.as_str()),
                    (5, "unexpected end")
                );
            }
            other => panic!("unexpected {other}"),
        }
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn invalid_utf8_line_is_fs_error() {
        let p = tmp("latin1.ndjson");
        std::fs::write(&p, b"{\"a\":1}\n{\"a\":\"caf\xe9\"}\n").unwrap();
        match read_ndjson(&p).unwrap_err() {
            IoError::Fs(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("unexpected {other}"),
        }
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn non_object_line_rejected() {
        let p = tmp("arr.ndjson");
        std::fs::write(&p, "[1,2]\n").unwrap();
        assert!(read_ndjson(&p).is_err());
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn missing_file_is_fs_error() {
        match read_ndjson("/nonexistent/pebble.ndjson").unwrap_err() {
            IoError::Fs(_) => {}
            other => panic!("unexpected {other}"),
        }
    }
}
