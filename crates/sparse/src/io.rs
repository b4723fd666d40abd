//! Matrix Market (`.mtx`) reading and writing.
//!
//! Supports the `matrix coordinate real {general|symmetric}` and
//! `matrix coordinate pattern {general|symmetric}` headers, which covers
//! every SuiteSparse SPD matrix the paper uses, so a user with access to the
//! original collection can run the harness on the real inputs.

use crate::io_bin::HEADER_LIMIT;
use crate::{CooBuilder, CsrMatrix, Result, SparseError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Pattern,
    Integer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

/// Reads a Matrix Market file from a reader.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CsrMatrix> {
    let mut lines = BufReader::new(reader).lines();

    let header = lines
        .next()
        .ok_or_else(|| SparseError::Parse("empty file".into()))?
        .map_err(SparseError::from)?;
    let h: Vec<String> = header
        .split_whitespace()
        .map(|s| s.to_lowercase())
        .collect();
    if h.len() < 5 || h[0] != "%%matrixmarket" || h[1] != "matrix" {
        return Err(SparseError::Parse(format!("bad header: {header}")));
    }
    if h[2] != "coordinate" {
        return Err(SparseError::Parse(
            "only coordinate format supported".into(),
        ));
    }
    let field = match h[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(SparseError::Parse(format!("unsupported field: {other}"))),
    };
    let symmetry = match h[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => return Err(SparseError::Parse(format!("unsupported symmetry: {other}"))),
    };

    // Skip comments, read the size line.
    let size_line = loop {
        let line = lines
            .next()
            .ok_or_else(|| SparseError::Parse("missing size line".into()))?
            .map_err(SparseError::from)?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        break t.to_string();
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|e| SparseError::Parse(e.to_string()))
        })
        .collect::<Result<_>>()?;
    if dims.len() != 3 {
        return Err(SparseError::Parse(format!("bad size line: {size_line}")));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    if dims.iter().any(|&d| d as u64 >= HEADER_LIMIT) {
        return Err(SparseError::Parse(format!(
            "size line implausibly large: {size_line}"
        )));
    }

    // Grow with the entries actually read: `nnz` is only a claim.
    let mut builder = CooBuilder::new(nrows, ncols);
    let mut seen = 0usize;
    for line in lines {
        let line = line.map_err(SparseError::from)?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it
            .next()
            .ok_or_else(|| SparseError::Parse("missing row index".into()))?
            .parse()
            .map_err(|e: std::num::ParseIntError| SparseError::Parse(e.to_string()))?;
        let j: usize = it
            .next()
            .ok_or_else(|| SparseError::Parse("missing col index".into()))?
            .parse()
            .map_err(|e: std::num::ParseIntError| SparseError::Parse(e.to_string()))?;
        let v = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => it
                .next()
                .ok_or_else(|| SparseError::Parse("missing value".into()))?
                .parse::<f64>()
                .map_err(|e| SparseError::Parse(e.to_string()))?,
        };
        if i == 0 || j == 0 || i > nrows || j > ncols {
            return Err(SparseError::Parse(format!("index ({i},{j}) out of bounds")));
        }
        // Matrix Market is 1-based.
        let (i, j) = (i - 1, j - 1);
        builder.push(i, j, v);
        if symmetry == Symmetry::Symmetric && i != j {
            builder.push(j, i, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::Parse(format!(
            "expected {nnz} entries, found {seen}"
        )));
    }
    builder.build()
}

/// Reads a Matrix Market file from a path.
pub fn read_matrix_market_file<P: AsRef<Path>>(path: P) -> Result<CsrMatrix> {
    let file = std::fs::File::open(path)?;
    read_matrix_market(file)
}

/// Writes a matrix in `coordinate real general` format.
pub fn write_matrix_market<W: Write>(a: &CsrMatrix, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for i in 0..a.nrows() {
        for (j, v) in a.row(i) {
            writeln!(w, "{} {} {:.17e}", i + 1, j + 1, v)?;
        }
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid2d_poisson;

    #[test]
    fn roundtrip_general() {
        let a = grid2d_poisson(4, 3);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reads_symmetric_lower_triangle() {
        let text = "\
%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 4
1 1 2.0
2 1 -1.0
2 2 2.0
3 3 2.0
";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(2, 2), 2.0);
        assert_eq!(a.nnz(), 5);
    }

    #[test]
    fn reads_pattern() {
        let text = "\
%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 1), 1.0);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market("garbage\n1 1 0\n".as_bytes()).is_err());
        assert!(read_matrix_market(
            "%%MatrixMarket matrix array real general\n1 1\n1.0\n".as_bytes()
        )
        .is_err());
    }

    #[test]
    fn rejects_wrong_count_and_bounds() {
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market(short.as_bytes()).is_err());
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(oob.as_bytes()).is_err());
        let zero = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market(zero.as_bytes()).is_err());
        // Lying headers over a one-entry body: a huge `nnz` claim, and a
        // huge row count. Both are rejected before any allocation.
        for size in ["3 3 9223372036854775807", "9223372036854775807 3 1"] {
            let text =
                format!("%%MatrixMarket matrix coordinate real symmetric\n{size}\n1 1 1.0\n");
            assert!(
                matches!(
                    read_matrix_market(text.as_bytes()),
                    Err(SparseError::Parse(_))
                ),
                "{size}"
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let a = grid2d_poisson(3, 3);
        let dir = std::env::temp_dir().join("dsw_io_test.mtx");
        write_matrix_market(&a, std::fs::File::create(&dir).unwrap()).unwrap();
        let b = read_matrix_market_file(&dir).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_file(&dir);
    }
}
