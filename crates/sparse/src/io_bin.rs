//! Binary CSR serialization — the `.mtx.bin` format of the paper's
//! artifact ("binary files containing SuiteSparse matrices"), so large
//! inputs load without ASCII parsing.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic  b"DSWB"            4 bytes
//! version u32               (currently 1)
//! nrows  u64
//! ncols  u64
//! nnz    u64
//! row_ptr (nrows + 1) × u64
//! col_idx nnz × u64
//! values  nnz × f64
//! ```

use crate::{CsrMatrix, Result, SparseError};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"DSWB";
const VERSION: u32 = 1;

fn write_u64<W: Write>(w: &mut W, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Words per bulk-transfer chunk (512 KiB of bytes). Bounded so a lying
/// header can never force a huge up-front allocation: output vectors grow
/// only as payload bytes actually arrive from the stream.
const CHUNK_WORDS: usize = 1 << 16;

/// Reads `n` little-endian u64 words as `usize`, in bulk chunks.
fn read_u64_vec<R: Read>(r: &mut R, n: usize) -> Result<Vec<usize>> {
    let mut out = Vec::with_capacity(n.min(CHUNK_WORDS));
    let mut buf = vec![0u8; n.min(CHUNK_WORDS) * 8];
    let mut left = n;
    while left > 0 {
        let take = left.min(CHUNK_WORDS);
        let bytes = &mut buf[..take * 8];
        r.read_exact(bytes)?;
        out.reserve(take);
        for w in bytes.chunks_exact(8) {
            out.push(u64::from_le_bytes(w.try_into().expect("8-byte chunk")) as usize);
        }
        left -= take;
    }
    Ok(out)
}

/// Reads `n` little-endian f64 values, in bulk chunks.
fn read_f64_vec<R: Read>(r: &mut R, n: usize) -> Result<Vec<f64>> {
    let mut out = Vec::with_capacity(n.min(CHUNK_WORDS));
    let mut buf = vec![0u8; n.min(CHUNK_WORDS) * 8];
    let mut left = n;
    while left > 0 {
        let take = left.min(CHUNK_WORDS);
        let bytes = &mut buf[..take * 8];
        r.read_exact(bytes)?;
        out.reserve(take);
        for w in bytes.chunks_exact(8) {
            out.push(f64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        left -= take;
    }
    Ok(out)
}

/// Serializes `usize` words to little-endian u64 bytes in bulk chunks.
fn write_u64_slice<W: Write>(w: &mut W, vals: &[usize]) -> Result<()> {
    let mut buf = vec![0u8; vals.len().min(CHUNK_WORDS) * 8];
    for chunk in vals.chunks(CHUNK_WORDS) {
        let bytes = &mut buf[..chunk.len() * 8];
        for (b, &v) in bytes.chunks_exact_mut(8).zip(chunk) {
            b.copy_from_slice(&(v as u64).to_le_bytes());
        }
        w.write_all(bytes)?;
    }
    Ok(())
}

/// Serializes f64 values to little-endian bytes in bulk chunks.
fn write_f64_slice<W: Write>(w: &mut W, vals: &[f64]) -> Result<()> {
    let mut buf = vec![0u8; vals.len().min(CHUNK_WORDS) * 8];
    for chunk in vals.chunks(CHUNK_WORDS) {
        let bytes = &mut buf[..chunk.len() * 8];
        for (b, &v) in bytes.chunks_exact_mut(8).zip(chunk) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(bytes)?;
    }
    Ok(())
}

/// Writes a matrix in the binary format.
pub fn write_bin<W: Write>(a: &CsrMatrix, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    write_u64(&mut w, a.nrows() as u64)?;
    write_u64(&mut w, a.ncols() as u64)?;
    write_u64(&mut w, a.nnz() as u64)?;
    write_u64_slice(&mut w, a.row_ptr())?;
    write_u64_slice(&mut w, a.col_idx())?;
    write_f64_slice(&mut w, a.values())?;
    w.flush()?;
    Ok(())
}

/// Exclusive upper bound on the `nrows`, `ncols` and `nnz` a matrix file's
/// header may declare, checked by both readers before any allocation.
pub(crate) const HEADER_LIMIT: u64 = 1 << 33;

/// Reads a matrix in the binary format, validating the header and the CSR
/// invariants.
///
/// Header fields are u64 on disk and are validated *before* any cast or
/// payload allocation, so a lying header (say a >4Gi-entry `nnz` on a
/// 100-byte file) fails with a clean error instead of attempting a
/// multi-gigabyte allocation; payload vectors then grow chunk by chunk,
/// only as bytes actually arrive.
pub fn read_bin<R: Read>(reader: R) -> Result<CsrMatrix> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(SparseError::Parse("not a DSWB binary matrix".into()));
    }
    let mut vbuf = [0u8; 4];
    r.read_exact(&mut vbuf)?;
    let version = u32::from_le_bytes(vbuf);
    if version != VERSION {
        return Err(SparseError::Parse(format!(
            "unsupported DSWB version {version}"
        )));
    }
    let nrows64 = read_u64(&mut r)?;
    let ncols64 = read_u64(&mut r)?;
    let nnz64 = read_u64(&mut r)?;
    // Guard against absurd headers before casting or allocating.
    if nrows64 >= HEADER_LIMIT || ncols64 >= HEADER_LIMIT || nnz64 >= HEADER_LIMIT {
        return Err(SparseError::Parse(format!(
            "header dimensions implausibly large \
             (nrows = {nrows64}, ncols = {ncols64}, nnz = {nnz64})"
        )));
    }
    let (nrows, ncols, nnz) = (nrows64 as usize, ncols64 as usize, nnz64 as usize);
    let row_ptr = read_u64_vec(&mut r, nrows + 1)?;
    let col_idx = read_u64_vec(&mut r, nnz)?;
    let values = read_f64_vec(&mut r, nnz)?;
    CsrMatrix::from_parts(nrows, ncols, row_ptr, col_idx, values)
}

/// Writes the binary format to a file.
pub fn write_bin_file<P: AsRef<Path>>(a: &CsrMatrix, path: P) -> Result<()> {
    write_bin(a, std::fs::File::create(path)?)
}

/// Reads the binary format from a file.
pub fn read_bin_file<P: AsRef<Path>>(path: P) -> Result<CsrMatrix> {
    read_bin(std::fs::File::open(path)?)
}

/// Loads a matrix by extension: `.bin` / `.mtx.bin` binary, anything else
/// Matrix Market (the artifact's loading rule).
pub fn read_matrix_auto<P: AsRef<Path>>(path: P) -> Result<CsrMatrix> {
    let p = path.as_ref();
    if p.extension().and_then(|e| e.to_str()) == Some("bin") {
        read_bin_file(p)
    } else {
        crate::io::read_matrix_market_file(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn binary_roundtrip() {
        let a = gen::grid2d_poisson(7, 5);
        let mut buf = Vec::new();
        write_bin(&a, &mut buf).unwrap();
        let b = read_bin(&buf[..]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(matches!(
            read_bin(&b"XXXX"[..]),
            Err(SparseError::Parse(_)) | Err(SparseError::Io(_))
        ));
        let mut buf = Vec::new();
        write_bin(&gen::grid2d_poisson(2, 2), &mut buf).unwrap();
        buf[4] = 9; // version
        assert!(matches!(read_bin(&buf[..]), Err(SparseError::Parse(_))));
    }

    #[test]
    fn rejects_truncated_payload() {
        let mut buf = Vec::new();
        write_bin(&gen::grid2d_poisson(4, 4), &mut buf).unwrap();
        buf.truncate(buf.len() - 9);
        assert!(read_bin(&buf[..]).is_err());
    }

    #[test]
    fn lying_headers_err_cleanly_without_allocating() {
        // A >4Gi-entry nnz field on a near-empty stream must be rejected
        // at header validation, long before any payload allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes()); // nrows
        buf.extend_from_slice(&2u64.to_le_bytes()); // ncols
        buf.extend_from_slice(&(1u64 << 33).to_le_bytes()); // nnz at LIMIT
        assert!(matches!(read_bin(&buf[..]), Err(SparseError::Parse(_))));
        // u64::MAX fields must not wrap or cast badly either.
        let at = buf.len() - 8;
        buf[at..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(read_bin(&buf[..]), Err(SparseError::Parse(_))));
        // A large-but-legal nnz on a truncated stream errs on the missing
        // bytes; the chunked reader caps the up-front allocation to one
        // transfer chunk, so this cannot OOM.
        buf[at..].copy_from_slice(&((1u64 << 33) - 1).to_le_bytes());
        assert!(matches!(read_bin(&buf[..]), Err(SparseError::Io(_))));
    }

    #[test]
    fn auto_loader_dispatches_on_extension() {
        let a = gen::grid2d_poisson(3, 3);
        let dir = std::env::temp_dir();
        let binp = dir.join("dsw_auto_test.mtx.bin");
        let mtxp = dir.join("dsw_auto_test.mtx");
        write_bin_file(&a, &binp).unwrap();
        crate::io::write_matrix_market(&a, std::fs::File::create(&mtxp).unwrap()).unwrap();
        assert_eq!(read_matrix_auto(&binp).unwrap(), a);
        assert_eq!(read_matrix_auto(&mtxp).unwrap(), a);
        let _ = std::fs::remove_file(binp);
        let _ = std::fs::remove_file(mtxp);
    }
}
