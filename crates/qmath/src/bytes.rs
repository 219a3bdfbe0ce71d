//! Bounds-checked little-endian binary codec for the shared cache
//! segment.
//!
//! Segment records (see `reqisc-compiler`'s `sharing` module) carry
//! flat byte streams assembled from these primitives. Two invariants
//! every codec in the workspace must keep:
//!
//! * **Determinism** — encoding the same value twice yields the same
//!   bytes (f64s are written as raw IEEE-754 bits, `-0.0` included: the
//!   segment round-trips values *exactly*, canonicalization is the cache
//!   key's job, not the codec's).
//! * **Total decoding** — a [`ByteReader`] never panics on malformed
//!   input; every read is bounds-checked and returns [`CodecError`] so a
//!   truncated or corrupted record degrades to a cache miss.
//!
//! Layout changes to any codec built on these primitives must bump the
//! store format version (decoders are not expected to skip unknown
//! fields).

use crate::c64::C64;
use crate::mat::CMat;
use crate::weyl::WeylCoord;

/// Error produced by [`ByteReader`] on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What failed to decode.
    pub message: String,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode failed: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

impl CodecError {
    /// Shorthand constructor.
    pub fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

/// Growable little-endian byte sink.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far (borrowed).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128` (little-endian).
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` (little-endian two's complement).
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64` for layout independence.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends the raw IEEE-754 bits of `v`.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes (no length prefix — callers frame themselves).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Bounds-checked reader over an immutable byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::new(format!(
                "unexpected end of input: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and narrows it to `usize`, rejecting overflow (a
    /// corrupted length field must fail cleanly on 32-bit hosts too).
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::new(format!("length {v} overflows usize")))
    }

    /// Reads a `u64` length field and validates it against the bytes
    /// actually remaining, scaled by the minimum encoded size of one
    /// element — the guard that keeps a corrupted count from triggering a
    /// huge up-front allocation.
    pub fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.get_usize()?;
        let need = n.saturating_mul(min_elem_bytes.max(1));
        if need > self.remaining() {
            return Err(CodecError::new(format!(
                "count {n} needs ≥ {need} bytes but only {} remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads raw IEEE-754 bits as `f64`.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Borrows the next `len` raw bytes (bounds-checked) — the reader
    /// half of [`ByteWriter::put_bytes`] for length-prefixed blobs.
    pub fn get_bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        self.take(len)
    }
}

/// Encodes a complex scalar as `(re, im)` raw bits.
pub fn write_c64(w: &mut ByteWriter, z: C64) {
    w.put_f64(z.re);
    w.put_f64(z.im);
}

/// Decodes a complex scalar.
pub fn read_c64(r: &mut ByteReader<'_>) -> Result<C64, CodecError> {
    let re = r.get_f64()?;
    let im = r.get_f64()?;
    Ok(C64 { re, im })
}

/// Encodes a matrix: `rows, cols` then row-major `(re, im)` pairs.
pub fn write_cmat(w: &mut ByteWriter, m: &CMat) {
    w.put_usize(m.rows());
    w.put_usize(m.cols());
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            write_c64(w, m[(i, j)]);
        }
    }
}

/// Decodes a matrix, rejecting dimensions larger than the remaining
/// input could possibly hold.
pub fn read_cmat(r: &mut ByteReader<'_>) -> Result<CMat, CodecError> {
    let rows = r.get_usize()?;
    let cols = r.get_usize()?;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| CodecError::new("matrix dimensions overflow"))?;
    if n.saturating_mul(16) > r.remaining() {
        return Err(CodecError::new(format!(
            "{rows}x{cols} matrix needs {} bytes, {} remain",
            n.saturating_mul(16),
            r.remaining()
        )));
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(read_c64(r)?);
    }
    Ok(CMat::from_slice(rows, cols, &data))
}

/// Encodes Weyl coordinates as three raw f64s.
pub fn write_weyl(w: &mut ByteWriter, c: &WeylCoord) {
    w.put_f64(c.x);
    w.put_f64(c.y);
    w.put_f64(c.z);
}

/// Decodes Weyl coordinates.
pub fn read_weyl(r: &mut ByteReader<'_>) -> Result<WeylCoord, CodecError> {
    Ok(WeylCoord::new(r.get_f64()?, r.get_f64()?, r.get_f64()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    #[test]
    fn primitive_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_u128(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        w.put_i64(-42);
        w.put_usize(99);
        w.put_f64(-0.0);
        w.put_f64(std::f64::consts::PI);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_u128().unwrap(), 0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_usize().unwrap(), 99);
        // -0.0 round-trips bit-exactly (the codec never canonicalizes).
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let bytes = [1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_u64().is_err());
        assert_eq!(r.get_u8().unwrap(), 1); // position unchanged by failures
        let mut r2 = ByteReader::new(&bytes);
        assert!(r2.get_u128().is_err());
        assert!(r2.get_f64().is_err());
    }

    #[test]
    fn count_guard_rejects_absurd_lengths() {
        let mut w = ByteWriter::new();
        w.put_usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_count(8).is_err());
    }

    #[test]
    fn cmat_roundtrip_and_dimension_guard() {
        for m in [gates::cnot(), gates::hadamard(), gates::swap()] {
            let mut w = ByteWriter::new();
            write_cmat(&mut w, &m);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = read_cmat(&mut r).expect("roundtrip");
            assert!(r.is_exhausted());
            assert_eq!(back.rows(), m.rows());
            for i in 0..m.rows() {
                for j in 0..m.cols() {
                    assert_eq!(back[(i, j)].re.to_bits(), m[(i, j)].re.to_bits());
                    assert_eq!(back[(i, j)].im.to_bits(), m[(i, j)].im.to_bits());
                }
            }
        }
        // A forged huge dimension fails fast instead of allocating.
        let mut w = ByteWriter::new();
        w.put_usize(1 << 40);
        w.put_usize(1 << 40);
        let bytes = w.into_bytes();
        assert!(read_cmat(&mut ByteReader::new(&bytes)).is_err());
    }
}
