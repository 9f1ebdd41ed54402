//! Compact binary encoding helpers shared by all LabBase record types.
//!
//! Hand-rolled little-endian framing rather than a general serializer:
//! the storage schema is fixed (that is the paper's point — see Table 1),
//! so the encoder can be minimal and allocation-light.

use crate::error::{LabError, Result};

/// Append-only writer over a byte vector.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::with_capacity(64) }
    }

    /// Keep appending after the bytes already in `buf` (a caller that
    /// encodes into a buffer it reuses).
    pub fn resume(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// Finish and take the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Write a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian f64.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked reader over encoded bytes.
pub struct Reader<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `data` from the beginning.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.at + n > self.data.len() {
            return Err(LabError::Decode(format!(
                "truncated record: wanted {n} bytes at offset {}, have {}",
                self.at,
                self.data.len()
            )));
        }
        let s = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Take exactly `N` bytes as an array (for the fixed-width readers;
    /// `take` has already bounds-checked, so the conversion is by
    /// construction — but a typed error keeps the decode path panic-free
    /// even if that coupling ever breaks).
    fn arr<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.take(N)?
            .try_into()
            .map_err(|_| LabError::Decode("truncated fixed-width field".into()))
    }

    /// Read a single byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.arr::<1>()?[0])
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.arr()?))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.arr()?))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.arr()?))
    }

    /// Read a little-endian f64.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.arr()?))
    }

    /// Read a u32 item count, refusing one whose items, at
    /// `min_item_bytes` each at the least, could not fit in the bytes
    /// that remain. Decoders size their allocations by the count, so a
    /// corrupt one is a typed error here instead of an allocation abort.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(LabError::Decode(format!(
                "count {n} of items at least {min_item_bytes} bytes each exceeds the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| LabError::Decode("invalid UTF-8 in string field".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.f64(3.5);
        w.str("materials & steps");
        w.bytes(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 3.5);
        assert_eq!(r.str().unwrap(), "materials & steps");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.str("hello");
        let buf = w.finish();
        let mut r = Reader::new(&buf[..buf.len() - 2]);
        assert!(matches!(r.str(), Err(LabError::Decode(_))));
    }

    #[test]
    fn a_count_must_fit_the_bytes_left() {
        let mut w = Writer::new();
        w.u32(3);
        w.u64(0);
        w.u64(0);
        let buf = w.finish();
        assert!(matches!(Reader::new(&buf).count(8), Err(LabError::Decode(_))));
        assert_eq!(Reader::new(&buf).count(5).unwrap(), 3);
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let buf = w.finish();
        assert!(matches!(Reader::new(&buf).count(1), Err(LabError::Decode(_))));
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE, 0x00]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.str(), Err(LabError::Decode(_))));
    }
}
