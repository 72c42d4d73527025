//! The byte-level primitives: a bounds-checked [`Reader`], an appending
//! [`Writer`], and the [`WireFormat`] trait tying a type to its encoding.
//!
//! All integers are big-endian (network byte order) and fixed-width, so the
//! encoded size of a message equals its
//! [`WireSize`](sle_sim::actor::WireSize) — the byte budget the simulator
//! has always charged for it.

use crate::error::WireError;

/// An append-only byte sink for encoding.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// A writer appending to `buf` (what it holds stays in front).
    pub fn from_bytes(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
}

/// A bounds-checked cursor over received bytes for decoding.
///
/// Every `take_*` either returns a value or a [`WireError::Truncated`];
/// there is no way to read past the end, so feeding the decoder arbitrary
/// network garbage is safe.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads exactly `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Fails with [`WireError::TrailingBytes`] unless the buffer is spent.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }
}

/// A type with a canonical binary encoding on the service's wire.
///
/// The contract, enforced by the property tests in this crate:
///
/// 1. `decode(encode(x)) == x` for every value (round-trip),
/// 2. decoding never panics, whatever the bytes,
/// 3. for the service message types, the encoded length equals the
///    simulator's [`WireSize`](sle_sim::actor::WireSize) accounting.
pub trait WireFormat: Sized {
    /// Appends this value's encoding to `w`.
    fn encode_into(&self, w: &mut Writer);

    /// Decodes one value from `r`, consuming exactly its encoding.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the bytes are truncated or malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

impl WireFormat for u8 {
    fn encode_into(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_u8()
    }
}

impl WireFormat for u16 {
    fn encode_into(&self, w: &mut Writer) {
        w.put_u16(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_u16()
    }
}

impl WireFormat for u32 {
    fn encode_into(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_u32()
    }
}

impl WireFormat for u64 {
    fn encode_into(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip_big_endian() {
        let mut w = Writer::new();
        0xAAu8.encode_into(&mut w);
        0x1234u16.encode_into(&mut w);
        0xDEAD_BEEFu32.encode_into(&mut w);
        0x0102_0304_0506_0708u64.encode_into(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 0xAA);
        assert_eq!(&bytes[1..3], &[0x12, 0x34]);
        let mut r = Reader::new(&bytes);
        assert_eq!(u8::decode(&mut r).unwrap(), 0xAA);
        assert_eq!(u16::decode(&mut r).unwrap(), 0x1234);
        assert_eq!(u32::decode(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::decode(&mut r).unwrap(), 0x0102_0304_0506_0708);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncated_reads_report_needed_and_remaining() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(
            u64::decode(&mut r),
            Err(WireError::Truncated {
                needed: 8,
                remaining: 3
            })
        );
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 3);
        assert_eq!(u16::decode(&mut r).unwrap(), 0x0102);
        assert_eq!(r.expect_end(), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn writer_reports_length() {
        let mut w = Writer::new();
        assert!(w.is_empty());
        w.put_bytes(&[1, 2, 3]);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
    }
}
