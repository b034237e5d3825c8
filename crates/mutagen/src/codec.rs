//! The little-endian record codec of the outcome ledger and the service
//! protocol: integers are little-endian, strings are `u32 len + UTF-8`.
//!
//! Writers append to a `Vec<u8>`. A [`Reader`] walks one record's bytes
//! and answers every read past its end, or of a string that is not
//! UTF-8, with [`Malformed`], so a torn or hostile record is an error,
//! never a panic.

use std::fmt;
use std::io;

/// Append `v`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `s` as its byte length (`u32`) then its bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A record that ends early, holds a string that is not UTF-8, or has
/// bytes left over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malformed;

impl fmt::Display for Malformed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("record truncated, not UTF-8, or with trailing bytes")
    }
}

impl std::error::Error for Malformed {}

impl From<Malformed> for io::Error {
    fn from(e: Malformed) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Reads one record's fields in the order they were put.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, off: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Malformed> {
        let end = self.off.checked_add(n).filter(|&end| end <= self.bytes.len()).ok_or(Malformed)?;
        let taken = &self.bytes[self.off..end];
        self.off = end;
        Ok(taken)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, Malformed> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Malformed> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Malformed> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// The next length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, Malformed> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| Malformed)
    }

    /// End the record: an error if any byte is left unread.
    pub fn finish(self) -> Result<(), Malformed> {
        if self.off == self.bytes.len() {
            Ok(())
        } else {
            Err(Malformed)
        }
    }
}
