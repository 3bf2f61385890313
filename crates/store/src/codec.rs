//! The one bounded reader behind every length-prefixed decoder: the ASDB
//! snapshot, redo records, the OKWS worker's row buffer and the wire.
//!
//! No field is read past the end of the input, and [`Reader::count`]
//! refuses a count the bytes left cannot hold before anything is reserved
//! for it, so what a decoder reserves is bounded by its input. Each format
//! keeps its own error type, which [`CodecError`] converts into. Every
//! method is `#[inline]`: the workspace has no LTO, and the wire and row
//! paths call these across crates.

/// What the reader itself can find wrong with its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a field did, or a count claimed more items
    /// than the bytes left could hold.
    Truncated,
    /// A string field is not UTF-8.
    BadText,
    /// Bytes are left after the last field.
    TrailingBytes,
}

/// A cursor over borrowed bytes.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.bytes.len() - self.pos < n {
            return Err(CodecError::Truncated);
        }
        self.pos += n;
        Ok(&self.bytes[self.pos - n..self.pos])
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let &head = self.bytes[self.pos..]
            .first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.pos += N;
        Ok(head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.array().map(u8::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` count of items at least `min_bytes` long each (a zero-width
    /// item still counts one byte), refused when the bytes left cannot
    /// hold that many.
    #[inline]
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes.max(1)) > self.bytes.len() - self.pos {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// A `u32` length and that many bytes.
    #[inline]
    pub fn blob(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A [`Reader::blob`] that must be UTF-8.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.blob()?).map_err(|_| CodecError::BadText)
    }

    /// Succeeds only if every byte has been read.
    #[inline]
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.pos == self.bytes.len() {
            true => Ok(()),
            false => Err(CodecError::TrailingBytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_lengths_and_counts_are_bounded_by_the_bytes_left() {
        let bytes = [7, 2, 0, 0, 0, b'h', b'i', 0xFF, 0xFF, 0xFF, 0xFF];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.str(), Ok("hi"));
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes));
        assert_eq!(
            Reader::new(&bytes[7..]).count(0),
            Err(CodecError::Truncated)
        );
        assert_eq!(Reader::new(&bytes[7..]).blob(), Err(CodecError::Truncated));
        assert_eq!(
            Reader::new(&[1, 0, 0, 0, 0xFF]).str(),
            Err(CodecError::BadText)
        );
        assert_eq!(Reader::new(&[1, 0, 0, 0, 0]).count(1), Ok(1));
        assert_eq!(
            Reader::new(&[1, 0, 0, 0, 0]).count(2),
            Err(CodecError::Truncated)
        );
    }
}
