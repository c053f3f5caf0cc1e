//! Primitive byte-level encode/decode helpers.

/// Wire decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before the value.
    Truncated,
    /// A length prefix exceeded sanity bounds.
    TooLarge(usize),
    /// Unknown enum tag.
    BadTag(u8),
    /// Trailing garbage after a complete message.
    TrailingBytes(usize),
    /// Invalid UTF-8 in a string field.
    BadString,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::TooLarge(n) => write!(f, "length {n} exceeds limit"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            WireError::BadString => write!(f, "invalid utf-8 string"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum element count for any repeated field (DoS guard).
pub const MAX_REPEATED: usize = 1 << 24;

/// Append-only message writer.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer appending to an existing buffer — the reuse path: callers
    /// that encode many messages (one frame per request on a connection)
    /// pass the same vector back in and keep its capacity.
    pub fn with_vec(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian i64.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian u128.
    pub fn u128(&mut self, v: u128) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }
}

/// Cursor-based message reader.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails if anything remains (strict message parsing).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Like [`take`](Self::take) but yields a fixed-size array, so the
    /// integer readers below need no fallible slice-to-array conversion.
    fn take_arr<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let s = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_arr()?))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_arr()?))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take_arr()?))
    }

    /// Reads a little-endian u128.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.take_arr()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        Ok(self.bytes_borrowed()?.to_vec())
    }

    /// Reads a length-prefixed byte string as a borrow of the input buffer
    /// (no copy) — the zero-copy decode path for large payload fields.
    pub fn bytes_borrowed(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::BadString)
    }

    /// Reads a length-prefixed u64 vector.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_REPEATED || n * 8 > self.remaining() {
            return Err(WireError::Truncated);
        }
        (0..n).map(|_| self.u64()).collect()
    }
}

/// A value with a wire form. The message tables in
/// [`messages`](crate::messages) are lists of typed fields; each field is
/// written and parsed through this trait, in declaration order.
pub(crate) trait Wire: Sized {
    /// Appends the value.
    fn put(&self, w: &mut ByteWriter);

    /// Parses one value.
    fn take(r: &mut ByteReader<'_>) -> Result<Self, WireError>;

    /// Appends a repeated field: `u32` element count, then the elements.
    fn put_slice(items: &[Self], w: &mut ByteWriter) {
        w.u32(items.len() as u32);
        for item in items {
            item.put(w);
        }
    }

    /// Parses a repeated field. The count is checked against
    /// [`MAX_REPEATED`] and never trusted for more than 1024 elements of
    /// capacity up front: a hostile count costs the peer a frame that long.
    fn take_vec(r: &mut ByteReader<'_>) -> Result<Vec<Self>, WireError> {
        let n = r.u32()? as usize;
        if n > MAX_REPEATED {
            return Err(WireError::TooLarge(n));
        }
        let mut items = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            items.push(Self::take(r)?);
        }
        Ok(items)
    }
}

macro_rules! wire_int {
    ($($int:ident),*) => {$(
        impl Wire for $int {
            fn put(&self, w: &mut ByteWriter) {
                w.$int(*self);
            }
            fn take(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
                r.$int()
            }
        }
    )*};
}
wire_int!(u32, i64, u128);

/// A `Vec<u8>` is a length-prefixed byte string: one copy in, one copy
/// out, no per-element work.
impl Wire for u8 {
    fn put(&self, w: &mut ByteWriter) {
        w.u8(*self);
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
    fn put_slice(items: &[Self], w: &mut ByteWriter) {
        w.bytes(items);
    }
    fn take_vec(r: &mut ByteReader<'_>) -> Result<Vec<Self>, WireError> {
        r.bytes()
    }
}

/// A `Vec<u64>` parses through [`ByteReader::u64_vec`], whose count is
/// checked against the bytes that remain (`Truncated`, exact capacity).
impl Wire for u64 {
    fn put(&self, w: &mut ByteWriter) {
        w.u64(*self);
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
    fn take_vec(r: &mut ByteReader<'_>) -> Result<Vec<Self>, WireError> {
        r.u64_vec()
    }
}

/// One byte, zero for false; any other value parses as true.
impl Wire for bool {
    fn put(&self, w: &mut ByteWriter) {
        w.u8(u8::from(*self));
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(r.u8()? != 0)
    }
}

impl Wire for String {
    fn put(&self, w: &mut ByteWriter) {
        w.string(self);
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        r.string()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut ByteWriter) {
        T::put_slice(self, w);
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        T::take_vec(r)
    }
}

/// A tag byte — 0 for `None`, 1 for `Some` — then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut ByteWriter) {
        w.u8(self.is_some().into());
        self.iter().for_each(|v| v.put(w));
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => None,
            1 => Some(T::take(r)?),
            tag => return Err(WireError::BadTag(tag)),
        })
    }
}

/// A tag byte — 0 for `Ok`, 1 for `Err` — then the value.
impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            Ok(v) => v.put(w.u8(0)),
            Err(e) => e.put(w.u8(1)),
        }
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Ok(T::take(r)?),
            1 => Err(E::take(r)?),
            tag => return Err(WireError::BadTag(tag)),
        })
    }
}

macro_rules! wire_tuple {
    ($($part:ident . $idx:tt),*) => {
        impl<$($part: Wire),*> Wire for ($($part,)*) {
            fn put(&self, w: &mut ByteWriter) {
                $(self.$idx.put(w);)*
            }
            fn take(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
                Ok(($($part::take(r)?,)*))
            }
        }
    };
}
wire_tuple!(A.0, B.1);
wire_tuple!(A.0, B.1, C.2);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.u8(7)
            .u32(1234)
            .u64(u64::MAX)
            .i64(-5)
            .u128(1 << 100)
            .bytes(b"blob")
            .string("héllo");
        vec![1u64, 2, 3].put(&mut w);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 1234);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -5);
        assert_eq!(r.u128().unwrap(), 1 << 100);
        assert_eq!(r.bytes().unwrap(), b"blob");
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_detected_everywhere() {
        let mut w = ByteWriter::new();
        w.u64(1).bytes(b"abc");
        let buf = w.into_bytes();
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            let ok = r.u64().and_then(|_| r.bytes());
            assert!(ok.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = ByteWriter::new();
        w.u8(1).u8(2);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // A bytes field claiming 4 GB must not allocate.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.bytes(), Err(WireError::Truncated));
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u64_vec(), Err(WireError::Truncated));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = ByteWriter::new();
        w.bytes(&[0xff, 0xfe]);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.string(), Err(WireError::BadString));
    }
}
