//! Minimal little-endian wire codec for snapshots, write-ahead-log
//! entries, and shard protocol payloads: fixed-width integers, bit-exact
//! floats (`f64::to_bits`), length-prefixed vectors, and UTF-8 strings.
//! Hand-rolled because the workspace's vendored `serde` shim is a no-op —
//! and because snapshots feed a **bitwise** determinism contract, so the
//! encoding must round-trip floats exactly (which text formats do not
//! guarantee without care).
//!
//! Decoding never panics and never over-allocates: every `get_*` returns
//! a typed [`WireError`] on truncated or malformed input, and every
//! length prefix is validated against the bytes actually remaining before
//! any allocation — a corrupt multi-terabyte length claim fails fast as
//! [`WireError::LengthOverflow`] instead of aborting on an impossible
//! `Vec` reservation. Pinned by a decode-never-panics proptest over
//! mutated byte streams (`crates/data/tests/wire_never_panics.rs`).

/// Typed decode failure. Corrupt bytes surface as one of these — never a
/// panic, never silently wrong state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a fixed-width field.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A length prefix claims more elements than the remaining bytes can
    /// possibly hold.
    LengthOverflow {
        /// The claimed element count.
        len: u64,
        /// Bytes each element occupies at minimum.
        elem_size: usize,
        /// Bytes that were left after the prefix.
        remaining: usize,
    },
    /// An enum tag (or similar discriminant) had no known meaning.
    UnknownTag {
        /// What was being decoded.
        what: &'static str,
        /// The unrecognized tag value.
        tag: u64,
    },
    /// A value decoded but violates its domain (non-UTF-8 string bytes,
    /// a `u64` that does not fit `usize`, ...).
    Invalid {
        /// What was being decoded.
        what: &'static str,
    },
    /// Decoding finished but unconsumed bytes remain — the buffer does
    /// not frame exactly one value.
    Trailing {
        /// Leftover byte count.
        remaining: usize,
    },
    /// A payload's leading format tag is not the one this build writes:
    /// it was written by another version of fairkm.
    UnsupportedVersion {
        /// The tag the payload starts with.
        found: u64,
        /// The tag this build reads and writes.
        expected: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(f, "truncated: needed {needed} bytes, {remaining} remain")
            }
            WireError::LengthOverflow {
                len,
                elem_size,
                remaining,
            } => write!(
                f,
                "length prefix {len} x {elem_size}B exceeds the {remaining} bytes remaining"
            ),
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::Invalid { what } => write!(f, "invalid {what}"),
            WireError::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
            WireError::UnsupportedVersion { found, expected } => write!(
                f,
                "unsupported format version {found:#018x} (this build reads {expected:#018x})"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Append a `u64` in little-endian order.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `usize` as a `u64`.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Append an `i64` in little-endian order.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its exact bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a `u32` in little-endian order.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed `f64` slice.
pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_f64(out, v);
    }
}

/// Append a length-prefixed `i64` slice.
pub fn put_i64s(out: &mut Vec<u8>, vs: &[i64]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_i64(out, v);
    }
}

/// Append a length-prefixed `u32` slice.
pub fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_u32(out, v);
    }
}

/// Append a length-prefixed `usize` slice (as `u64`s).
pub fn put_usizes(out: &mut Vec<u8>, vs: &[usize]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_usize(out, v);
    }
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Sequential reader over an encoded buffer. Every `get_*` consumes from
/// the front; truncated or malformed bytes return a typed [`WireError`].
#[derive(Debug)]
pub struct Reader<'b> {
    buf: &'b [u8],
}

impl<'b> Reader<'b> {
    /// Wrap a buffer for sequential decoding.
    pub fn new(buf: &'b [u8]) -> Self {
        Self { buf }
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Error unless every byte has been consumed — call after decoding a
    /// value that must frame the buffer exactly.
    pub fn expect_empty(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Trailing {
                remaining: self.buf.len(),
            })
        }
    }

    /// Consume and return exactly `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'b [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("slice is 8 bytes")))
    }

    /// Read a `usize` (encoded as `u64`; fails if it overflows `usize`).
    pub fn get_usize(&mut self) -> Result<usize, WireError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| WireError::Invalid { what: "usize" })
    }

    /// Read an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        self.take(8)
            .map(|b| i64::from_le_bytes(b.try_into().expect("slice is 8 bytes")))
    }

    /// Read an `f64` from its exact bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        self.get_u64().map(f64::from_bits)
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("slice is 4 bytes")))
    }

    /// Read and validate a length prefix for elements of at least
    /// `elem_size` bytes: the claimed count must fit in the bytes that
    /// remain, so corrupt prefixes fail *before* any allocation.
    pub fn get_len(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let len = self.get_u64()?;
        let remaining = self.buf.len();
        let fits = usize::try_from(len)
            .ok()
            .and_then(|l| l.checked_mul(elem_size.max(1)))
            .is_some_and(|total| total <= remaining);
        if !fits {
            return Err(WireError::LengthOverflow {
                len,
                elem_size: elem_size.max(1),
                remaining,
            });
        }
        Ok(len as usize)
    }

    /// Read a length-prefixed `f64` vector.
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let len = self.get_len(8)?;
        let mut vs = Vec::with_capacity(len);
        for _ in 0..len {
            vs.push(self.get_f64()?);
        }
        Ok(vs)
    }

    /// Read a length-prefixed `i64` vector.
    pub fn get_i64s(&mut self) -> Result<Vec<i64>, WireError> {
        let len = self.get_len(8)?;
        let mut vs = Vec::with_capacity(len);
        for _ in 0..len {
            vs.push(self.get_i64()?);
        }
        Ok(vs)
    }

    /// Read a length-prefixed `u32` vector.
    pub fn get_u32s(&mut self) -> Result<Vec<u32>, WireError> {
        let len = self.get_len(4)?;
        let mut vs = Vec::with_capacity(len);
        for _ in 0..len {
            vs.push(self.get_u32()?);
        }
        Ok(vs)
    }

    /// Read a length-prefixed `usize` vector.
    pub fn get_usizes(&mut self) -> Result<Vec<usize>, WireError> {
        let len = self.get_len(8)?;
        let mut vs = Vec::with_capacity(len);
        for _ in 0..len {
            vs.push(self.get_usize()?);
        }
        Ok(vs)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, WireError> {
        let len = self.get_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid {
            what: "utf-8 string",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_bits() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        put_f64s(&mut buf, &[1.0, f64::MIN_POSITIVE, f64::INFINITY]);
        put_i64s(&mut buf, &[-3, 0, i64::MIN]);
        put_u32s(&mut buf, &[7, u32::MAX]);
        put_usizes(&mut buf, &[0, 42]);
        put_str(&mut buf, "groupe protégé");
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u64(), Ok(u64::MAX));
        assert_eq!(r.get_f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.get_f64().map(f64::to_bits), Ok(f64::NAN.to_bits()));
        let fs = r.get_f64s().unwrap();
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[1], f64::MIN_POSITIVE);
        assert_eq!(r.get_i64s(), Ok(vec![-3, 0, i64::MIN]));
        assert_eq!(r.get_u32s(), Ok(vec![7, u32::MAX]));
        assert_eq!(r.get_usizes(), Ok(vec![0, 42]));
        assert_eq!(r.get_string().as_deref(), Ok("groupe protégé"));
        assert!(r.is_empty());
        assert_eq!(r.expect_empty(), Ok(()));
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        put_f64s(&mut buf, &[1.0, 2.0]);
        let mut r = Reader::new(&buf[..buf.len() - 1]);
        assert!(matches!(
            r.get_f64s(),
            Err(WireError::LengthOverflow { len: 2, .. })
        ));
        let mut r = Reader::new(&buf[..4]);
        assert!(matches!(r.get_u64(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn corrupt_length_prefixes_fail_before_allocating() {
        // A length prefix claiming u64::MAX elements must not reserve
        // memory for them.
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        put_f64(&mut buf, 1.0);
        let mut r = Reader::new(&buf);
        assert!(matches!(
            r.get_f64s(),
            Err(WireError::LengthOverflow {
                len: u64::MAX,
                elem_size: 8,
                ..
            })
        ));
    }

    #[test]
    fn trailing_bytes_are_a_typed_error() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 5);
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u32(), Ok(5));
        assert_eq!(r.expect_empty(), Ok(()));
        let r = Reader::new(&buf);
        assert_eq!(r.expect_empty(), Err(WireError::Trailing { remaining: 4 }));
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let mut buf = Vec::new();
        put_usize(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = Reader::new(&buf);
        assert_eq!(
            r.get_string(),
            Err(WireError::Invalid {
                what: "utf-8 string"
            })
        );
    }
}
