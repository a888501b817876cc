//! The CRC-framed record format shared by snapshots and write-ahead-log
//! segments: every record is `[len: u32 LE][crc32(payload): u32 LE]
//! [payload]`, preceded in each file by an 8-byte magic and an 8-byte
//! little-endian sequence number.
//!
//! Framing never panics and never guesses: a file either parses into
//! records plus a classified [`Tail`], or reading it is an I/O error. A
//! *torn* tail (fewer bytes than the last frame claims) is recoverable by
//! truncation — exactly what a crash mid-append produces. A *corrupt*
//! tail (a complete record whose checksum fails) is a bit flip or an
//! overwrite and is never silently dropped.

use crate::crc::crc32;

/// Magic header of snapshot files.
pub const SNAP_MAGIC: &[u8; 8] = b"FKSNAP1\0";
/// Magic header of write-ahead-log segment files.
pub const WAL_MAGIC: &[u8; 8] = b"FKWAL1\0\0";
/// Bytes before the first record: magic + sequence number.
pub const HEADER_LEN: usize = 16;
/// Bytes of framing per record: length + checksum.
pub const FRAME_LEN: usize = 8;
/// Bytes before a single-record file's payload: its header and the
/// record's frame.
pub const HEAD_LEN: usize = HEADER_LEN + FRAME_LEN;

/// How a framed file ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// The last record ends exactly at end-of-file.
    Clean,
    /// The file ends mid-frame or mid-payload at `offset` — the signature
    /// of a torn append, recoverable by truncating to `offset`.
    Torn {
        /// Byte offset of the incomplete frame's start.
        offset: u64,
    },
    /// A complete record at `offset` fails its checksum — corruption, not
    /// a crash artifact.
    Corrupt {
        /// Byte offset of the failing frame's start.
        offset: u64,
    },
}

/// Append one framed record to `buf`.
pub fn put_record(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Begin a single-record file in `buf`: its header, then a zeroed frame
/// for [`seal`] to fill once the payload follows.
pub fn put_unsealed(buf: &mut Vec<u8>, magic: &[u8; 8], seq: u64) {
    put_header(buf, magic, seq);
    buf.extend_from_slice(&[0; FRAME_LEN]);
}

/// Fill the frame of a file begun by [`put_unsealed`] with its payload's
/// length and `crc`, the payload's CRC-32: the bytes [`put_header`] then
/// [`put_record`] would have written. Panics on a file shorter than
/// [`HEAD_LEN`].
pub fn seal(file: &mut [u8], crc: u32) {
    let len = (file.len() - HEAD_LEN) as u32;
    file[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&len.to_le_bytes());
    file[HEADER_LEN + 4..HEAD_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// Serialize a file header (magic + sequence number).
pub fn put_header(buf: &mut Vec<u8>, magic: &[u8; 8], seq: u64) {
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&seq.to_le_bytes());
}

/// Parse a file header, returning its sequence number. `None` covers both
/// a short buffer and a magic mismatch — callers map it to a typed
/// [`crate::StoreError`] with the file name attached.
pub fn read_header(bytes: &[u8], magic: &[u8; 8]) -> Option<u64> {
    if bytes.len() < HEADER_LEN || &bytes[..8] != magic {
        return None;
    }
    Some(u64::from_le_bytes(bytes[8..16].try_into().ok()?))
}

/// Parse every record after the header, stopping at the first non-clean
/// frame. Returns the record payloads (borrowed from `bytes`) and the
/// tail classification; corruption is a *classification*, not an error,
/// so callers decide whether a torn tail is recoverable in context.
pub fn read_records(bytes: &[u8]) -> (Vec<&[u8]>, Tail) {
    let mut records = Vec::new();
    if bytes.len() < HEADER_LEN {
        // A crash can tear the header append itself; the file holds no
        // records and the tear point is end-of-file.
        return (
            records,
            Tail::Torn {
                offset: bytes.len() as u64,
            },
        );
    }
    let mut at = HEADER_LEN;
    loop {
        let remaining = bytes.len() - at;
        if remaining == 0 {
            return (records, Tail::Clean);
        }
        if remaining < FRAME_LEN {
            return (records, Tail::Torn { offset: at as u64 });
        }
        // Indexing is bounds-checked above; the two try_intos cannot fail.
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        if remaining - FRAME_LEN < len {
            return (records, Tail::Torn { offset: at as u64 });
        }
        let payload = &bytes[at + FRAME_LEN..at + FRAME_LEN + len];
        if crc32(payload) != crc {
            return (records, Tail::Corrupt { offset: at as u64 });
        }
        records.push(payload);
        at += FRAME_LEN + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_with(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_header(&mut buf, WAL_MAGIC, 7);
        for p in payloads {
            put_record(&mut buf, p);
        }
        buf
    }

    #[test]
    fn round_trips_records_and_header() {
        let buf = file_with(&[b"alpha", b"", b"gamma"]);
        assert_eq!(read_header(&buf, WAL_MAGIC), Some(7));
        assert_eq!(read_header(&buf, SNAP_MAGIC), None, "magic is checked");
        let (records, tail) = read_records(&buf);
        assert_eq!(records, vec![&b"alpha"[..], &b""[..], &b"gamma"[..]]);
        assert_eq!(tail, Tail::Clean);
    }

    #[test]
    fn torn_tails_are_classified_not_erred() {
        let full = file_with(&[b"alpha", b"beta"]);
        let second_frame = HEADER_LEN + FRAME_LEN + 5;
        // A cut exactly at the frame boundary is a clean shorter file;
        // every cut strictly inside the second frame is torn.
        for cut in second_frame + 1..full.len() {
            let (records, tail) = read_records(&full[..cut]);
            assert_eq!(records, vec![&b"alpha"[..]], "cut at {cut}");
            assert_eq!(
                tail,
                Tail::Torn {
                    offset: second_frame as u64
                },
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn a_flipped_bit_is_corrupt_not_torn() {
        let mut buf = file_with(&[b"alpha", b"beta"]);
        let beta_at = HEADER_LEN + FRAME_LEN + 5;
        *buf.last_mut().unwrap() ^= 0x04; // flip inside "beta"'s payload
        let (records, tail) = read_records(&buf);
        assert_eq!(records, vec![&b"alpha"[..]]);
        assert_eq!(
            tail,
            Tail::Corrupt {
                offset: beta_at as u64
            }
        );
    }

    #[test]
    fn header_only_and_truncated_header_parse_safely() {
        let mut buf = Vec::new();
        put_header(&mut buf, SNAP_MAGIC, 3);
        assert_eq!(read_records(&buf), (Vec::new(), Tail::Clean));
        assert_eq!(read_header(&buf[..9], SNAP_MAGIC), None);
        let (records, tail) = read_records(&buf[..9]);
        assert!(records.is_empty());
        // A file shorter than its own header is torn at the header
        // boundary; recovery treats it as an empty segment.
        assert_eq!(tail, Tail::Torn { offset: 9 });
    }
}
