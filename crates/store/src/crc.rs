//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! guarding every framed record. Hand-rolled over const-built tables so
//! the durability layer stays dependency-free.
//!
//! The checksum runs over every byte of every snapshot, on write and on
//! recovery, so at n=100k (a 14.8 MB snapshot) it sits on a serving
//! thread's write ack. A byte-at-a-time table loop is bound by one table
//! lookup's latency per byte: about 45 ms per such snapshot on a 2-vCPU
//! Xeon. This is **slicing-by-16** instead: table `k` holds the CRC of a
//! byte followed by `k` zero bytes, so sixteen independent lookups fold a
//! whole 16-byte block into the register at once (about 9 ms for the same
//! snapshot). The polynomial, initial value and final xor are the
//! byte-wise loop's, so every checksum — and every byte on disk — is
//! unchanged.
//!
//! On the filesystem the snapshot's checksum no longer runs before its
//! write: `FsBackend::write_sealed` writes the file with its frame still
//! zero and calls `sync_data` while a scoped helper thread computes the
//! CRC, then writes the 24 head bytes at offset 0, calls `sync_all`,
//! renames and syncs the directory. Only the head waits for this
//! function; recovery still runs it inline.

/// `TABLES[k][b]`: the CRC register after byte `b` and then `k` zero
/// bytes, from a zero register. `TABLES[0]` is the classic byte table.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32/IEEE of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    let mut crc = 0xFFFF_FFFFu32;
    for block in blocks {
        // The register folds into the block's first four bytes; byte `j`
        // is followed by `15 - j` more bytes, so it goes through table
        // `15 - j`.
        let mut block = *block;
        let head = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        block[..4].copy_from_slice(&head.to_le_bytes());
        let tables = TABLES.iter().rev();
        crc = block
            .iter()
            .zip(tables)
            .fold(0, |crc, (&b, t)| crc ^ t[b as usize]);
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop over the plain table: the definition the
    /// sliced loop must agree with on every input.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    /// `len` pseudo-random bytes (xorshift64*, fixed seed).
    fn noise(len: usize) -> Vec<u8> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn matches_the_published_check_value() {
        // The CRC-32/IEEE check value for "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input_and_sensitivity() {
        assert_eq!(crc32(b""), 0);
        let a = crc32(b"fairkm");
        let b = crc32(b"fairkM");
        assert_ne!(a, b, "single-bit-ish change must move the checksum");
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_alignment() {
        let buf = noise(16 + 256);
        for start in 0..16 {
            for len in 0..=256 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn sliced_equals_bytewise_on_several_mebibytes() {
        let buf = noise(5 * 1024 * 1024 + 7);
        assert_eq!(crc32(&buf), bytewise(&buf));
    }
}
