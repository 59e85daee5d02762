//! Versioned, checksummed key-file frames.
//!
//! A key file is the single source of truth for mailbox state, so a
//! mid-append crash must be distinguishable from on-disk corruption.
//! Every key record is therefore wrapped in a fixed-size frame:
//!
//! ```text
//! byte 0        version        (0x01)
//! byte 1        payload length (32, the KeyRecord encoding)
//! bytes 2..34   payload        (big-endian KeyRecord)
//! bytes 34..38  CRC32          (IEEE, over bytes 0..34, big-endian)
//! ```
//!
//! Recovery rule (see DESIGN.md §12): an invalid frame at the *end* of the
//! file is a torn write — the tail is truncated and replay continues; an
//! invalid frame with valid data after it cannot be a torn append and is
//! reported as corruption.

/// Frame payload size: one encoded key record.
pub(crate) const PAYLOAD_LEN: usize = 32;
/// Total frame size on disk.
pub(crate) const FRAME_LEN: usize = PAYLOAD_LEN + 6;
/// Current frame format version.
pub(crate) const VERSION: u8 = 1;

/// Slicing-by-8 tables for the reflected IEEE 802.3 polynomial, built at
/// compile time: `CRC_TABLES[0][b]` is one byte's step, and
/// `CRC_TABLES[k][b]` is that step followed by `k` zero bytes, so eight
/// lookups advance the checksum by eight bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), eight bytes per
/// step: a restart checksums every key record in the spool, and so does
/// every read of a mailbox.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let (words, rest) = bytes.as_chunks::<8>();
    for word in words {
        let w = u64::from_le_bytes(*word) ^ u64::from(crc);
        crc = t[7][(w & 0xFF) as usize]
            ^ t[6][((w >> 8) & 0xFF) as usize]
            ^ t[5][((w >> 16) & 0xFF) as usize]
            ^ t[4][((w >> 24) & 0xFF) as usize]
            ^ t[3][((w >> 32) & 0xFF) as usize]
            ^ t[2][((w >> 40) & 0xFF) as usize]
            ^ t[1][((w >> 48) & 0xFF) as usize]
            ^ t[0][(w >> 56) as usize];
    }
    for &b in rest {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Wraps one record payload in a versioned, checksummed frame.
pub(crate) fn encode(payload: &[u8; PAYLOAD_LEN]) -> [u8; FRAME_LEN] {
    let mut out = [0u8; FRAME_LEN];
    out[0] = VERSION;
    out[1] = PAYLOAD_LEN as u8;
    out[2..2 + PAYLOAD_LEN].copy_from_slice(payload);
    let crc = crc32(&out[..2 + PAYLOAD_LEN]);
    out[2 + PAYLOAD_LEN..].copy_from_slice(&crc.to_be_bytes());
    out
}

/// Why a frame at some offset failed to validate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameFault {
    /// Fewer than [`FRAME_LEN`] bytes remain: an interrupted append.
    Incomplete,
    /// Unknown version byte.
    BadVersion(u8),
    /// Payload-length byte disagrees with the format.
    BadLength(u8),
    /// Checksum mismatch.
    BadCrc,
}

impl std::fmt::Display for FrameFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameFault::Incomplete => write!(f, "incomplete frame"),
            FrameFault::BadVersion(v) => write!(f, "unknown frame version {v}"),
            FrameFault::BadLength(l) => write!(f, "bad payload length {l}"),
            FrameFault::BadCrc => write!(f, "checksum mismatch"),
        }
    }
}

/// Where a key-file scan stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tail {
    /// Every byte belonged to a valid frame.
    Clean,
    /// The final frame is torn: everything from `offset` on is an
    /// interrupted append (either short, or a full-size frame whose
    /// checksum never landed). Truncating to `offset` recovers the file.
    Torn { offset: u64, fault: FrameFault },
    /// An invalid frame at `offset` is followed by at least one more
    /// frame-sized run of bytes — appends never leave a hole, so this is
    /// corruption, not a crash artifact.
    Corrupt { offset: u64, fault: FrameFault },
}

/// Validates `bytes` as a sequence of frames, returning every valid
/// payload (in order) and where the scan stopped.
pub(crate) fn scan(bytes: &[u8]) -> (Vec<[u8; PAYLOAD_LEN]>, Tail) {
    let mut payloads = Vec::with_capacity(bytes.len() / FRAME_LEN);
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        let fault = if rest.len() < FRAME_LEN {
            Some(FrameFault::Incomplete)
        } else if rest[0] != VERSION {
            Some(FrameFault::BadVersion(rest[0]))
        } else if rest[1] != PAYLOAD_LEN as u8 {
            Some(FrameFault::BadLength(rest[1]))
        } else {
            let stored = u32::from_be_bytes([
                rest[2 + PAYLOAD_LEN],
                rest[3 + PAYLOAD_LEN],
                rest[4 + PAYLOAD_LEN],
                rest[5 + PAYLOAD_LEN],
            ]);
            if stored != crc32(&rest[..2 + PAYLOAD_LEN]) {
                Some(FrameFault::BadCrc)
            } else {
                None
            }
        };
        match fault {
            None => {
                let mut payload = [0u8; PAYLOAD_LEN];
                payload.copy_from_slice(&rest[2..2 + PAYLOAD_LEN]);
                payloads.push(payload);
                pos += FRAME_LEN;
            }
            Some(fault) => {
                let offset = pos as u64;
                // A torn append affects only the final frame; bad bytes
                // with a full frame's worth of data after them are
                // corruption.
                let tail = if rest.len() <= FRAME_LEN {
                    Tail::Torn { offset, fault }
                } else {
                    Tail::Corrupt { offset, fault }
                };
                return (payloads, tail);
            }
        }
    }
    (payloads, Tail::Clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The polynomial division bit by bit — what [`CRC_TABLES`] tabulates.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn table_crc_equals_the_bitwise_reference() {
        for vector in [&b"123456789"[..], b"", b"a"] {
            assert_eq!(crc32(vector), crc32_bitwise(vector));
        }
        for b in 0..=255u8 {
            assert_eq!(crc32(&[b]), crc32_bitwise(&[b]), "byte {b:#04x}");
        }
        // A fixed xorshift64 stream.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        };
        // Every length up to 80: no words, whole words, every remainder.
        let stream: Vec<u8> = (0..80).map(|_| next()).collect();
        for len in 0..=stream.len() {
            let input = &stream[..len];
            assert_eq!(crc32(input), crc32_bitwise(input), "length {len}");
        }
        // 1 000 frame-sized inputs.
        for _ in 0..1_000 {
            let mut frame = [0u8; 2 + PAYLOAD_LEN];
            frame.fill_with(&mut next);
            assert_eq!(crc32(&frame), crc32_bitwise(&frame), "{frame:02x?}");
        }
    }

    #[test]
    fn encode_roundtrips_through_scan() {
        let mut file = Vec::new();
        for i in 0..5u8 {
            file.extend_from_slice(&encode(&[i; PAYLOAD_LEN]));
        }
        let (payloads, tail) = scan(&file);
        assert_eq!(tail, Tail::Clean);
        assert_eq!(payloads.len(), 5);
        assert_eq!(payloads[3], [3u8; PAYLOAD_LEN]);
    }

    #[test]
    fn short_tail_is_torn() {
        let mut file = encode(&[7; PAYLOAD_LEN]).to_vec();
        file.extend_from_slice(&encode(&[8; PAYLOAD_LEN])[..10]);
        let (payloads, tail) = scan(&file);
        assert_eq!(payloads.len(), 1);
        assert_eq!(
            tail,
            Tail::Torn {
                offset: FRAME_LEN as u64,
                fault: FrameFault::Incomplete
            }
        );
    }

    #[test]
    fn bad_crc_on_final_frame_is_torn() {
        let mut file = encode(&[1; PAYLOAD_LEN]).to_vec();
        let mut broken = encode(&[2; PAYLOAD_LEN]);
        broken[FRAME_LEN - 1] ^= 0xFF;
        file.extend_from_slice(&broken);
        let (payloads, tail) = scan(&file);
        assert_eq!(payloads.len(), 1);
        assert_eq!(
            tail,
            Tail::Torn {
                offset: FRAME_LEN as u64,
                fault: FrameFault::BadCrc
            }
        );
    }

    #[test]
    fn bad_frame_mid_file_is_corruption() {
        let mut file = Vec::new();
        let mut broken = encode(&[1; PAYLOAD_LEN]);
        broken[5] ^= 0x40;
        file.extend_from_slice(&broken);
        file.extend_from_slice(&encode(&[2; PAYLOAD_LEN]));
        let (payloads, tail) = scan(&file);
        assert!(payloads.is_empty());
        assert_eq!(
            tail,
            Tail::Corrupt {
                offset: 0,
                fault: FrameFault::BadCrc
            }
        );
    }

    #[test]
    fn bad_version_and_length_detected() {
        let mut v = encode(&[0; PAYLOAD_LEN]);
        v[0] = 9;
        let pad = encode(&[0; PAYLOAD_LEN]);
        let mut file = v.to_vec();
        file.extend_from_slice(&pad);
        let (_, tail) = scan(&file);
        assert_eq!(
            tail,
            Tail::Corrupt {
                offset: 0,
                fault: FrameFault::BadVersion(9)
            }
        );

        let mut l = encode(&[0; PAYLOAD_LEN]);
        l[1] = 0;
        let (_, tail) = scan(&l);
        assert_eq!(
            tail,
            Tail::Torn {
                offset: 0,
                fault: FrameFault::BadLength(0)
            }
        );
    }

    #[test]
    fn empty_file_is_clean() {
        let (payloads, tail) = scan(&[]);
        assert!(payloads.is_empty());
        assert_eq!(tail, Tail::Clean);
    }
}
