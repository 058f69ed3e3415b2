//! Log record types and their wire format.
//!
//! Every record is framed as
//!
//! ```text
//! ┌───────────┬───────────┬──────────────────┐
//! │ len  u32  │ crc32 u32 │ payload (len B)  │
//! └───────────┴───────────┴──────────────────┘
//! ```
//!
//! with both integers big-endian and the CRC taken over the payload
//! only. The frame is what makes torn writes detectable: a crash can
//! leave a partial frame at the end of a segment, and replay stops at
//! the first frame whose length runs past the file or whose CRC does
//! not match.
//!
//! The payload starts with a one-byte record type and the transaction
//! id as a varint; transaction id 0 is the autocommit stream (each such
//! record is its own committed unit).

use gdm_core::{GdmError, Result};
use gdm_storage::codec;

/// Bytes in a frame header (length + CRC).
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single record payload; anything larger read from a
/// segment is treated as corruption, not an allocation request.
pub const MAX_PAYLOAD: u32 = 1 << 28;

/// CRC-32 (IEEE 802.3, the polynomial used by zip/png), bitwise
/// implementation — fast enough for the record sizes involved and
/// dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// One logical entry in the write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A transaction opened.
    Begin {
        /// Transaction id (> 0).
        txn: u64,
    },
    /// A key was written.
    Put {
        /// Owning transaction, 0 for autocommit.
        txn: u64,
        /// The key.
        key: Vec<u8>,
        /// The new value.
        value: Vec<u8>,
    },
    /// The transaction's effects are final once this record is durable.
    Commit {
        /// Transaction id (> 0).
        txn: u64,
    },
    /// The transaction was abandoned; replay discards its records.
    Rollback {
        /// Transaction id (> 0).
        txn: u64,
    },
}

const TAG_BEGIN: u8 = 1;
const TAG_PUT: u8 = 2;
// Tag 3 was a key delete; it stays unused so no old frame decodes as
// another record.
const TAG_COMMIT: u8 = 4;
const TAG_ROLLBACK: u8 = 5;

impl Record {
    /// Encodes the payload (no frame) into `out`.
    pub fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Record::Begin { txn } => {
                out.push(TAG_BEGIN);
                codec::put_varint(out, *txn);
            }
            Record::Put { txn, key, value } => {
                out.push(TAG_PUT);
                codec::put_varint(out, *txn);
                codec::put_bytes(out, key);
                codec::put_bytes(out, value);
            }
            Record::Commit { txn } => {
                out.push(TAG_COMMIT);
                codec::put_varint(out, *txn);
            }
            Record::Rollback { txn } => {
                out.push(TAG_ROLLBACK);
                codec::put_varint(out, *txn);
            }
        }
    }

    /// Decodes a payload produced by [`Record::encode_payload`].
    /// Trailing bytes are an error — a frame holds exactly one record.
    pub fn decode_payload(buf: &[u8]) -> Result<Record> {
        let mut pos = 0usize;
        let tag = *buf
            .first()
            .ok_or_else(|| GdmError::Storage("empty record payload".into()))?;
        pos += 1;
        let txn = codec::get_varint(buf, &mut pos)?;
        let record = match tag {
            TAG_BEGIN => Record::Begin { txn },
            TAG_PUT => {
                let key = codec::get_bytes(buf, &mut pos)?.to_vec();
                let value = codec::get_bytes(buf, &mut pos)?.to_vec();
                Record::Put { txn, key, value }
            }
            TAG_COMMIT => Record::Commit { txn },
            TAG_ROLLBACK => Record::Rollback { txn },
            other => return Err(GdmError::Storage(format!("unknown WAL record tag {other}"))),
        };
        if pos != buf.len() {
            return Err(GdmError::Storage(format!(
                "{} trailing bytes after WAL record",
                buf.len() - pos
            )));
        }
        Ok(record)
    }

    /// Appends the full frame (header + payload) to `out`.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        let mut payload = Vec::new();
        self.encode_payload(&mut payload);
        codec::put_u32(out, payload.len() as u32);
        codec::put_u32(out, crc32(&payload));
        out.extend_from_slice(&payload);
    }

    /// The transaction id this record belongs to.
    pub fn txn(&self) -> u64 {
        match self {
            Record::Begin { txn }
            | Record::Put { txn, .. }
            | Record::Commit { txn }
            | Record::Rollback { txn } => *txn,
        }
    }
}

/// Outcome of reading one frame from a byte buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete, checksum-valid record occupying `consumed` bytes.
    Ok {
        /// The decoded record.
        record: Record,
        /// Total frame size (header + payload).
        consumed: usize,
    },
    /// The buffer ends before the frame does — a torn write. Replay
    /// treats everything from here on as never written.
    Torn,
    /// The frame is complete but its checksum (or its payload encoding)
    /// is invalid — corruption rather than a clean tear.
    Corrupt,
}

/// Reads the frame starting at `buf[pos..]`.
pub fn read_frame(buf: &[u8], pos: usize) -> Frame {
    let rest = &buf[pos.min(buf.len())..];
    if rest.is_empty() {
        return Frame::Torn; // clean end-of-log
    }
    if rest.len() < FRAME_HEADER {
        return Frame::Torn;
    }
    let mut p = 0usize;
    let len = codec::get_u32(rest, &mut p).expect("8 bytes checked") as usize;
    let crc = codec::get_u32(rest, &mut p).expect("8 bytes checked");
    if len as u32 > MAX_PAYLOAD {
        return Frame::Corrupt;
    }
    if rest.len() < FRAME_HEADER + len {
        return Frame::Torn;
    }
    let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
    if crc32(payload) != crc {
        return Frame::Corrupt;
    }
    match Record::decode_payload(payload) {
        Ok(record) => Frame::Ok {
            record,
            consumed: FRAME_HEADER + len,
        },
        Err(_) => Frame::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Record> {
        vec![
            Record::Begin { txn: 1 },
            Record::Put {
                txn: 0,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
            Record::Put {
                txn: 7,
                key: vec![0u8; 300],
                value: Vec::new(),
            },
            Record::Put {
                txn: u64::MAX,
                key: b"wide".to_vec(),
                value: b"txn".to_vec(),
            },
            Record::Commit { txn: 1 },
            Record::Rollback { txn: 2 },
        ]
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip() {
        for record in samples() {
            let mut buf = Vec::new();
            record.encode_frame(&mut buf);
            match read_frame(&buf, 0) {
                Frame::Ok {
                    record: got,
                    consumed,
                } => {
                    assert_eq!(got, record);
                    assert_eq!(consumed, buf.len());
                }
                other => panic!("expected Ok, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_is_torn() {
        let mut buf = Vec::new();
        Record::Put {
            txn: 3,
            key: b"key".to_vec(),
            value: b"value".to_vec(),
        }
        .encode_frame(&mut buf);
        for cut in 0..buf.len() {
            assert_eq!(read_frame(&buf[..cut], 0), Frame::Torn, "cut at {cut}");
        }
    }

    #[test]
    fn payload_bit_flips_are_corrupt() {
        let mut buf = Vec::new();
        Record::Commit { txn: 42 }.encode_frame(&mut buf);
        for byte in FRAME_HEADER..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                assert_eq!(read_frame(&bad, 0), Frame::Corrupt, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn crc_bit_flips_are_corrupt() {
        let mut buf = Vec::new();
        Record::Commit { txn: 42 }.encode_frame(&mut buf);
        for byte in 4..8 {
            let mut bad = buf.clone();
            bad[byte] ^= 0x01;
            assert_eq!(read_frame(&bad, 0), Frame::Corrupt, "crc byte {byte}");
        }
    }

    #[test]
    fn absurd_length_is_corrupt_not_alloc() {
        let mut buf = Vec::new();
        codec::put_u32(&mut buf, u32::MAX);
        codec::put_u32(&mut buf, 0);
        buf.extend_from_slice(&[0u8; 16]);
        assert_eq!(read_frame(&buf, 0), Frame::Corrupt);
    }
}
