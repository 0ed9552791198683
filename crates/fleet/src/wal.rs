//! A checksummed write-ahead commit journal for crash-safe recovery of a fleet or a
//! fleet server.
//!
//! The fleet's determinism contract makes a *logical* WAL sufficient: because a round's
//! outcome is a pure function of the snapshot it started from (plus the scripted
//! scenario or traffic), the redo function is deterministic re-execution — the journal
//! does not need to carry observations, only proof that a round committed and a digest
//! to verify the replay against. Each entry is a fixed-size commit record:
//!
//! ```text
//! frame   := [len: u32 LE] [payload: len bytes] [crc32: u32 LE]
//! payload := [seq: u64 LE] [round: u64 LE] [digest: u64 LE]
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload bytes (table-driven, implemented here —
//! no external dependency). `seq` is a strictly increasing entry counter; `round` is
//! the fleet round the entry commits; `digest` is the FNV-1a-64 hash of the canonical
//! snapshot JSON after that round (a fleet snapshot for
//! [`crate::recovery::DurableFleet`], a server snapshot for
//! [`crate::serve::FleetServer`]).
//!
//! A crash can tear the tail of the journal anywhere. [`WriteAheadLog::scan`]
//! detects a torn or checksum-corrupt *tail* (incomplete length prefix, payload
//! shorter than promised, CRC mismatch on the final frame) and drops it, returning
//! every fully committed entry before it. Corruption that is *followed* by more valid
//! frames is not a crash artifact — it means the storage itself is damaged, and
//! parsing fails with [`FleetError::WalCorrupt`].

use crate::error::FleetError;

/// Byte length of a commit-record payload: `seq` + `round` + `digest`.
const PAYLOAD_LEN: usize = 24;
/// Full frame length: length prefix + payload + CRC.
pub const FRAME_LEN: usize = 4 + PAYLOAD_LEN + 4;

/// IEEE CRC-32 (the Ethernet / zip polynomial), table-driven.
fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    // The 1 KiB table is rebuilt per call; entries are 32 bytes each so this is noise
    // next to the snapshot serialization the WAL protects, and it keeps the module
    // free of globals.
    let table = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// FNV-1a 64-bit hash — the state digest committed with each WAL entry.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// One committed round: the parsed payload of a WAL frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalEntry {
    /// Strictly increasing entry counter.
    pub seq: u64,
    /// Fleet round this entry commits (the value of `FleetService::rounds()` after the
    /// round ran).
    pub round: u64,
    /// FNV-1a-64 digest of the canonical fleet or server snapshot JSON after the round.
    pub digest: u64,
}

/// What [`WriteAheadLog::scan`] found in the journal bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Fully committed entries, in order.
    pub entries: Vec<WalEntry>,
    /// Bytes of torn tail dropped (0 for a cleanly closed journal).
    pub torn_bytes: usize,
}

/// An in-memory byte journal with the framing above. The byte buffer is the "disk":
/// crash simulations truncate it at arbitrary offsets, exactly like a torn file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteAheadLog {
    buf: Vec<u8>,
    next_seq: u64,
}

impl WriteAheadLog {
    /// The raw journal bytes (what a crash would leave on disk).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends a commit record for `round` with the given state digest.
    pub fn append(&mut self, round: u64, digest: u64) {
        let mut payload = [0u8; PAYLOAD_LEN];
        payload[0..8].copy_from_slice(&self.next_seq.to_le_bytes());
        payload[8..16].copy_from_slice(&round.to_le_bytes());
        payload[16..24].copy_from_slice(&digest.to_le_bytes());
        self.next_seq += 1;
        self.buf
            .extend_from_slice(&(PAYLOAD_LEN as u32).to_le_bytes());
        self.buf.extend_from_slice(&payload);
        self.buf.extend_from_slice(&crc32(&payload).to_le_bytes());
    }

    /// Drops all journal bytes (called after a periodic snapshot makes them redundant).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Parses journal bytes (e.g. what survived a crash), dropping a torn tail. Fails
    /// only on mid-journal corruption (a bad frame *followed by* more data) or a
    /// non-monotonic sequence, both of which indicate damaged storage rather than a
    /// crash.
    pub fn scan(buf: &[u8]) -> Result<WalScan, FleetError> {
        let mut entries = Vec::new();
        let mut offset = 0usize;
        let mut expected_seq: Option<u64> = None;
        while offset < buf.len() {
            let frame_start = offset;
            let remaining = buf.len() - offset;
            // Torn tail: not even a full frame left.
            if remaining < FRAME_LEN {
                return Ok(WalScan {
                    entries,
                    torn_bytes: remaining,
                });
            }
            let len = u32::from_le_bytes(buf[offset..offset + 4].try_into().unwrap()) as usize;
            if len != PAYLOAD_LEN {
                return Err(FleetError::WalCorrupt {
                    offset: frame_start,
                    reason: format!("frame length {len} != {PAYLOAD_LEN}"),
                });
            }
            offset += 4;
            let payload = &buf[offset..offset + PAYLOAD_LEN];
            offset += PAYLOAD_LEN;
            let stored_crc = u32::from_le_bytes(buf[offset..offset + 4].try_into().unwrap());
            offset += 4;
            if crc32(payload) != stored_crc {
                if offset == buf.len() {
                    // Corrupt *final* frame: a torn write, drop it.
                    return Ok(WalScan {
                        entries,
                        torn_bytes: buf.len() - frame_start,
                    });
                }
                return Err(FleetError::WalCorrupt {
                    offset: frame_start,
                    reason: "checksum mismatch before end of journal".into(),
                });
            }
            let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
            let round = u64::from_le_bytes(payload[8..16].try_into().unwrap());
            let digest = u64::from_le_bytes(payload[16..24].try_into().unwrap());
            if let Some(want) = expected_seq {
                if seq != want {
                    return Err(FleetError::WalCorrupt {
                        offset: frame_start,
                        reason: format!("sequence jump: {seq} after {}", want - 1),
                    });
                }
            }
            expected_seq = Some(seq + 1);
            entries.push(WalEntry { seq, round, digest });
        }
        Ok(WalScan {
            entries,
            torn_bytes: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_scan_round_trips() {
        let mut wal = WriteAheadLog::default();
        wal.append(1, 0xDEAD);
        wal.append(2, 0xBEEF);
        let scan = WriteAheadLog::scan(wal.bytes()).unwrap();
        let entry = |seq, round, digest| WalEntry { seq, round, digest };
        assert_eq!(scan.entries, vec![entry(0, 1, 0xDEAD), entry(1, 2, 0xBEEF)]);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_at_every_offset_is_detected_and_dropped() {
        let mut wal = WriteAheadLog::default();
        wal.append(1, 11);
        wal.append(2, 22);
        wal.append(3, 33);
        let full = wal.bytes();
        for cut in 0..full.len() {
            let scan =
                WriteAheadLog::scan(&full[..cut]).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            let complete = cut / FRAME_LEN;
            assert_eq!(scan.entries.len(), complete, "cut at byte {cut}");
            assert_eq!(scan.torn_bytes, cut - complete * FRAME_LEN);
        }
    }

    #[test]
    fn bitflip_in_final_frame_drops_it_but_midjournal_flip_is_an_error() {
        let mut wal = WriteAheadLog::default();
        wal.append(1, 11);
        wal.append(2, 22);
        // Flip a payload bit in the *last* frame: dropped as a torn write.
        let mut tail_flipped = wal.bytes().to_vec();
        let n = tail_flipped.len();
        tail_flipped[n - 10] ^= 0x40;
        let scan = WriteAheadLog::scan(&tail_flipped).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.torn_bytes, FRAME_LEN);
        // Flip the same bit in the *first* frame: storage damage, typed error.
        let mut mid_flipped = wal.bytes().to_vec();
        mid_flipped[6] ^= 0x40;
        assert!(matches!(
            WriteAheadLog::scan(&mid_flipped).unwrap_err(),
            FleetError::WalCorrupt { offset: 0, .. }
        ));
    }

    #[test]
    fn fnv_digest_is_stable_and_input_sensitive() {
        let a = fnv1a64(b"round-1-state");
        assert_eq!(a, fnv1a64(b"round-1-state"));
        assert_ne!(a, fnv1a64(b"round-1-statf"));
    }
}
