//! The append-only click-event WAL: the durable half of the continuous-
//! training loop.
//!
//! Serving emits one [`WalEvent`] per served model-route request (tag-click
//! trails and free-text questions); the incremental trainer tails the log
//! and folds batches into the model. The format is deliberately tiny and
//! self-describing:
//!
//! ```text
//! file   := magic("ITAGWAL1") record*
//! record := varint(payload_len) payload crc32_le(payload)
//! payload:= varint(type) varint(tenant) body
//! body   := varint(n) varint(click)*n          -- type 1, tag click
//!         | varint(len) utf8[len]              -- type 2, question
//! ```
//!
//! Varints are the gateway wire protocol's LEB128 codec
//! ([`intellitag_gateway::codec`]) — one integer encoding across the wire
//! and the log. Every record carries a CRC32 of its payload, so recovery
//! after a crash is a single forward scan: decode records until the first
//! torn or corrupt one, truncate there, resume appending. The recovery
//! proptests (`tests/wal_recovery.rs`) pin that a fault at *any* byte
//! offset recovers the longest valid prefix without a panic.
//!
//! Appends are fsync-batched ([`WalWriter::open`]'s `sync_every`): the
//! serving path pays one `write` per event and one `fsync` per batch —
//! the classic group-commit trade of bounded loss window for throughput.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use intellitag_gateway::codec::{read_varint, write_varint};
use intellitag_obs::{
    Counter, MetricsRegistry, WAL_APPENDS_METRIC, WAL_BYTES_METRIC, WAL_FSYNCS_METRIC,
    WAL_TRUNCATED_BYTES_METRIC,
};

/// First 8 bytes of every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"ITAGWAL1";

/// Upper bound on a single record's payload — anything larger is treated
/// as corruption during the recovery scan (a click trail or question this
/// size cannot come from the serving path).
pub const MAX_RECORD_BYTES: usize = 1 << 20;

const TYPE_TAG_CLICK: u64 = 1;
const TYPE_QUESTION: u64 = 2;

/// CRC32 (IEEE 802.3, reflected) lookup table, built at compile time —
/// record integrity without a dependency.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// One step of the CRC32 rolling state (start from `0xFFFF_FFFF`, finish
/// by complementing) — lets multi-buffer callers checksum without
/// concatenating.
pub(crate) fn crc32_update(state: u32, byte: u8) -> u32 {
    CRC32_TABLE[((state ^ byte as u32) & 0xFF) as usize] ^ (state >> 8)
}

/// CRC32 (IEEE) checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = crc32_update(c, b);
    }
    !c
}

/// One logged serving event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalEvent {
    /// A served tag-click trail (ordered, oldest click first).
    TagClick {
        /// Requesting tenant.
        tenant: usize,
        /// The clicked-tag trail the request carried.
        clicks: Vec<usize>,
    },
    /// A served free-text question.
    Question {
        /// Requesting tenant.
        tenant: usize,
        /// The question text.
        text: String,
    },
}

impl WalEvent {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            WalEvent::TagClick { tenant, clicks } => {
                write_varint(out, TYPE_TAG_CLICK);
                write_varint(out, *tenant as u64);
                write_varint(out, clicks.len() as u64);
                for &c in clicks {
                    write_varint(out, c as u64);
                }
            }
            WalEvent::Question { tenant, text } => {
                write_varint(out, TYPE_QUESTION);
                write_varint(out, *tenant as u64);
                write_varint(out, text.len() as u64);
                out.extend_from_slice(text.as_bytes());
            }
        }
    }

    /// Decodes one payload. `None` on any malformation — an unknown type,
    /// a count that overruns the payload, invalid UTF-8, or trailing bytes
    /// (a valid prefix with garbage appended is still corruption).
    fn decode_payload(payload: &[u8]) -> Option<WalEvent> {
        let mut pos = 0;
        let ty = read_varint(payload, &mut pos).ok()?;
        let tenant = read_varint(payload, &mut pos).ok()? as usize;
        let event = match ty {
            TYPE_TAG_CLICK => {
                let n = read_varint(payload, &mut pos).ok()? as usize;
                if n > payload.len().saturating_sub(pos) {
                    return None; // every click is at least one byte
                }
                let mut clicks = Vec::with_capacity(n);
                for _ in 0..n {
                    clicks.push(read_varint(payload, &mut pos).ok()? as usize);
                }
                WalEvent::TagClick { tenant, clicks }
            }
            TYPE_QUESTION => {
                let len = read_varint(payload, &mut pos).ok()? as usize;
                let end = pos.checked_add(len)?;
                let bytes = payload.get(pos..end)?;
                pos = end;
                WalEvent::Question { tenant, text: std::str::from_utf8(bytes).ok()?.to_string() }
            }
            _ => return None,
        };
        if pos != payload.len() {
            return None;
        }
        Some(event)
    }

    /// Appends the framed record — varint length, payload, CRC32 — to
    /// `out`.
    pub fn encode_record(&self, out: &mut Vec<u8>) {
        let mut payload = Vec::with_capacity(16);
        self.encode_payload(&mut payload);
        write_varint(out, payload.len() as u64);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
    }
}

/// Decodes records from `buf` starting at byte `start` (the trainer's
/// resumable cursor). Returns the events and the offset one past the last
/// fully valid record: the scan stops — without consuming anything — at
/// the first record that is torn (runs past the buffer), oversized, fails
/// its CRC, or decodes to a malformed payload.
pub fn decode_records(buf: &[u8], start: usize) -> (Vec<WalEvent>, usize) {
    let mut events = Vec::new();
    let mut valid = start.min(buf.len());
    loop {
        let mut pos = valid;
        let Ok(len) = read_varint(buf, &mut pos) else { break };
        let len = len as usize;
        if len == 0 || len > MAX_RECORD_BYTES {
            break;
        }
        let end = pos + len + 4; // bounded by MAX_RECORD_BYTES: no overflow
        if end > buf.len() {
            break;
        }
        let payload = &buf[pos..pos + len];
        let stored = u32::from_le_bytes(buf[pos + len..end].try_into().expect("4 crc bytes"));
        if crc32(payload) != stored {
            break;
        }
        let Some(event) = WalEvent::decode_payload(payload) else { break };
        events.push(event);
        valid = end;
    }
    (events, valid)
}

/// Decodes a whole WAL byte image. A missing or wrong magic invalidates
/// the entire file (`valid_len` 0); otherwise this is
/// [`decode_records`] from just past the magic.
pub fn decode_all(bytes: &[u8]) -> (Vec<WalEvent>, usize) {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return (Vec::new(), 0);
    }
    decode_records(bytes, WAL_MAGIC.len())
}

/// Outcome of recovering a WAL file after a crash.
#[derive(Debug)]
pub struct Recovered {
    /// Every event in the longest valid prefix, in append order.
    pub events: Vec<WalEvent>,
    /// Byte length of the valid prefix — where appends resume.
    pub valid_len: u64,
    /// Torn/corrupt tail bytes dropped by recovery.
    pub truncated: u64,
}

/// Reads the WAL at `path` and scans for its longest valid prefix. A
/// missing file recovers as empty (a fresh log); a present file is never
/// modified — truncation happens in [`WalWriter::open`].
pub fn recover(path: &Path) -> io::Result<Recovered> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let (events, valid_len) = decode_all(&bytes);
    Ok(Recovered {
        events,
        valid_len: valid_len as u64,
        truncated: (bytes.len() - valid_len) as u64,
    })
}

/// Projects the TagRec training sessions out of a replayed event stream:
/// one session per [`WalEvent::TagClick`] trail, in log order. Questions
/// feed the Q&A side, not sequence training, and are skipped. No length
/// filtering happens here — sessions too short to yield a training example
/// are already no-ops inside `IntelliTag::train_increment`, and keeping
/// the projection lossless is what lets `tests/t_plus_one.rs` assert the
/// offline and WAL-replayed paths train on *identical* inputs.
pub fn click_sessions(events: &[WalEvent]) -> Vec<Vec<usize>> {
    events
        .iter()
        .filter_map(|e| match e {
            WalEvent::TagClick { clicks, .. } => Some(clicks.clone()),
            WalEvent::Question { .. } => None,
        })
        .collect()
}

/// Appending side of the WAL: owns the file, batches fsyncs, publishes
/// `wal.*` metrics. One writer per log — serving funnels events through a
/// single sink.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    len: u64,
    sync_every: usize,
    unsynced: usize,
    record_buf: Vec<u8>,
    appends: Arc<Counter>,
    bytes: Arc<Counter>,
    fsyncs: Arc<Counter>,
}

impl WalWriter {
    /// Opens (creating if absent) the WAL at `path`: recovers the longest
    /// valid prefix, truncates any torn tail (counted in
    /// `wal.truncated_bytes`), and positions for appending. Returns the
    /// writer plus the recovery outcome so callers can replay surviving
    /// events before accepting new ones.
    ///
    /// `sync_every` is the group-commit knob: an fsync every N appends
    /// (`1` = synchronous durability, larger = bounded loss window).
    pub fn open(
        path: &Path,
        sync_every: usize,
        registry: &MetricsRegistry,
    ) -> io::Result<(WalWriter, Recovered)> {
        assert!(sync_every >= 1, "sync_every must be at least 1");
        let recovered = recover(path)?;
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut len = recovered.valid_len;
        if recovered.truncated > 0 {
            file.set_len(len)?;
            registry.counter(WAL_TRUNCATED_BYTES_METRIC).add(recovered.truncated);
        }
        if len == 0 {
            // Fresh log (or an unrecognizable file): restart from magic.
            file.set_len(0)?;
            file.write_all(WAL_MAGIC)?;
            len = WAL_MAGIC.len() as u64;
        }
        file.seek(SeekFrom::Start(len))?;
        Ok((
            WalWriter {
                file,
                path: path.to_path_buf(),
                len,
                sync_every,
                unsynced: 0,
                record_buf: Vec::with_capacity(64),
                appends: registry.counter(WAL_APPENDS_METRIC),
                bytes: registry.counter(WAL_BYTES_METRIC),
                fsyncs: registry.counter(WAL_FSYNCS_METRIC),
            },
            recovered,
        ))
    }

    /// Appends one event; fsyncs when the group-commit batch fills.
    pub fn append(&mut self, event: &WalEvent) -> io::Result<()> {
        self.record_buf.clear();
        event.encode_record(&mut self.record_buf);
        self.file.write_all(&self.record_buf)?;
        self.len += self.record_buf.len() as u64;
        self.appends.inc();
        self.bytes.add(self.record_buf.len() as u64);
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces any unsynced appends to disk (also called on drop,
    /// best-effort).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.file.sync_data()?;
        self.unsynced = 0;
        self.fsyncs.inc();
        Ok(())
    }

    /// Current log length in bytes (magic included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records yet.
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_MAGIC.len() as u64
    }

    /// The log's path (the trainer tails the same file).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events() -> Vec<WalEvent> {
        vec![
            WalEvent::TagClick { tenant: 0, clicks: vec![1, 2, 3] },
            WalEvent::Question { tenant: 7, text: "how to pay the bill".into() },
            WalEvent::TagClick { tenant: 300, clicks: vec![] },
            WalEvent::TagClick { tenant: 2, clicks: vec![128, 4096, 0] },
            WalEvent::Question { tenant: 1, text: "变更密码".into() },
        ]
    }

    fn encode_log(events: &[WalEvent]) -> Vec<u8> {
        let mut buf = WAL_MAGIC.to_vec();
        for e in events {
            e.encode_record(&mut buf);
        }
        buf
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values of the IEEE polynomial (zlib's crc32).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn records_round_trip() {
        let evts = events();
        let buf = encode_log(&evts);
        let (decoded, valid) = decode_all(&buf);
        assert_eq!(decoded, evts);
        assert_eq!(valid, buf.len());
    }

    #[test]
    fn bad_magic_invalidates_the_whole_file() {
        let mut buf = encode_log(&events());
        buf[3] ^= 0xFF;
        let (decoded, valid) = decode_all(&buf);
        assert!(decoded.is_empty());
        assert_eq!(valid, 0);
    }

    #[test]
    fn torn_tail_recovers_the_prefix() {
        let evts = events();
        let buf = encode_log(&evts);
        let (_, after_two) = {
            let two = encode_log(&evts[..2]);
            (0, two.len())
        };
        // Cut mid-way through the third record.
        let cut = &buf[..after_two + 3];
        let (decoded, valid) = decode_all(cut);
        assert_eq!(decoded, &evts[..2]);
        assert_eq!(valid, after_two);
    }

    #[test]
    fn flipped_payload_bit_stops_the_scan_at_the_previous_record() {
        let evts = events();
        let one = encode_log(&evts[..1]);
        let mut buf = encode_log(&evts);
        buf[one.len() + 2] ^= 0x01; // inside record 2's payload
        let (decoded, valid) = decode_all(&buf);
        assert_eq!(decoded, &evts[..1]);
        assert_eq!(valid, one.len());
    }

    #[test]
    fn decode_records_resumes_from_a_cursor() {
        let evts = events();
        let buf = encode_log(&evts);
        let first_three = encode_log(&evts[..3]).len();
        let (tail, valid) = decode_records(&buf, first_three);
        assert_eq!(tail, &evts[3..]);
        assert_eq!(valid, buf.len());
        // A cursor past the end decodes nothing and stays put.
        let (none, same) = decode_records(&buf, buf.len());
        assert!(none.is_empty());
        assert_eq!(same, buf.len());
    }

    #[test]
    fn writer_appends_recovers_and_truncates_torn_tails() {
        let dir = std::env::temp_dir().join(format!("itag-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.wal");
        let _ = std::fs::remove_file(&path);
        let registry = MetricsRegistry::new();
        let evts = events();

        let (mut w, rec) = WalWriter::open(&path, 2, &registry).unwrap();
        assert_eq!(rec.events.len(), 0);
        assert!(w.is_empty());
        for e in &evts {
            w.append(e).unwrap();
        }
        w.sync().unwrap();
        assert!(!w.is_empty());
        assert_eq!(registry.counter(WAL_APPENDS_METRIC).get(), evts.len() as u64);
        assert!(registry.counter(WAL_FSYNCS_METRIC).get() >= 2, "group commit fsyncs");
        let full_len = w.len();
        drop(w);

        // Simulate a crash mid-append: torn half-record at the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, full_len);
        bytes.extend_from_slice(&[0x55, 0x11, 0x22]);
        std::fs::write(&path, &bytes).unwrap();

        let (w2, rec2) = WalWriter::open(&path, 1, &registry).unwrap();
        assert_eq!(rec2.events, evts, "recovery must surface every intact record");
        assert_eq!(rec2.truncated, 3);
        assert_eq!(w2.len(), full_len, "torn tail truncated before appending");
        assert_eq!(registry.counter(WAL_TRUNCATED_BYTES_METRIC).get(), 3);
        drop(w2);

        // And appends after recovery extend the same valid log.
        let (mut w3, _) = WalWriter::open(&path, 1, &registry).unwrap();
        w3.append(&evts[0]).unwrap();
        drop(w3);
        let (all, _) = decode_all(&std::fs::read(&path).unwrap());
        assert_eq!(all.len(), evts.len() + 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn click_sessions_projects_trails_in_order() {
        let evts = events();
        let sessions = click_sessions(&evts);
        assert_eq!(sessions, vec![vec![1, 2, 3], vec![], vec![128, 4096, 0]]);
    }
}
