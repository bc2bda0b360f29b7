//! The gateway-facing end of the WAL: an [`EventSink`] that appends every
//! served request as a [`WalEvent`].
//!
//! The sink runs on the gateway's serving threads, so it is deliberately
//! best-effort: an append failure (disk full, log directory gone) is
//! counted in `wal.append_errors` and dropped rather than surfaced to the
//! client — a broken training feed must never fail serving. The writer
//! sits behind a `Mutex` because gateway workers share one sink; appends
//! are a buffered `write` (fsync only every `sync_every` events), so the
//! critical section is short.

use std::sync::{Arc, Mutex};

use intellitag_gateway::EventSink;
use intellitag_obs::{Counter, MetricsRegistry, WAL_APPEND_ERRORS_METRIC};

use crate::wal::{WalEvent, WalWriter};

/// Bridges the gateway's served-request stream into the WAL.
pub struct WalSink {
    writer: Mutex<WalWriter>,
    append_errors: Arc<Counter>,
}

impl WalSink {
    /// Wraps an opened [`WalWriter`]. Counting failed appends needs the
    /// same registry the writer was opened with.
    pub fn new(writer: WalWriter, registry: &MetricsRegistry) -> WalSink {
        WalSink {
            writer: Mutex::new(writer),
            append_errors: registry.counter(WAL_APPEND_ERRORS_METRIC),
        }
    }

    fn append(&self, event: &WalEvent) {
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if writer.append(event).is_err() {
            self.append_errors.inc();
        }
    }

    /// Flushes any unsynced appends (the trainer only sees fsynced bytes
    /// once the OS page cache would survive — tests call this before
    /// polling to make the hand-off deterministic).
    pub fn sync(&self) {
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if writer.sync().is_err() {
            self.append_errors.inc();
        }
    }
}

impl EventSink for WalSink {
    fn tag_click(&self, tenant: usize, clicks: &[usize]) {
        self.append(&WalEvent::TagClick { tenant, clicks: clicks.to_vec() });
    }

    fn question(&self, tenant: usize, text: &str) {
        self.append(&WalEvent::Question { tenant, text: text.to_string() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::decode_all;
    use crate::TempDir;
    use std::path::PathBuf;

    /// A log path in a directory removed when the guard drops.
    fn tmp(tag: &str) -> (TempDir, PathBuf) {
        let dir = TempDir::new("sink").unwrap();
        let path = dir.path().join(format!("{tag}.wal"));
        (dir, path)
    }

    #[test]
    fn sink_appends_served_requests_in_order() {
        let metrics = MetricsRegistry::new();
        let (_dir, path) = tmp("order");
        let (writer, _) = WalWriter::open(&path, 4, &metrics).unwrap();
        let sink = WalSink::new(writer, &metrics);
        sink.tag_click(3, &[1, 2]);
        sink.question(0, "reset password");
        sink.tag_click(3, &[1, 2, 9]);
        sink.sync();
        let (events, _) = decode_all(&std::fs::read(&path).unwrap());
        assert_eq!(
            events,
            vec![
                WalEvent::TagClick { tenant: 3, clicks: vec![1, 2] },
                WalEvent::Question { tenant: 0, text: "reset password".into() },
                WalEvent::TagClick { tenant: 3, clicks: vec![1, 2, 9] },
            ]
        );
        assert_eq!(metrics.counter(WAL_APPEND_ERRORS_METRIC).get(), 0);
    }

    #[test]
    fn sink_is_shareable_across_threads() {
        let metrics = MetricsRegistry::new();
        let (_dir, path) = tmp("threads");
        let (writer, _) = WalWriter::open(&path, 8, &metrics).unwrap();
        let sink = Arc::new(WalSink::new(writer, &metrics));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sink = Arc::clone(&sink);
                scope.spawn(move || {
                    for i in 0..25 {
                        sink.tag_click(t, &[i]);
                    }
                });
            }
        });
        sink.sync();
        let (events, _) = decode_all(&std::fs::read(&path).unwrap());
        assert_eq!(events.len(), 100, "concurrent appends never tear records");
    }
}
