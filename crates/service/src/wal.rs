//! The durable registration log.
//!
//! Every state-changing control-plane operation a shard acks is first
//! made durable here, so a standby can take over after a crash with
//! zero lost acked registrations. The format is deliberately dumb —
//! an append-only sequence of CRC-framed records:
//!
//! ```text
//! u32  crc32 (IEEE, big-endian) of the record bytes that follow
//! ...  one `saba_core::rpc` request frame (length-prefixed, versioned)
//! ```
//!
//! Reusing the RPC request encoding means the log speaks exactly the
//! protocol the service does: a log record *is* the wire form of the
//! operation it persists, and the decoder hardening (length caps,
//! version byte, strict trailing-byte checks) applies to recovery too.
//!
//! **Torn tails.** A crash mid-append can leave a truncated or
//! garbled final record. Recovery scans from the start and stops at
//! the first record that is incomplete, malformed, or fails its CRC:
//! everything before that point is replayed, everything after is
//! discarded (and physically truncated away on reopen, so the next
//! append never splices onto garbage). An acked operation is always
//! fully synced before the ack leaves the shard, so the discarded
//! tail can only contain operations no client ever saw succeed.
//!
//! **Fsync batching.** `append` buffers; [`DurableLog::sync`] flushes
//! the buffer and fsyncs. The shard worker drains its queue, appends
//! the whole batch, syncs once, and only then sends the batch's acks —
//! group commit. `sync_every` puts an upper bound on batch size.
//!
//! **Compaction.** The log grows with connection churn, not with live
//! state; [`DurableLog::compact`] rewrites it as a snapshot and
//! atomically renames it into place. The snapshot collapses *only*
//! connection churn: it keeps every register and deregister record in
//! its original order — the central flavour's PL assigner hands a
//! newcomer the first free slot, so the service level a tenant was
//! acked with depends on who came and went before it, and a standby
//! replaying just the live registrations would re-derive different
//! ones — followed by the live connections. That history grows with
//! tenant arrivals, not with churn. Replaying a compacted log yields
//! the same state as replaying the full history; a property test pins
//! this.

use saba_core::rpc::{self, Request, RpcError};
use saba_sim::ids::{AppId, NodeId};
use saba_telemetry::Histogram;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// CRC-32 (IEEE 802.3, reflected). Bitwise — log records are tens of
/// bytes, so table-driven speed buys nothing here.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Appends one record (CRC framing + request frame) to `buf`.
pub fn append_record(buf: &mut Vec<u8>, req: &Request) {
    let frame = rpc::encode_request(req);
    buf.extend_from_slice(&crc32(&frame).to_be_bytes());
    buf.extend_from_slice(&frame);
}

/// What a log scan found.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanReport {
    /// Intact records, in append order.
    pub records: Vec<Request>,
    /// Bytes covered by intact records (the safe truncation point).
    pub valid_bytes: usize,
    /// Bytes past the last intact record (torn/corrupt tail), if any.
    pub torn_bytes: usize,
}

/// Scans a log image, returning the longest intact record prefix.
///
/// The scan never fails: a torn or corrupt tail simply ends it. This
/// is the recovery contract — replay exactly the prefix of records
/// whose framing and CRC are intact, drop the rest.
pub fn scan(data: &[u8]) -> ScanReport {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &data[pos..];
        if rest.len() < 4 {
            break;
        }
        let want_crc = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let frame_area = &rest[4..];
        let (req, after) = match rpc::decode_request(frame_area) {
            Ok(ok) => ok,
            // Incomplete (torn tail), malformed, or a frame from a
            // different protocol generation: stop scanning.
            Err(RpcError::Incomplete | RpcError::Malformed(_) | RpcError::Version(_)) => break,
        };
        let frame_len = frame_area.len() - after.len();
        if crc32(&frame_area[..frame_len]) != want_crc {
            break;
        }
        records.push(req);
        pos += 4 + frame_len;
    }
    ScanReport {
        records,
        valid_bytes: pos,
        torn_bytes: data.len() - pos,
    }
}

/// The in-memory state a log replay reconstructs: a shard's whole
/// recovery ground truth, rebuilt from durable bytes instead of
/// surviving memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayState {
    /// Registrations in arrival order (the PL assigner is
    /// deterministic, so replay order must match arrival order).
    pub registrations: Vec<(AppId, String)>,
    /// Live connections: `(app, tag) → (src, dst)`.
    pub live_conns: BTreeMap<(AppId, u64), (NodeId, NodeId)>,
    /// Every register and deregister record, in log order: what the
    /// compaction snapshot must keep for a replaying controller to
    /// re-derive the service levels tenants were acked with.
    pub tenancy: Vec<Request>,
}

impl ReplayState {
    /// Folds one logged operation into the state.
    pub fn apply(&mut self, req: &Request) {
        match req {
            Request::AppRegister { app, workload } => {
                self.registrations.push((*app, workload.clone()));
                self.tenancy.push(req.clone());
            }
            Request::AppDeregister { app } => {
                self.registrations.retain(|(a, _)| a != app);
                self.live_conns.retain(|(a, _), _| a != app);
                self.tenancy.push(req.clone());
            }
            Request::ConnCreate { app, src, dst, tag } => {
                self.live_conns.insert((*app, *tag), (*src, *dst));
            }
            Request::ConnDestroy { app, tag } => {
                self.live_conns.remove(&(*app, *tag));
            }
            // Read-only; never logged, but replay tolerates it.
            Request::MetricsDump => {}
        }
    }

    /// Folds a whole record sequence.
    pub fn replay<'a>(records: impl IntoIterator<Item = &'a Request>) -> Self {
        let mut state = Self::default();
        for r in records {
            state.apply(r);
        }
        state
    }

    /// The record sequence that reconstructs this state *and* the PL
    /// assigner's: the compaction snapshot. The tenant history keeps
    /// log order; live connections follow in key order.
    pub fn snapshot_records(&self) -> Vec<Request> {
        let mut out = self.tenancy.clone();
        for (&(app, tag), &(src, dst)) in &self.live_conns {
            out.push(Request::ConnCreate { app, src, dst, tag });
        }
        out
    }
}

/// An append-only, CRC-framed, fsync-batched log file.
#[derive(Debug)]
pub struct DurableLog {
    path: PathBuf,
    file: BufWriter<File>,
    /// Records appended since the last [`Self::sync`].
    unsynced: usize,
    /// Auto-sync after this many appends (group-commit bound).
    sync_every: usize,
    /// Total records appended (post-recovery) — compaction heuristics
    /// and tests read this.
    appended: u64,
    /// Total fsyncs issued.
    syncs: u64,
    /// Total record bytes appended (post-recovery).
    bytes_appended: u64,
    /// Records per group commit — one sample per fsync, drained by the
    /// shard worker into the `wal.group_commit_size` metric.
    group_sizes: Histogram,
}

impl DurableLog {
    /// Opens (or creates) the log at `path`, scanning and truncating
    /// any torn tail, and returns the intact records alongside the
    /// writable log. `sync_every` bounds how many appends may ride on
    /// one fsync (1 = sync on every ack).
    pub fn open(path: &Path, sync_every: usize) -> std::io::Result<(Self, ScanReport)> {
        assert!(sync_every >= 1, "sync_every must be at least 1");
        let mut data = Vec::new();
        if path.exists() {
            File::open(path)?.read_to_end(&mut data)?;
        }
        let report = scan(&data);
        // Keep existing contents: the torn tail is trimmed by the
        // explicit `set_len` below, not by truncating on open.
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        // Drop the torn tail so the next append starts on a record
        // boundary.
        file.set_len(report.valid_bytes as u64)?;
        file.seek(SeekFrom::Start(report.valid_bytes as u64))?;
        if report.torn_bytes > 0 {
            file.sync_data()?;
        }
        Ok((
            Self {
                path: path.to_path_buf(),
                file: BufWriter::new(file),
                unsynced: 0,
                sync_every,
                appended: 0,
                syncs: 0,
                bytes_appended: 0,
                group_sizes: Histogram::new(),
            },
            report,
        ))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record, auto-syncing when the batch bound is hit.
    /// The record is **not durable** until [`Self::sync`] has run.
    pub fn append(&mut self, req: &Request) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(64);
        append_record(&mut buf, req);
        self.file.write_all(&buf)?;
        self.appended += 1;
        self.bytes_appended += buf.len() as u64;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes buffered appends and fsyncs. After this returns, every
    /// record appended so far survives a crash.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        self.group_sizes.record(self.unsynced as f64);
        self.unsynced = 0;
        self.syncs += 1;
        Ok(())
    }

    /// Records appended through this handle (since open).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Fsyncs issued (group commits).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Record bytes appended through this handle (since open).
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Drains the per-fsync group-size samples accumulated since the
    /// last drain (one sample per group commit, value = records that
    /// rode on that fsync, never exceeding `sync_every`).
    pub fn take_group_sizes(&mut self) -> Histogram {
        std::mem::take(&mut self.group_sizes)
    }

    /// Rewrites the log as the snapshot of `state`:
    /// write-to-temp, fsync, atomic rename, reopen. On return the log
    /// holds exactly `state.snapshot_records()` and subsequent appends
    /// continue after them.
    pub fn compact(&mut self, state: &ReplayState) -> std::io::Result<()> {
        self.sync()?;
        let tmp = self.path.with_extension("log.tmp");
        let mut buf = Vec::new();
        for rec in state.snapshot_records() {
            append_record(&mut buf, &rec);
        }
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        let mut file = OpenOptions::new().write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = BufWriter::new(file);
        self.unsynced = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(app: u32, wl: &str) -> Request {
        Request::AppRegister {
            app: AppId(app),
            workload: wl.into(),
        }
    }

    fn create(app: u32, src: u32, dst: u32, tag: u64) -> Request {
        Request::ConnCreate {
            app: AppId(app),
            src: NodeId(src),
            dst: NodeId(dst),
            tag,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("saba-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_scan_round_trips() {
        let recs = vec![reg(1, "LR"), create(1, 0, 1, 7), reg(2, "Sort")];
        let mut buf = Vec::new();
        for r in &recs {
            append_record(&mut buf, r);
        }
        let report = scan(&buf);
        assert_eq!(report.records, recs);
        assert_eq!(report.valid_bytes, buf.len());
        assert_eq!(report.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_is_dropped_at_every_cut() {
        let recs = vec![reg(1, "LR"), create(1, 0, 1, 7), reg(2, "Sort")];
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &recs {
            append_record(&mut buf, r);
            boundaries.push(buf.len());
        }
        for cut in 0..buf.len() {
            let report = scan(&buf[..cut]);
            // The scan keeps exactly the records wholly before the cut.
            let want = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(report.records.len(), want, "cut {cut}");
            assert_eq!(report.records[..], recs[..want], "cut {cut}");
        }
    }

    #[test]
    fn corrupt_crc_ends_the_scan() {
        let mut buf = Vec::new();
        append_record(&mut buf, &reg(1, "LR"));
        let first_end = buf.len();
        append_record(&mut buf, &reg(2, "PR"));
        // Flip a payload byte of the second record.
        let n = buf.len();
        buf[n - 1] ^= 0xFF;
        let report = scan(&buf);
        assert_eq!(report.records, vec![reg(1, "LR")]);
        assert_eq!(report.valid_bytes, first_end);
        assert!(report.torn_bytes > 0);
    }

    #[test]
    fn durable_log_survives_reopen_and_truncates_torn_tail() {
        let path = tmp("reopen.log");
        let _ = std::fs::remove_file(&path);
        {
            let (mut log, report) = DurableLog::open(&path, 2).unwrap();
            assert!(report.records.is_empty());
            log.append(&reg(1, "LR")).unwrap();
            log.append(&create(1, 0, 1, 7)).unwrap(); // auto-sync at 2
            log.append(&reg(2, "Sort")).unwrap();
            log.sync().unwrap();
            assert_eq!(log.syncs(), 2);
        }
        // Simulate a torn write: garbage appended after the synced tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        }
        let (mut log, report) = DurableLog::open(&path, 1).unwrap();
        assert_eq!(
            report.records,
            vec![reg(1, "LR"), create(1, 0, 1, 7), reg(2, "Sort")]
        );
        assert_eq!(report.torn_bytes, 3);
        // Appending after recovery starts on a clean boundary.
        log.append(&create(2, 2, 3, 9)).unwrap();
        drop(log);
        let (_, report) = DurableLog::open(&path, 1).unwrap();
        assert_eq!(report.records.len(), 4);
        assert_eq!(report.torn_bytes, 0);
    }

    #[test]
    fn replay_state_tracks_lifecycle() {
        let mut st = ReplayState::default();
        st.apply(&reg(1, "LR"));
        st.apply(&reg(2, "PR"));
        st.apply(&create(1, 0, 1, 7));
        st.apply(&create(2, 1, 2, 8));
        st.apply(&Request::ConnDestroy {
            app: AppId(1),
            tag: 7,
        });
        st.apply(&Request::AppDeregister { app: AppId(2) });
        assert_eq!(st.registrations, vec![(AppId(1), "LR".to_string())]);
        assert!(st.live_conns.is_empty(), "deregister drops app 2's conn");
    }

    #[test]
    fn group_commit_sizes_are_bounded_by_sync_every() {
        let path = tmp("group.log");
        let _ = std::fs::remove_file(&path);
        let (mut log, _) = DurableLog::open(&path, 8).unwrap();
        for i in 0..20 {
            log.append(&create(1, 0, 1, i)).unwrap();
        }
        log.sync().unwrap(); // the 4-record remainder
        let h = log.take_group_sizes();
        assert_eq!(h.count(), 3, "20 appends at sync_every=8 → 3 commits");
        assert_eq!(h.sum(), 20.0, "every append rides exactly one commit");
        assert!(h.max().unwrap() <= 8.0, "no group exceeds the bound");
        assert_eq!(h.min(), Some(4.0));
        // Drained: a second take sees only what happened since.
        assert_eq!(log.take_group_sizes().count(), 0);
        log.append(&create(1, 0, 1, 99)).unwrap();
        log.sync().unwrap();
        let h = log.take_group_sizes();
        assert_eq!((h.count(), h.sum()), (1, 1.0));
        assert!(log.bytes_appended() > 0);
    }

    #[test]
    fn compaction_preserves_replayed_state() {
        let path = tmp("compact.log");
        let _ = std::fs::remove_file(&path);
        let (mut log, _) = DurableLog::open(&path, 4).unwrap();
        let history = vec![
            reg(1, "LR"),
            create(1, 0, 1, 1),
            reg(2, "PR"),
            create(2, 2, 3, 2),
            Request::ConnDestroy {
                app: AppId(1),
                tag: 1,
            },
            create(1, 0, 2, 3),
        ];
        for r in &history {
            log.append(r).unwrap();
        }
        let full = ReplayState::replay(&history);
        log.compact(&full).unwrap();
        // Post-compaction appends land after the snapshot.
        log.append(&create(2, 3, 0, 4)).unwrap();
        log.sync().unwrap();
        drop(log);
        let (_, report) = DurableLog::open(&path, 1).unwrap();
        let mut want = full.clone();
        want.apply(&create(2, 3, 0, 4));
        assert_eq!(ReplayState::replay(&report.records), want);
        // And the snapshot holds only tenant history + live conns (+ 1).
        assert_eq!(
            report.records.len(),
            full.tenancy.len() + full.live_conns.len() + 1
        );
    }
}
