//! The durable registration log.
//!
//! Every state-changing control-plane operation a shard acks is first
//! made durable here, so a standby can take over after a crash with
//! zero lost acked registrations. The format is deliberately dumb —
//! a sequence of CRC-framed records, followed by a zero-filled
//! reserve:
//!
//! ```text
//! u32  crc32 (IEEE, big-endian) of the record bytes that follow
//! ...  one `saba_core::rpc` request frame (length-prefixed, versioned)
//! ...  (more records)
//! 0…0  the reserve: real zeros to the end of the file
//! ```
//!
//! Reusing the RPC request encoding means the log speaks exactly the
//! protocol the service does: a log record *is* the wire form of the
//! operation it persists, and the decoder hardening (length caps,
//! version byte, strict trailing-byte checks) applies to recovery too.
//!
//! **The reserve.** Appends overwrite zeros that were written and
//! fsynced earlier, so the file's size does not change on a group
//! commit and its `fdatasync` flushes data blocks only, with no size
//! update to journal. When an append would cross the end of the file,
//! the log first writes another [`RESERVE`] of zeros; the next sync
//! then also commits the new size, and [`DurableLog::reserve_grows`]
//! counts those syncs. A run of zeros is not a record (its length
//! prefix is 0, an empty frame), so the reserve ends a scan like
//! end-of-file does, and logs written with and without a reserve read
//! alike.
//!
//! **Torn tails.** A crash mid-append can leave a truncated or
//! garbled final record, and — since appends land in preallocated
//! blocks that the disk may persist in any order — an intact record
//! beyond a run of zeros. Recovery scans from the start and stops at
//! the first record that is incomplete, malformed, or fails its CRC:
//! everything before that point is replayed. [`DurableLog::open`]
//! cuts a tail that holds anything but zeros and tops the reserve up,
//! so the next append never splices onto garbage and a stale record
//! past a gap cannot rejoin the log once appends fill the gap. An acked
//! operation is always fully synced before the ack leaves the shard,
//! so the discarded tail can only contain operations no client ever
//! saw succeed.
//!
//! **Fsync batching.** `append` buffers; [`DurableLog::sync`] flushes
//! the buffer and fsyncs. A shard appends a whole batch, syncs once,
//! and only then answers the batch — group commit. `sync_every` puts
//! an upper bound on batch size.
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
//! this. The snapshot carries its own reserve, and the log's directory
//! is fsynced after the rename (and after a log is created): a
//! data-only sync of the file does not commit a directory entry.

use saba_core::rpc::{self, Request, RpcError};
use saba_sim::ids::{AppId, NodeId};
use saba_telemetry::Histogram;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The zero-filled reserve a log keeps ahead of its write offset, and
/// the step by which it extends the file when an append would cross
/// the end.
pub const RESERVE: u64 = 64 * 1024;

/// Writes `len` zero bytes at `file`'s cursor, from one fixed block.
fn write_zeros(file: &mut File, mut len: u64) -> std::io::Result<()> {
    static ZEROS: [u8; 4096] = [0; 4096];
    while len > 0 {
        let n = len.min(ZEROS.len() as u64);
        file.write_all(&ZEROS[..n as usize])?;
        len -= n;
    }
    Ok(())
}

/// Fsyncs the directory holding `path`, committing a create or rename
/// of it.
fn sync_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

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
    /// [`DurableLog::open`] counts only the non-zero ones: zeros past
    /// the prefix are the reserve, not damage.
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

/// A CRC-framed, fsync-batched log file that writes into a
/// zero-filled reserve.
#[derive(Debug)]
pub struct DurableLog {
    path: PathBuf,
    file: BufWriter<File>,
    /// Offset the next record lands at (buffered bytes included).
    pos: u64,
    /// The file's length: `pos..end` is zeros already written.
    end: u64,
    /// True when an append extended the file since the last sync.
    grew: bool,
    /// Records appended since the last [`Self::sync`].
    unsynced: usize,
    /// Auto-sync after this many appends (group-commit bound).
    sync_every: usize,
    /// Total records appended (post-recovery) — compaction heuristics
    /// and tests read this.
    appended: u64,
    /// Total fsyncs issued.
    syncs: u64,
    /// Fsyncs that also committed a longer file.
    reserve_grows: u64,
    /// Total record bytes appended (post-recovery).
    bytes_appended: u64,
    /// Records per group commit — one sample per fsync, drained by the
    /// shard into the `wal.group_commit_size` metric.
    group_sizes: Histogram,
    /// When set, the next sync fails after its flush, as a disk that
    /// took the bytes but could not make them durable.
    #[cfg(test)]
    pub(crate) fail_next_sync: bool,
}

impl DurableLog {
    /// Opens (or creates) the log at `path` and returns the intact
    /// record prefix alongside the writable log. A tail past the prefix
    /// that holds any non-zero byte is cut, the zeros behind the
    /// prefix are made at least a [`RESERVE`] long, and the file is
    /// fsynced before it serves; the report's `torn_bytes` counts the
    /// non-zero bytes that were past the prefix (a clean reserve is
    /// not torn). `sync_every` bounds how many appends may ride on one
    /// fsync (1 = sync on every ack).
    pub fn open(path: &Path, sync_every: usize) -> std::io::Result<(Self, ScanReport)> {
        assert!(sync_every >= 1, "sync_every must be at least 1");
        let created = !path.exists();
        let mut data = Vec::new();
        if !created {
            File::open(path)?.read_to_end(&mut data)?;
        }
        let mut report = scan(&data);
        let valid = report.valid_bytes as u64;
        report.torn_bytes = data[report.valid_bytes..]
            .iter()
            .filter(|&&b| b != 0)
            .count();
        // Keep existing contents: anything past the prefix is cut by
        // the explicit `set_len` below, not by truncating on open.
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        let mut end = data.len() as u64;
        if report.torn_bytes > 0 {
            // A torn record, or an intact one past a zero gap that
            // appends would otherwise close: neither may outlive this
            // open.
            file.set_len(valid)?;
            end = valid;
        }
        if end < valid + RESERVE {
            file.seek(SeekFrom::Start(end))?;
            write_zeros(&mut file, valid + RESERVE - end)?;
            end = valid + RESERVE;
        }
        // Synced even when nothing changed: after a failed sync the
        // prefix may be in the page cache only, and it is served from
        // here on.
        file.sync_data()?;
        if created {
            sync_dir(path)?;
        }
        file.seek(SeekFrom::Start(valid))?;
        Ok((
            Self {
                path: path.to_path_buf(),
                file: BufWriter::new(file),
                pos: valid,
                end,
                grew: false,
                unsynced: 0,
                sync_every,
                appended: 0,
                syncs: 0,
                reserve_grows: 0,
                bytes_appended: 0,
                group_sizes: Histogram::new(),
                #[cfg(test)]
                fail_next_sync: false,
            },
            report,
        ))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Drops the handle without writing the appends it still buffers:
    /// they were never synced, and a successor opened on the same file
    /// must not find them landing under its own records.
    pub fn discard(self) {
        drop(self.file.into_parts());
    }

    /// Appends one record, auto-syncing when the batch bound is hit.
    /// The record is **not durable** until [`Self::sync`] has run.
    pub fn append(&mut self, req: &Request) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(64);
        append_record(&mut buf, req);
        let len = buf.len() as u64;
        if self.pos + len > self.end {
            self.grow(self.pos + len)?;
        }
        self.file.write_all(&buf)?;
        self.pos += len;
        self.appended += 1;
        self.bytes_appended += len;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Extends the reserve, a [`RESERVE`] at a time, until it covers
    /// `need` bytes. The write cursor returns to `pos` even when the
    /// zeros fail, so a later append never lands past a gap.
    fn grow(&mut self, need: u64) -> std::io::Result<()> {
        self.file.flush()?;
        let mut end = self.end;
        while end < need {
            end += RESERVE;
        }
        let file = self.file.get_mut();
        let zeroed = file
            .seek(SeekFrom::Start(self.end))
            .and_then(|_| write_zeros(file, end - self.end));
        file.seek(SeekFrom::Start(self.pos))?;
        zeroed?;
        self.end = end;
        self.grew = true;
        Ok(())
    }

    /// Flushes buffered appends and fsyncs. After this returns, every
    /// record appended so far survives a crash.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.file.flush()?;
        #[cfg(test)]
        if std::mem::take(&mut self.fail_next_sync) {
            return Err(std::io::Error::other("injected sync failure"));
        }
        self.file.get_ref().sync_data()?;
        self.group_sizes.record(self.unsynced as f64);
        self.unsynced = 0;
        self.syncs += 1;
        if std::mem::take(&mut self.grew) {
            self.reserve_grows += 1;
        }
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

    /// Fsyncs that had to commit a longer file because an append
    /// crossed the reserve's end; every other sync was data-only.
    pub fn reserve_grows(&self) -> u64 {
        self.reserve_grows
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

    /// Rewrites the log as the snapshot of `state`: write the
    /// snapshot and a fresh reserve to a temp file, fsync, atomic
    /// rename, fsync the directory, reopen. On return the log holds
    /// exactly `state.snapshot_records()` and subsequent appends
    /// continue after them, into the reserve.
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
            write_zeros(&mut f, RESERVE)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        sync_dir(&self.path)?;
        let pos = buf.len() as u64;
        let mut file = OpenOptions::new().write(true).open(&self.path)?;
        file.seek(SeekFrom::Start(pos))?;
        self.file = BufWriter::new(file);
        self.pos = pos;
        self.end = pos + RESERVE;
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

    /// A crash image: `prefix` intact, the first `cut` bytes of
    /// `torn`'s record, `zeros` zero bytes, then `stale` intact.
    /// Returns the image and its non-zero byte count past the prefix.
    fn crash_image(
        prefix: &[Request],
        torn: &Request,
        cut: usize,
        zeros: usize,
        stale: Option<&Request>,
    ) -> (Vec<u8>, usize) {
        let mut image = Vec::new();
        for r in prefix {
            append_record(&mut image, r);
        }
        let valid = image.len();
        let mut rec = Vec::new();
        append_record(&mut rec, torn);
        assert!(cut < rec.len(), "a torn record is cut short");
        image.extend_from_slice(&rec[..cut]);
        image.resize(image.len() + zeros, 0);
        if let Some(stale) = stale {
            append_record(&mut image, stale);
        }
        let nonzero = image[valid..].iter().filter(|&&b| b != 0).count();
        (image, nonzero)
    }

    fn record_len(req: &Request) -> usize {
        let mut buf = Vec::new();
        append_record(&mut buf, req);
        buf.len()
    }

    /// The records before the crash, the half-written one (its workload
    /// name ends in non-zero bytes, so zeros never complete it), the
    /// one left intact past a gap, and the first append after recovery.
    fn crash_cast() -> (Vec<Request>, Request, Request, Request) {
        (
            vec![reg(1, "LR"), create(1, 0, 1, 7), reg(2, "Sort")],
            reg(9, "Torn"),
            create(9, 1, 2, 77),
            create(2, 2, 3, 9),
        )
    }

    /// The file holds the prefix, then nothing but a fresh reserve.
    fn assert_prefix_then_reserve(path: &Path, valid: usize) {
        let bytes = std::fs::read(path).unwrap();
        assert_eq!(bytes.len() as u64, valid as u64 + RESERVE, "one reserve");
        assert!(bytes[valid..].iter().all(|&b| b == 0), "reserve is zeros");
    }

    #[test]
    fn open_recovers_the_prefix_of_a_crash_image() {
        let (prefix, torn, stale, next) = crash_cast();
        let cut = 6;
        // A gap the first append closes exactly, and a reserve's worth.
        for zeros in [record_len(&next) - cut, RESERVE as usize] {
            for stale in [None, Some(&stale)] {
                let path = tmp("crash-open.log");
                let (image, nonzero) = crash_image(&prefix, &torn, cut, zeros, stale);
                std::fs::write(&path, &image).unwrap();
                let (_, report) = DurableLog::open(&path, 1).unwrap();
                assert_eq!(report.records, prefix, "zeros {zeros}, stale {stale:?}");
                assert_eq!(report.torn_bytes, nonzero, "only non-zero bytes are torn");
                assert_prefix_then_reserve(&path, report.valid_bytes);
            }
        }
    }

    #[test]
    fn an_append_after_recovery_never_revives_a_record_past_the_gap() {
        let (prefix, torn, stale, next) = crash_cast();
        let cut = 6;
        for zeros in [record_len(&next) - cut, RESERVE as usize] {
            let path = tmp("crash-append.log");
            let (image, _) = crash_image(&prefix, &torn, cut, zeros, Some(&stale));
            std::fs::write(&path, &image).unwrap();
            let (mut log, _) = DurableLog::open(&path, 1).unwrap();
            log.append(&next).unwrap();
            drop(log);
            let (_, report) = DurableLog::open(&path, 1).unwrap();
            let mut want = prefix.clone();
            want.push(next.clone());
            assert_eq!(report.records, want, "zeros {zeros}");
            assert_eq!(report.torn_bytes, 0);
            assert_prefix_then_reserve(&path, report.valid_bytes);
        }
    }

    #[test]
    fn a_compacted_crash_image_keeps_its_reserve_and_replays_like_its_history() {
        let (prefix, torn, stale, next) = crash_cast();
        let path = tmp("crash-compact.log");
        let (image, _) = crash_image(&prefix, &torn, 6, 40, Some(&stale));
        std::fs::write(&path, &image).unwrap();
        let (mut log, report) = DurableLog::open(&path, 2).unwrap();
        let mut history = report.records;
        for r in [
            next.clone(),
            Request::ConnDestroy {
                app: AppId(1),
                tag: 7,
            },
        ] {
            log.append(&r).unwrap();
            history.push(r);
        }
        let state = ReplayState::replay(&history);
        log.compact(&state).unwrap();
        let mut snapshot = Vec::new();
        for r in state.snapshot_records() {
            append_record(&mut snapshot, &r);
        }
        assert_prefix_then_reserve(&path, snapshot.len());
        // Appends after compaction land in the snapshot's reserve.
        let after = create(1, 1, 3, 8);
        log.append(&after).unwrap();
        log.sync().unwrap();
        history.push(after);
        drop(log);
        let (_, report) = DurableLog::open(&path, 1).unwrap();
        assert_eq!(
            ReplayState::replay(&report.records),
            ReplayState::replay(&history)
        );
        assert_eq!(report.torn_bytes, 0);
        assert_prefix_then_reserve(&path, report.valid_bytes);
    }

    #[test]
    fn crossing_the_reserve_grows_it_by_one_step_on_one_sync() {
        let path = tmp("grow.log");
        let _ = std::fs::remove_file(&path);
        let (mut log, _) = DurableLog::open(&path, 1).unwrap();
        let per = record_len(&create(1, 0, 1, 0)) as u64;
        let fit = RESERVE / per;
        let mut records = Vec::new();
        for tag in 0..fit + 1 {
            let r = create(1, 0, 1, tag);
            log.append(&r).unwrap();
            records.push(r);
            let len = std::fs::metadata(&path).unwrap().len();
            let grows = u64::from(tag >= fit);
            assert_eq!((log.reserve_grows(), len), (grows, RESERVE * (1 + grows)));
        }
        assert_eq!(log.syncs(), fit + 1, "every other sync was data-only");
        drop(log);
        let (_, report) = DurableLog::open(&path, 1).unwrap();
        assert_eq!(report.records, records);
        assert_eq!(report.torn_bytes, 0);
    }
}
