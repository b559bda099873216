//! The durability store: owns a data directory holding a `snap-N` /
//! `wal-N` pair and drives the snapshot → append → rotate lifecycle.
//!
//! Invariants the store maintains:
//!
//! * A WAL record is reported durable only after its bytes are appended
//!   **and** fsync'd. On any append/fsync failure the WAL is rolled
//!   back to its last durable length so the next append lands on a
//!   frame boundary; if even the rollback fails the WAL is *poisoned*
//!   (every further `log` errors) until a snapshot rotation replaces it
//!   with a fresh file.
//! * Rotation commits on the snapshot rename. The fresh `wal-(N+1)` is
//!   created *first*; only then is `snap-(N+1)` renamed into place
//!   (atomically, temp + rename via [`StorageIo::write_atomic`]). A
//!   crash or error between the two leaves a stray `wal-(N+1)` that
//!   recovery never looks at — the old pair stays authoritative and
//!   keeps accepting appends, so no acknowledged record is ever
//!   stranded in a WAL the next boot ignores. Conversely, once
//!   `snap-N` exists its `wal-N` must too: a missing WAL for the
//!   highest snapshot is hard corruption, not a fresh start.
//! * No write ever produces a file recovery refuses: a record or
//!   snapshot session whose payload exceeds the frame cap is rejected
//!   up front with [`StoreError::TooLarge`] instead of being framed.
//! * Recovery tolerates exactly one kind of damage — a torn tail at the
//!   physical end of the WAL, the signature of a crash mid-append. It
//!   is truncated away and counted. Everything else (bad magic, bad
//!   version, a CRC-valid record that fails to decode, a bad frame
//!   *before* the physical tail, any damage to the snapshot) is a hard
//!   [`StoreError::Corrupt`] naming the file and byte offset: boot
//!   fails loudly instead of serving a silently emptier registry.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cqchase_obs::hist::{Pow2Histogram, BUCKETS};

use crate::frame::{
    check_header, file_header, frame, read_frame, Frame, FILE_HEADER_LEN, MAX_PAYLOAD, SNAP_MAGIC,
    WAL_MAGIC,
};
use crate::io::StorageIo;
use crate::record::{SessionRecord, WalRecord};

/// Default WAL size past which [`Store::should_rotate`] asks for a
/// fresh snapshot (16 MiB).
pub const DEFAULT_ROTATE_BYTES: u64 = 16 << 20;

/// Why the store could not proceed.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed.
    Io(io::Error),
    /// A file's content is invalid — boot must not proceed.
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// Byte offset of the first invalid content.
        offset: u64,
        /// Human-readable description.
        reason: String,
    },
    /// The WAL is poisoned: a previous append failed *and* the rollback
    /// truncate failed, so the tail is unknown. Cleared by rotation.
    Poisoned(String),
    /// A record (or snapshot session) payload exceeds the frame size
    /// cap. Refused at write time: framing it would produce a file
    /// recovery permanently refuses to read.
    TooLarge {
        /// The payload's encoded size in bytes.
        len: usize,
        /// The cap ([`crate::frame::MAX_PAYLOAD`]).
        cap: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "durability i/o error: {e}"),
            StoreError::Corrupt {
                file,
                offset,
                reason,
            } => {
                write!(f, "{}: corrupt at byte {offset}: {reason}", file.display())
            }
            StoreError::Poisoned(reason) => {
                write!(
                    f,
                    "wal poisoned (rollback failed: {reason}); snapshot rotation required"
                )
            }
            StoreError::TooLarge { len, cap } => {
                write!(
                    f,
                    "record payload of {len} bytes exceeds the {cap}-byte frame cap"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Monotonic counters exposed through the service `stats` op.
#[derive(Debug, Default)]
pub struct StoreStats {
    snapshots_written: AtomicU64,
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
    fsyncs: AtomicU64,
    fsync_total_us: AtomicU64,
    fsync_hist: Pow2Histogram,
    recoveries: AtomicU64,
    torn_tails_discarded: AtomicU64,
}

impl StoreStats {
    /// Snapshots written (including rotations).
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written.load(Ordering::Relaxed)
    }
    /// WAL records durably appended.
    pub fn wal_records(&self) -> u64 {
        self.wal_records.load(Ordering::Relaxed)
    }
    /// WAL bytes durably appended (cumulative, across rotations).
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes.load(Ordering::Relaxed)
    }
    /// Successful fsync calls issued by the store.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }
    /// Cumulative wall time spent in successful fsync calls, µs.
    pub fn fsync_total_us(&self) -> u64 {
        self.fsync_total_us.load(Ordering::Relaxed)
    }
    /// Power-of-two fsync latency histogram ([`Pow2Histogram`]).
    pub fn fsync_histogram(&self) -> [u64; BUCKETS] {
        self.fsync_hist.counts()
    }
    /// Records one successful fsync: bumps the call counter and lands
    /// the latency in the histogram.
    fn record_fsync(&self, elapsed: std::time::Duration) {
        let us = elapsed.as_micros() as u64;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.fsync_total_us.fetch_add(us, Ordering::Relaxed);
        self.fsync_hist.record_us(us);
    }
    /// Boots that restored existing on-disk state.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }
    /// Torn WAL tails truncated away during recovery.
    pub fn torn_tails_discarded(&self) -> u64 {
        self.torn_tails_discarded.load(Ordering::Relaxed)
    }
}

/// What [`Store::open`] found on disk.
#[derive(Debug)]
pub struct Recovered {
    /// Sessions from the loaded snapshot (empty on a fresh directory).
    pub sessions: Vec<SessionRecord>,
    /// WAL records to replay, oldest first.
    pub wal: Vec<WalRecord>,
    /// Sequence number of the loaded `snap-N`/`wal-N` pair.
    pub seq: u64,
    /// Description of a torn WAL tail that was truncated away, if any.
    pub torn_tail: Option<String>,
}

impl Recovered {
    /// True when the directory held no prior state.
    pub fn is_fresh(&self) -> bool {
        self.sessions.is_empty() && self.wal.is_empty() && self.seq == 0
    }
}

#[derive(Debug)]
struct WalState {
    /// Sequence number of the active `snap-N`/`wal-N` pair.
    seq: u64,
    /// Durable length of the active WAL file: every byte below this is
    /// fsync'd and frame-aligned.
    durable_len: u64,
    /// Set when rollback after a failed append also failed.
    poisoned: Option<String>,
}

/// Handle on a data directory. Shareable across threads; `log`,
/// `install_snapshot`, and `should_rotate` serialize on an internal
/// lock (callers coordinate snapshot *content* themselves).
#[derive(Debug)]
pub struct Store {
    io: Arc<dyn StorageIo>,
    dir: PathBuf,
    rotate_bytes: u64,
    state: Mutex<WalState>,
    stats: StoreStats,
}

fn seq_of(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.parse().ok()
}

impl Store {
    /// Opens (or initializes) a data directory and recovers its state.
    ///
    /// A fresh directory gets an empty `snap-0` and `wal-0`. Otherwise
    /// the highest-sequence snapshot is loaded and its WAL scanned; a
    /// torn tail is truncated away, any other damage is a hard error.
    pub fn open(
        io: Arc<dyn StorageIo>,
        dir: &Path,
        rotate_bytes: u64,
    ) -> Result<(Store, Recovered), StoreError> {
        io.create_dir_all(dir)?;
        let latest = io
            .list(dir)?
            .iter()
            .filter_map(|n| seq_of(n, "snap-"))
            .max();
        let store = Store {
            io,
            dir: dir.to_path_buf(),
            rotate_bytes,
            state: Mutex::new(WalState {
                seq: 0,
                durable_len: 0,
                poisoned: None,
            }),
            stats: StoreStats::default(),
        };

        let recovered = match latest {
            None => {
                store.write_empty_pair(0)?;
                store.state.lock().expect("store lock").durable_len = FILE_HEADER_LEN as u64;
                Recovered {
                    sessions: Vec::new(),
                    wal: Vec::new(),
                    seq: 0,
                    torn_tail: None,
                }
            }
            Some(seq) => {
                let sessions = store.read_snapshot(seq)?;
                let (wal, torn_tail) = store.recover_wal(seq)?;
                store.stats.recoveries.fetch_add(1, Ordering::Relaxed);
                if torn_tail.is_some() {
                    store
                        .stats
                        .torn_tails_discarded
                        .fetch_add(1, Ordering::Relaxed);
                }
                let mut state = store.state.lock().expect("store lock");
                state.seq = seq;
                state.durable_len = store.io.len(&store.wal_path(seq))?;
                drop(state);
                Recovered {
                    sessions,
                    wal,
                    seq,
                    torn_tail,
                }
            }
        };
        Ok((store, recovered))
    }

    /// The store's monotonic counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Current durable length of the active WAL file in bytes.
    pub fn wal_len(&self) -> u64 {
        self.state.lock().expect("store lock").durable_len
    }

    /// Sequence number of the active `snap-N`/`wal-N` pair.
    pub fn seq(&self) -> u64 {
        self.state.lock().expect("store lock").seq
    }

    fn snap_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("snap-{seq}"))
    }

    fn wal_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("wal-{seq}"))
    }

    fn write_empty_pair(&self, seq: u64) -> Result<(), StoreError> {
        // WAL before snapshot, same as rotation: a snapshot must never
        // exist without its WAL (recovery treats that as corruption).
        self.io
            .write_atomic(&self.wal_path(seq), &file_header(WAL_MAGIC))?;
        self.io.write_atomic(
            &self.snap_path(seq),
            &Store::encode_snapshot(&[]).expect("empty snapshot is under the cap"),
        )?;
        Ok(())
    }

    fn encode_snapshot(sessions: &[SessionRecord]) -> Result<Vec<u8>, StoreError> {
        let mut out = file_header(SNAP_MAGIC);
        out.extend_from_slice(&(sessions.len() as u32).to_le_bytes());
        for s in sessions {
            let payload = s.encode();
            if payload.len() > MAX_PAYLOAD as usize {
                return Err(StoreError::TooLarge {
                    len: payload.len(),
                    cap: MAX_PAYLOAD,
                });
            }
            out.extend_from_slice(&frame(&payload));
        }
        Ok(out)
    }

    fn corrupt(&self, path: &Path, offset: u64, reason: String) -> StoreError {
        StoreError::Corrupt {
            file: path.to_path_buf(),
            offset,
            reason,
        }
    }

    fn read_snapshot(&self, seq: u64) -> Result<Vec<SessionRecord>, StoreError> {
        let path = self.snap_path(seq);
        let buf = self.io.read(&path)?;
        let mut off = check_header(&buf, SNAP_MAGIC).map_err(|(o, r)| self.corrupt(&path, o, r))?;
        if off + 4 > buf.len() {
            return Err(self.corrupt(&path, off as u64, "session count truncated".into()));
        }
        let count = u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes"));
        off += 4;
        let mut sessions = Vec::with_capacity(count.min(1024) as usize);
        for i in 0..count {
            match read_frame(&buf, off) {
                Frame::Record { payload, next } => {
                    let payload_start = off + crate::frame::RECORD_HEADER_LEN;
                    let rec = SessionRecord::decode(payload)
                        .map_err(|(o, r)| self.corrupt(&path, (payload_start + o) as u64, r))?;
                    sessions.push(rec);
                    off = next;
                }
                Frame::End => {
                    return Err(self.corrupt(
                        &path,
                        off as u64,
                        format!("snapshot ends after {i} of {count} session records"),
                    ));
                }
                Frame::Torn { offset, reason } | Frame::Corrupt { offset, reason } => {
                    return Err(self.corrupt(&path, offset, reason));
                }
            }
        }
        if off != buf.len() {
            return Err(self.corrupt(
                &path,
                off as u64,
                format!(
                    "{} trailing bytes after {count} session records",
                    buf.len() - off
                ),
            ));
        }
        Ok(sessions)
    }

    /// Scans `wal-seq`, truncating a torn tail away. Returns the valid
    /// records and the tail description if one was discarded.
    fn recover_wal(&self, seq: u64) -> Result<(Vec<WalRecord>, Option<String>), StoreError> {
        let path = self.wal_path(seq);
        let buf = match self.io.read(&path) {
            Ok(buf) => buf,
            // The writer creates `wal-N` strictly before the `snap-N`
            // rename that commits the pair, so a snapshot without its
            // WAL can only mean external damage — and the missing WAL
            // may have held acknowledged records. Fail loudly.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(self.corrupt(
                    &path,
                    0,
                    format!(
                        "wal missing for snapshot {} (acknowledged records may be lost)",
                        self.snap_path(seq).display()
                    ),
                ));
            }
            Err(e) => return Err(e.into()),
        };
        // The header is written atomically with the file, so a bad or
        // short header is real corruption, not a torn append.
        let mut off = check_header(&buf, WAL_MAGIC).map_err(|(o, r)| self.corrupt(&path, o, r))?;
        let mut records = Vec::new();
        loop {
            match read_frame(&buf, off) {
                Frame::Record { payload, next } => {
                    let payload_start = off + crate::frame::RECORD_HEADER_LEN;
                    // CRC passed: a decode failure here is not a torn
                    // write but a writer/reader disagreement — hard stop.
                    let rec = WalRecord::decode(payload)
                        .map_err(|(o, r)| self.corrupt(&path, (payload_start + o) as u64, r))?;
                    records.push(rec);
                    off = next;
                }
                Frame::End => return Ok((records, None)),
                // A bad frame *before* the physical tail (mid-file bit
                // rot) may shadow acknowledged records behind it —
                // truncating would silently lose them, so boot fails.
                Frame::Corrupt { offset, reason } => {
                    return Err(self.corrupt(&path, offset, reason));
                }
                Frame::Torn { offset, reason } => {
                    self.io.truncate(&path, offset)?;
                    let t0 = std::time::Instant::now();
                    self.io.fsync(&path)?;
                    self.stats.record_fsync(t0.elapsed());
                    let tail = format!(
                        "torn wal tail at byte {offset} of {}: {reason} ({} bytes discarded)",
                        path.display(),
                        buf.len() as u64 - offset
                    );
                    return Ok((records, Some(tail)));
                }
            }
        }
    }

    /// Durably appends one record: the record is on stable storage when
    /// this returns `Ok`. On failure the WAL is rolled back to its last
    /// durable length (or poisoned if rollback fails) and the record is
    /// NOT durable — the caller must not acknowledge the operation.
    pub fn log(&self, rec: &WalRecord) -> Result<(), StoreError> {
        let payload = rec.encode();
        if payload.len() > MAX_PAYLOAD as usize {
            // Refused up front: an oversized frame on disk would be
            // unreadable (and `len as u32` would wrap past 4 GiB).
            return Err(StoreError::TooLarge {
                len: payload.len(),
                cap: MAX_PAYLOAD,
            });
        }
        let framed = frame(&payload);
        let mut state = self.state.lock().expect("store lock");
        if let Some(reason) = &state.poisoned {
            return Err(StoreError::Poisoned(reason.clone()));
        }
        let path = self.wal_path(state.seq);
        let mut fsync_elapsed = std::time::Duration::ZERO;
        let result = self.io.append(&path, &framed).and_then(|()| {
            let t0 = std::time::Instant::now();
            let r = self.io.fsync(&path);
            fsync_elapsed = t0.elapsed();
            r
        });
        match result {
            Ok(()) => {
                state.durable_len += framed.len() as u64;
                self.stats.wal_records.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .wal_bytes
                    .fetch_add(framed.len() as u64, Ordering::Relaxed);
                self.stats.record_fsync(fsync_elapsed);
                Ok(())
            }
            Err(e) => {
                // Undo whatever prefix landed so the next append starts
                // on a frame boundary.
                if let Err(tr) = self.io.truncate(&path, state.durable_len) {
                    state.poisoned = Some(format!("{tr} (after append failure: {e})"));
                }
                Err(e.into())
            }
        }
    }

    /// True when the active WAL has outgrown the rotation threshold, or
    /// is poisoned and needs a rotation to recover.
    pub fn should_rotate(&self) -> bool {
        let state = self.state.lock().expect("store lock");
        state.poisoned.is_some() || state.durable_len >= self.rotate_bytes
    }

    /// Writes a fresh snapshot holding `sessions` and starts an empty
    /// WAL under the next sequence number. On success the previous pair
    /// is removed (best-effort) and a previously poisoned WAL is healed.
    /// On failure nothing changed: the old pair stays authoritative and
    /// keeps accepting appends, so no acknowledged record is at risk.
    ///
    /// The caller must guarantee `sessions` reflects every record it
    /// has logged (no update may be durable in the old WAL yet missing
    /// from `sessions`, or it would be lost with the old pair).
    pub fn install_snapshot(&self, sessions: &[SessionRecord]) -> Result<(), StoreError> {
        let bytes = Store::encode_snapshot(sessions)?;
        let mut state = self.state.lock().expect("store lock");
        let next = state.seq + 1;
        // Write order is the crash-safety story: the fresh WAL is
        // created FIRST and the snapshot rename is the commit point.
        // Recovery only ever looks at the WAL matching the highest
        // snapshot, so a crash (or error) between the two writes leaves
        // a stray `wal-(next)` it ignores — while `snap-(next)` first
        // would make a boot adopt the new snapshot with an empty WAL
        // and silently drop everything acknowledged into `wal-(old)`
        // after the failed rotation.
        self.io
            .write_atomic(&self.wal_path(next), &file_header(WAL_MAGIC))?;
        if let Err(e) = self.io.write_atomic(&self.snap_path(next), &bytes) {
            // Best-effort: a stray WAL is harmless but untidy.
            let _ = self.io.remove(&self.wal_path(next));
            return Err(e.into());
        }
        let old = state.seq;
        state.seq = next;
        state.durable_len = FILE_HEADER_LEN as u64;
        state.poisoned = None;
        self.stats.snapshots_written.fetch_add(1, Ordering::Relaxed);
        // The new pair is authoritative; losing the old one is harmless.
        let _ = self.io.remove(&self.wal_path(old));
        let _ = self.io.remove(&self.snap_path(old));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemIo;
    use cqchase_ir::Constant;

    fn dir() -> PathBuf {
        PathBuf::from("/data")
    }

    fn reg(name: &str) -> WalRecord {
        WalRecord::Register {
            name: name.into(),
            program: format!("relation {name}(a)."),
        }
    }

    fn upd(session: &str, v: i64) -> WalRecord {
        WalRecord::Update {
            session: session.into(),
            deltas: vec![(vec![("R".into(), vec![Constant::int(v)])], vec![])],
        }
    }

    fn sess(name: &str, epoch: u64) -> SessionRecord {
        SessionRecord {
            name: name.into(),
            schema: format!("relation {name}(a).\n"),
            epoch,
            relations: vec![(name.into(), vec![vec![Constant::int(1)]])],
        }
    }

    #[test]
    fn fresh_open_then_reopen_replays_log() {
        let io = Arc::new(MemIo::new());
        let (store, rec) = Store::open(io.clone(), &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        assert!(rec.is_fresh());
        store.log(&reg("s1")).unwrap();
        store.log(&upd("s1", 7)).unwrap();
        store.log(&upd("s1", 8)).unwrap();
        assert_eq!(store.stats().wal_records(), 3);
        assert_eq!(store.stats().fsyncs(), 3);

        let (store2, rec2) = Store::open(io, &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        assert_eq!(rec2.seq, 0);
        assert_eq!(rec2.wal, vec![reg("s1"), upd("s1", 7), upd("s1", 8)]);
        assert!(rec2.torn_tail.is_none());
        assert_eq!(store2.stats().recoveries(), 1);
    }

    #[test]
    fn kill_at_every_byte_offset_recovers_a_record_prefix() {
        let io = Arc::new(MemIo::new());
        let (store, _) = Store::open(io.clone(), &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        let records = [reg("s1"), upd("s1", 1), upd("s1", 2)];
        let mut boundaries = vec![store.wal_len()];
        for r in &records {
            store.log(r).unwrap();
            boundaries.push(store.wal_len());
        }
        let wal = io.dump(&dir().join("wal-0")).unwrap();
        assert_eq!(wal.len() as u64, *boundaries.last().unwrap());

        for cut in FILE_HEADER_LEN..=wal.len() {
            let io2 = Arc::new(MemIo::new());
            io2.set_file(
                &dir().join("snap-0"),
                io.dump(&dir().join("snap-0")).unwrap(),
            );
            io2.set_file(&dir().join("wal-0"), wal[..cut].to_vec());
            let (store2, rec) = Store::open(io2.clone(), &dir(), DEFAULT_ROTATE_BYTES).unwrap();
            // Exactly the records whose frames fit below the cut survive.
            let survivors = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(rec.wal.len(), survivors, "cut at {cut}");
            assert_eq!(rec.wal, records[..survivors], "cut at {cut}");
            let on_boundary = boundaries.contains(&(cut as u64));
            assert_eq!(rec.torn_tail.is_some(), !on_boundary, "cut at {cut}");
            // The torn tail is physically gone: the file now ends on the
            // last good frame boundary and appends resume cleanly.
            assert_eq!(
                io2.dump(&dir().join("wal-0")).unwrap().len() as u64,
                boundaries[survivors],
                "cut at {cut}"
            );
            store2.log(&upd("s1", 99)).unwrap();
            let (_, rec3) = Store::open(io2, &dir(), DEFAULT_ROTATE_BYTES).unwrap();
            assert_eq!(rec3.wal.last(), Some(&upd("s1", 99)), "cut at {cut}");
        }
    }

    #[test]
    fn fsync_histogram_counts_every_successful_fsync() {
        let io = Arc::new(MemIo::new());
        let (store, _) = Store::open(io.clone(), &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        store.log(&reg("s1")).unwrap();
        store.log(&upd("s1", 1)).unwrap();
        io.set_fail_fsync(true);
        assert!(store.log(&upd("s1", 2)).is_err());
        io.set_fail_fsync(false);
        store.log(&upd("s1", 3)).unwrap();

        let hist = store.stats().fsync_histogram();
        let total: u64 = hist.iter().sum();
        // Only the three successful appends land in the histogram.
        assert_eq!(total, 3);
        assert_eq!(total, store.stats().fsyncs());
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error_naming_file_and_offset() {
        let io = Arc::new(MemIo::new());
        let (store, _) = Store::open(io.clone(), &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        store.install_snapshot(&[sess("s1", 3)]).unwrap();
        let path = dir().join("snap-1");
        let good = io.dump(&path).unwrap();

        let open = |bytes: Vec<u8>| {
            let io2 = Arc::new(MemIo::new());
            io2.set_file(&path, bytes);
            io2.set_file(&dir().join("wal-1"), file_header(WAL_MAGIC));
            Store::open(io2, &dir(), DEFAULT_ROTATE_BYTES)
        };

        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        match open(bad) {
            Err(StoreError::Corrupt {
                file,
                offset,
                reason,
            }) => {
                assert_eq!(file, path);
                assert_eq!(offset, 0);
                assert!(reason.contains("bad magic"), "{reason}");
            }
            other => panic!("{other:?}"),
        }

        // Bad version.
        let mut bad = good.clone();
        bad[8] = 2;
        match open(bad) {
            Err(StoreError::Corrupt { offset, reason, .. }) => {
                assert_eq!(offset, 8);
                assert!(reason.contains("version"), "{reason}");
            }
            other => panic!("{other:?}"),
        }

        // Flipped payload byte (CRC mismatch).
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        match open(bad) {
            Err(StoreError::Corrupt { reason, .. }) => {
                assert!(reason.contains("crc mismatch"), "{reason}");
            }
            other => panic!("{other:?}"),
        }

        // Truncated mid-record: snapshots do NOT get torn-tail leniency.
        match open(good[..good.len() - 3].to_vec()) {
            Err(StoreError::Corrupt { reason, .. }) => {
                assert!(reason.contains("truncated"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn failed_fsync_rolls_back_and_is_not_durable() {
        let io = Arc::new(MemIo::new());
        let (store, _) = Store::open(io.clone(), &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        store.log(&reg("s1")).unwrap();
        let durable = store.wal_len();

        io.set_fail_fsync(true);
        assert!(store.log(&upd("s1", 1)).is_err());
        io.set_fail_fsync(false);
        // Rolled back: the unacknowledged record left no trace.
        assert_eq!(store.wal_len(), durable);
        assert_eq!(io.dump(&dir().join("wal-0")).unwrap().len() as u64, durable);

        // Torn short append likewise.
        io.arm_short_append(3);
        assert!(store.log(&upd("s1", 2)).is_err());
        assert_eq!(io.dump(&dir().join("wal-0")).unwrap().len() as u64, durable);

        // The log keeps working afterwards.
        store.log(&upd("s1", 3)).unwrap();
        let (_, rec) = Store::open(io, &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        assert_eq!(rec.wal, vec![reg("s1"), upd("s1", 3)]);
    }

    #[test]
    fn failed_rollback_poisons_until_rotation() {
        let io = Arc::new(MemIo::new());
        let (store, _) = Store::open(io.clone(), &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        io.set_fail_fsync(true);
        io.set_fail_truncate(true);
        assert!(store.log(&reg("s1")).is_err());
        io.set_fail_fsync(false);
        io.set_fail_truncate(false);

        // Poisoned: even a healthy I/O layer is refused now.
        match store.log(&reg("s2")) {
            Err(StoreError::Poisoned(_)) => {}
            other => panic!("{other:?}"),
        }
        assert!(store.should_rotate());

        // Rotation heals: fresh WAL, logging resumes.
        store.install_snapshot(&[sess("s1", 0)]).unwrap();
        store.log(&upd("s1", 5)).unwrap();
        let (_, rec) = Store::open(io, &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        assert_eq!(rec.seq, 1);
        assert_eq!(rec.sessions, vec![sess("s1", 0)]);
        assert_eq!(rec.wal, vec![upd("s1", 5)]);
    }

    #[test]
    fn rotation_threshold_and_cleanup() {
        let io = Arc::new(MemIo::new());
        let (store, _) = Store::open(io.clone(), &dir(), 64).unwrap();
        assert!(!store.should_rotate());
        while !store.should_rotate() {
            store.log(&upd("s1", 1)).unwrap();
        }
        store.install_snapshot(&[sess("s1", 9)]).unwrap();
        assert_eq!(store.seq(), 1);
        assert!(!store.should_rotate());
        assert_eq!(store.stats().snapshots_written(), 1);
        // Old pair removed; new pair authoritative.
        assert!(io.dump(&dir().join("snap-0")).is_none());
        assert!(io.dump(&dir().join("wal-0")).is_none());
        let (_, rec) = Store::open(io, &dir(), 64).unwrap();
        assert_eq!(rec.seq, 1);
        assert_eq!(rec.sessions, vec![sess("s1", 9)]);
        assert!(rec.wal.is_empty());
    }

    #[test]
    fn missing_wal_for_snapshot_seq_is_corrupt() {
        // The WAL is created before the snapshot rename commits the
        // pair, so a snapshot without its WAL is external damage that
        // may have taken acknowledged records with it: boot must fail.
        let io = Arc::new(MemIo::new());
        let (store, _) = Store::open(io.clone(), &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        store.install_snapshot(&[sess("s1", 2)]).unwrap();
        io.remove(&dir().join("wal-1")).unwrap();
        match Store::open(io, &dir(), DEFAULT_ROTATE_BYTES) {
            Err(StoreError::Corrupt { file, reason, .. }) => {
                assert_eq!(file, dir().join("wal-1"));
                assert!(reason.contains("wal missing"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn failed_rotation_keeps_old_pair_authoritative_at_every_step() {
        // Fail rotation at each of its two write_atomic calls in turn:
        // either way the store must stay on the old pair, keep
        // accepting appends, and a reboot must see every acknowledged
        // record — the exact scenario where snapshot-first ordering
        // silently lost the tail of the old WAL.
        for fail_after in 0..2u64 {
            let io = Arc::new(MemIo::new());
            let (store, _) = Store::open(io.clone(), &dir(), DEFAULT_ROTATE_BYTES).unwrap();
            store.log(&reg("s1")).unwrap();
            store.log(&upd("s1", 1)).unwrap();

            io.arm_write_atomic_failure(fail_after);
            assert!(
                store.install_snapshot(&[sess("s1", 2)]).is_err(),
                "fail_after {fail_after}"
            );
            assert_eq!(store.seq(), 0, "fail_after {fail_after}");
            assert!(
                io.dump(&dir().join("snap-1")).is_none(),
                "fail_after {fail_after}: no new snapshot may exist"
            );

            // Acknowledged after the failed rotation, into the old WAL.
            store.log(&upd("s1", 2)).unwrap();

            let (store2, rec) = Store::open(io.clone(), &dir(), DEFAULT_ROTATE_BYTES).unwrap();
            assert_eq!(rec.seq, 0, "fail_after {fail_after}");
            assert_eq!(
                rec.wal,
                vec![reg("s1"), upd("s1", 1), upd("s1", 2)],
                "fail_after {fail_after}: every acknowledged record survives"
            );

            // The rotation retry succeeds and carries the full state.
            store2.install_snapshot(&[sess("s1", 3)]).unwrap();
            let (_, rec) = Store::open(io, &dir(), DEFAULT_ROTATE_BYTES).unwrap();
            assert_eq!(rec.seq, 1);
            assert_eq!(rec.sessions, vec![sess("s1", 3)]);
        }
    }

    #[test]
    fn stray_wal_from_interrupted_rotation_is_ignored_and_overwritten() {
        // Crash after wal-(next) creation but before the snap-(next)
        // rename: the stray WAL must not confuse recovery, and the
        // rotation retry must overwrite it.
        let io = Arc::new(MemIo::new());
        let (store, _) = Store::open(io.clone(), &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        store.log(&reg("s1")).unwrap();
        io.set_file(&dir().join("wal-1"), file_header(WAL_MAGIC));

        let (store2, rec) = Store::open(io.clone(), &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        assert_eq!(rec.seq, 0);
        assert_eq!(rec.wal, vec![reg("s1")]);
        store2.install_snapshot(&[sess("s1", 1)]).unwrap();
        assert_eq!(store2.seq(), 1);
        store2.log(&upd("s1", 4)).unwrap();
        let (_, rec) = Store::open(io, &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        assert_eq!(rec.seq, 1);
        assert_eq!(rec.wal, vec![upd("s1", 4)]);
    }

    #[test]
    fn mid_wal_corruption_is_a_hard_error_not_a_torn_tail() {
        let io = Arc::new(MemIo::new());
        let (store, _) = Store::open(io.clone(), &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        store.log(&reg("s1")).unwrap();
        store.log(&upd("s1", 1)).unwrap();
        store.log(&upd("s1", 2)).unwrap();
        let path = dir().join("wal-0");
        let good = io.dump(&path).unwrap();

        // Flip a payload byte in the FIRST record: two acknowledged
        // records sit after it, so truncating there would lose them —
        // this must be a hard Corrupt, not a "benign" torn tail.
        let mut bad = good.clone();
        bad[FILE_HEADER_LEN + crate::frame::RECORD_HEADER_LEN] ^= 0x01;
        io.set_file(&path, bad);
        match Store::open(io.clone(), &dir(), DEFAULT_ROTATE_BYTES) {
            Err(StoreError::Corrupt {
                file,
                offset,
                reason,
            }) => {
                assert_eq!(file, path);
                assert_eq!(offset, FILE_HEADER_LEN as u64);
                assert!(reason.contains("crc mismatch"), "{reason}");
            }
            other => panic!("{other:?}"),
        }

        // The same flip in the LAST record is the torn-append
        // signature: recovery truncates it and keeps the prefix.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        io.set_file(&path, bad);
        let (_, rec) = Store::open(io, &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        assert_eq!(rec.wal, vec![reg("s1"), upd("s1", 1)]);
        assert!(rec.torn_tail.is_some());
    }

    #[test]
    fn oversized_payloads_are_refused_at_write_time() {
        let io = Arc::new(MemIo::new());
        let (store, _) = Store::open(io.clone(), &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        store.log(&reg("s1")).unwrap();
        let durable = store.wal_len();

        // A WAL record past the frame cap: refused, nothing written.
        let huge = WalRecord::Register {
            name: "big".into(),
            program: "x".repeat(MAX_PAYLOAD as usize + 1),
        };
        match store.log(&huge) {
            Err(StoreError::TooLarge { len, cap }) => {
                assert!(len > cap as usize);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(store.wal_len(), durable);

        // A snapshot session past the cap: refused, old pair intact.
        let big_sess = SessionRecord {
            name: "big".into(),
            schema: "x".repeat(MAX_PAYLOAD as usize + 1),
            epoch: 0,
            relations: vec![],
        };
        match store.install_snapshot(&[big_sess]) {
            Err(StoreError::TooLarge { .. }) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(store.seq(), 0);
        assert!(io.dump(&dir().join("snap-1")).is_none());
        assert!(io.dump(&dir().join("wal-1")).is_none());

        // The store stays healthy: logging and reboot still work.
        store.log(&upd("s1", 1)).unwrap();
        let (_, rec) = Store::open(io, &dir(), DEFAULT_ROTATE_BYTES).unwrap();
        assert_eq!(rec.wal, vec![reg("s1"), upd("s1", 1)]);
    }
}
