//! The durable-io layer: a thin wrapper over `std::fs` with named
//! failpoints for crash-fault injection.
//!
//! Production code goes through [`Io::real`], which is zero-overhead
//! pass-through. Tests construct an [`Io`] with a [`FaultPlan`] that arms
//! faults at specific failpoint crossings:
//!
//! - [`Fault::Kill`] — simulated `kill -9`: every byte appended since the
//!   last successful fsync is *discarded* (the OS page cache dies with the
//!   process), and all subsequent io on this plan fails with
//!   [`PersistError::Crashed`]. The test then reopens the directory with a
//!   fresh [`Io`] to model the restarted process.
//! - [`Fault::Torn { keep }`] — the write reaches the disk only partially:
//!   `keep` bytes of the pending buffer survive, then the process dies.
//! - [`Fault::BitFlip { offset }`] — silent media corruption: one bit of
//!   the pending buffer is flipped, the write otherwise succeeds.
//!
//! The volatility model is the load-bearing part: [`DurableFile`] buffers
//! appends in memory and only hands them to the OS at
//! [`DurableFile::sync`]. A kill between append and sync therefore loses
//! the bytes *for real* in the test universe, exactly like an actual crash
//! would — no "pretend fsync" that secretly persisted everything.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Errors from the persistence layer, pre-classification: io failures,
/// detected corruption, and simulated process death.
#[derive(Debug)]
pub enum PersistError {
    /// An operating-system io failure (or one injected by a fault plan).
    Io(String),
    /// A checksum, magic, or framing violation: the bytes on disk are not
    /// what was written.
    Corrupt(String),
    /// The fault plan has killed this "process": every operation fails
    /// until the caller reopens with a fresh [`Io`].
    Crashed,
    /// The manifest was written by a newer build: its layout version is
    /// above the newest this build reads. Nothing is damaged, so recovery
    /// must leave the directory as it is rather than rebuild over it.
    NewerLayout {
        /// The manifest's version.
        found: u64,
        /// The newest version this build reads.
        supported: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(detail) => write!(f, "io failure: {detail}"),
            PersistError::Corrupt(detail) => write!(f, "corruption detected: {detail}"),
            PersistError::Crashed => write!(f, "simulated crash: persistence layer is dead"),
            PersistError::NewerLayout { found, supported } => write!(
                f,
                "manifest version {found} is newer than this build reads (up to {supported})"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

/// One injectable fault (see module docs for semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Simulated `kill -9` at the failpoint: un-synced bytes are lost and
    /// the plan goes dead.
    Kill,
    /// A torn write: only `keep` bytes of the pending buffer reach disk,
    /// then the process dies.
    Torn {
        /// How many bytes of the pending buffer survive.
        keep: usize,
    },
    /// Silent corruption: flip one bit at `offset` (modulo buffer length)
    /// in the pending buffer; the operation otherwise succeeds.
    BitFlip {
        /// Byte offset of the flip within the pending buffer.
        offset: usize,
    },
}

/// A shared fault schedule: which [`Fault`] fires at which occurrence of
/// which named failpoint. Also records every failpoint crossing, so a
/// clean recording run can enumerate the kill points for an exhaustive
/// sweep.
#[derive(Debug, Default)]
pub struct FaultPlan {
    arms: Mutex<Vec<(String, u64, Fault)>>,
    hits: Mutex<Vec<String>>,
    counts: Mutex<std::collections::HashMap<String, u64>>,
    dead: AtomicBool,
}

impl FaultPlan {
    /// A plan with no faults armed (pure recording).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Arm `fault` to fire at the `occurrence`-th crossing (0-based) of
    /// failpoint `point`.
    pub fn arm(self: &Arc<Self>, point: &str, occurrence: u64, fault: Fault) {
        self.arms.lock().unwrap_or_else(|p| p.into_inner()).push((
            point.to_string(),
            occurrence,
            fault,
        ));
    }

    /// Every failpoint crossing so far, in order.
    pub fn hits(&self) -> Vec<String> {
        self.hits.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Has a [`Fault::Kill`] (or torn write) fired?
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Record a crossing of `point` and return the fault due now, if any.
    fn cross(&self, point: &str) -> Option<Fault> {
        self.hits
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(point.to_string());
        let mut counts = self.counts.lock().unwrap_or_else(|p| p.into_inner());
        let n = counts.entry(point.to_string()).or_insert(0);
        let occurrence = *n;
        *n += 1;
        drop(counts);
        let arms = self.arms.lock().unwrap_or_else(|p| p.into_inner());
        arms.iter()
            .find(|(p, o, _)| p == point && *o == occurrence)
            .map(|(_, _, f)| *f)
    }

    fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }
}

/// The io handle all persistence code goes through: either the real
/// filesystem or one instrumented by a [`FaultPlan`].
#[derive(Debug, Clone, Default)]
pub struct Io {
    plan: Option<Arc<FaultPlan>>,
}

impl Io {
    /// Pass-through to the real filesystem — what production uses.
    pub fn real() -> Self {
        Self { plan: None }
    }

    /// An io handle instrumented by `plan` (tests only).
    pub fn with_plan(plan: Arc<FaultPlan>) -> Self {
        Self { plan: Some(plan) }
    }

    /// Cross failpoint `point`: dies if the plan is already dead, fires a
    /// [`Fault::Kill`] armed here, and returns a data fault (torn /
    /// bit-flip) for the caller to apply to its pending buffer.
    fn check(&self, point: &str) -> Result<Option<Fault>, PersistError> {
        let Some(plan) = &self.plan else {
            return Ok(None);
        };
        if plan.is_dead() {
            return Err(PersistError::Crashed);
        }
        match plan.cross(point) {
            Some(Fault::Kill) => {
                plan.kill();
                Err(PersistError::Crashed)
            }
            other => Ok(other),
        }
    }

    fn guard(&self) -> Result<(), PersistError> {
        if let Some(plan) = &self.plan {
            if plan.is_dead() {
                return Err(PersistError::Crashed);
            }
        }
        Ok(())
    }

    /// Read a whole file (no failpoints: reads don't lose data).
    pub fn read(&self, path: &Path) -> Result<Vec<u8>, PersistError> {
        self.guard()?;
        Ok(std::fs::read(path)?)
    }

    /// Does the path exist?
    pub fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    /// Create the directory (and parents) if missing.
    pub fn create_dir_all(&self, path: &Path) -> Result<(), PersistError> {
        self.guard()?;
        Ok(std::fs::create_dir_all(path)?)
    }

    /// Rename a file within the filesystem (used to set a damaged WAL
    /// aside rather than destroy it).
    pub fn rename(&self, from: &Path, to: &Path) -> Result<(), PersistError> {
        self.guard()?;
        Ok(std::fs::rename(from, to)?)
    }

    /// Remove a file, ignoring "not found".
    pub fn remove_file(&self, path: &Path) -> Result<(), PersistError> {
        self.guard()?;
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// List file names in a directory (empty if the directory is missing).
    pub fn list_dir(&self, path: &Path) -> Result<Vec<String>, PersistError> {
        self.guard()?;
        let mut names = Vec::new();
        let entries = match std::fs::read_dir(path) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(names),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    /// fsync the directory itself so a rename inside it is durable.
    fn sync_dir(&self, dir: &Path) -> Result<(), PersistError> {
        self.guard()?;
        // Directory fsync is best-effort off Linux; on Linux it is what
        // makes the rename itself crash-durable.
        if let Ok(handle) = File::open(dir) {
            handle.sync_all()?;
        }
        Ok(())
    }
}

/// An append-only file with an explicit durability horizon.
///
/// Appends accumulate in a volatile buffer; [`sync`](Self::sync) pushes
/// them to the OS and fsyncs. On a simulated kill, everything after the
/// last successful sync is discarded from the file — the on-disk state a
/// real crash would leave behind.
#[derive(Debug)]
pub struct DurableFile {
    io: Io,
    path: PathBuf,
    file: File,
    pending: Vec<u8>,
    durable_len: u64,
}

impl DurableFile {
    /// Create (truncating) a new durable file.
    pub fn create(io: &Io, path: &Path) -> Result<Self, PersistError> {
        io.guard()?;
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            io: io.clone(),
            path: path.to_path_buf(),
            file,
            pending: Vec::new(),
            durable_len: 0,
        })
    }

    /// Open an existing durable file for appending; its current length is
    /// taken as the durability horizon.
    pub fn open(io: &Io, path: &Path) -> Result<Self, PersistError> {
        io.guard()?;
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        let durable_len = file.metadata()?.len();
        Ok(Self {
            io: io.clone(),
            path: path.to_path_buf(),
            file,
            pending: Vec::new(),
            durable_len,
        })
    }

    /// The durable contents: everything synced so far (not the pending
    /// buffer).
    pub fn durable_bytes(&self) -> Result<Vec<u8>, PersistError> {
        self.io.guard()?;
        let mut file = File::open(&self.path)?;
        let mut bytes = vec![0u8; self.durable_len as usize];
        file.read_exact(&mut bytes)?;
        Ok(bytes)
    }

    /// Buffer `bytes` for the next [`sync`](Self::sync). Volatile until
    /// then.
    pub fn append(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.io.guard()?;
        self.pending.extend_from_slice(bytes);
        Ok(())
    }

    /// Durably truncate the file to `len` bytes (used to drop a torn WAL
    /// tail on open). Discards any pending bytes.
    pub fn truncate(&mut self, len: u64) -> Result<(), PersistError> {
        self.io.guard()?;
        self.pending.clear();
        self.file.set_len(len)?;
        self.file.sync_all()?;
        self.durable_len = len;
        Ok(())
    }

    /// Push the pending buffer to the OS and fsync, crossing the
    /// `<point>.before` and `<point>.after` failpoints around the fsync.
    ///
    /// - Kill at `.before`: nothing pending survives.
    /// - Torn at `.before`: a prefix of the pending buffer survives, then
    ///   the process dies.
    /// - BitFlip at `.before`: the buffer is corrupted in place, the sync
    ///   succeeds (silent media corruption).
    /// - Kill at `.after`: the sync completed — the data is durable — but
    ///   the process dies before acting on it.
    pub fn sync(&mut self, point: &str) -> Result<(), PersistError> {
        let before = format!("{point}.before");
        match self.io.check(&before) {
            Ok(None) => {}
            Ok(Some(Fault::Torn { keep })) => {
                let keep = keep.min(self.pending.len());
                self.pending.truncate(keep);
                self.flush_pending()?;
                if let Some(plan) = &self.io.plan {
                    plan.kill();
                }
                return Err(PersistError::Crashed);
            }
            Ok(Some(Fault::BitFlip { offset })) => {
                if !self.pending.is_empty() {
                    let at = offset % self.pending.len();
                    self.pending[at] ^= 1 << (offset % 8);
                }
            }
            Ok(Some(Fault::Kill)) => unreachable!("check() handles Kill"),
            Err(PersistError::Crashed) => {
                // Killed before the fsync: the pending bytes die with us.
                self.pending.clear();
                return Err(PersistError::Crashed);
            }
            Err(e) => return Err(e),
        }
        self.flush_pending()?;
        self.io.check(&format!("{point}.after")).map(|_| ())
    }

    fn flush_pending(&mut self) -> Result<(), PersistError> {
        if !self.pending.is_empty() {
            self.file.seek(SeekFrom::Start(self.durable_len))?;
            self.file.write_all(&self.pending)?;
            self.durable_len += self.pending.len() as u64;
            self.pending.clear();
        }
        self.file.sync_all()?;
        Ok(())
    }
}

/// Atomically install `bytes` at `dir/name`: write to a temp file, fsync
/// it, rename over the target, fsync the directory. Crossing failpoints:
/// `<point>.temp` (around the temp-file fsync) and `<point>.rename`
/// (after the rename, before the directory fsync).
pub fn write_atomic(
    io: &Io,
    dir: &Path,
    name: &str,
    bytes: &[u8],
    point: &str,
) -> Result<(), PersistError> {
    let tmp_path = dir.join(format!("{name}.tmp"));
    let final_path = dir.join(name);
    let mut tmp = DurableFile::create(io, &tmp_path)?;
    tmp.append(bytes)?;
    tmp.sync(&format!("{point}.temp"))?;
    drop(tmp);
    io.guard()?;
    std::fs::rename(&tmp_path, &final_path).map_err(PersistError::from)?;
    io.check(&format!("{point}.rename"))?;
    io.sync_dir(dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cmdl-io-test-{}-{tag}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn unsynced_appends_are_lost_on_kill() {
        let dir = temp_dir("kill");
        let plan = FaultPlan::new();
        let io = Io::with_plan(plan.clone());
        let path = dir.join("wal");
        let mut file = DurableFile::create(&io, &path).unwrap();
        file.append(b"durable").unwrap();
        file.sync("wal.append.sync").unwrap();
        // Arm a kill at the *second* sync: the bytes below never hit disk.
        plan.arm("wal.append.sync.before", 1, Fault::Kill);
        file.append(b"volatile").unwrap();
        assert!(matches!(
            file.sync("wal.append.sync"),
            Err(PersistError::Crashed)
        ));
        assert!(plan.is_dead());
        // Reopen with a fresh io: only the synced prefix survived.
        let io2 = Io::real();
        assert_eq!(io2.read(&path).unwrap(), b"durable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_keeps_prefix() {
        let dir = temp_dir("torn");
        let plan = FaultPlan::new();
        let io = Io::with_plan(plan.clone());
        let path = dir.join("wal");
        let mut file = DurableFile::create(&io, &path).unwrap();
        plan.arm("wal.append.sync.before", 0, Fault::Torn { keep: 3 });
        file.append(b"abcdef").unwrap();
        assert!(matches!(
            file.sync("wal.append.sync"),
            Err(PersistError::Crashed)
        ));
        assert_eq!(Io::real().read(&path).unwrap(), b"abc");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_corrupts_silently() {
        let dir = temp_dir("flip");
        let plan = FaultPlan::new();
        let io = Io::with_plan(plan.clone());
        let path = dir.join("seg");
        let mut file = DurableFile::create(&io, &path).unwrap();
        plan.arm("seg.sync.before", 0, Fault::BitFlip { offset: 2 });
        file.append(&[0u8; 8]).unwrap();
        file.sync("seg.sync").unwrap();
        let bytes = Io::real().read(&path).unwrap();
        assert_ne!(bytes, [0u8; 8], "flip must land");
        assert_eq!(bytes.iter().filter(|b| **b != 0).count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_survives_kill_before_rename() {
        let dir = temp_dir("atomic");
        std::fs::write(dir.join("manifest"), b"old").unwrap();
        let plan = FaultPlan::new();
        let io = Io::with_plan(plan.clone());
        plan.arm("manifest.temp.after", 0, Fault::Kill);
        assert!(write_atomic(&io, &dir, "manifest", b"new", "manifest").is_err());
        // The old manifest is untouched.
        assert_eq!(std::fs::read(dir.join("manifest")).unwrap(), b"old");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recording_run_logs_crossings() {
        let dir = temp_dir("record");
        let plan = FaultPlan::new();
        let io = Io::with_plan(plan.clone());
        write_atomic(&io, &dir, "m", b"x", "manifest").unwrap();
        let hits = plan.hits();
        assert!(
            hits.contains(&"manifest.temp.before".to_string()),
            "{hits:?}"
        );
        assert!(hits.contains(&"manifest.rename".to_string()), "{hits:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
