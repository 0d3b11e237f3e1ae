//! File-system abstraction for the durability layer.
//!
//! Every byte the journal reads or writes goes through the [`JournalIo`]
//! trait, so tests can interpose a fault-injecting implementation and crash
//! the system at *every* I/O point — the crash-point sweep in
//! `workload/tests/recovery_sweep.rs` does exactly that. Two
//! implementations ship:
//!
//! - [`StdIo`] — the real filesystem (`std::fs`). This file is the **only**
//!   place in the journal allowed to touch `std::fs`; CI greps for
//!   violations so no I/O call can bypass fault injection.
//! - [`MemIo`] — an in-memory filesystem with an explicit crash model:
//!   appends past the last `fsync` and renames past the last directory
//!   fsync do not survive [`MemIo::crash`], which is how the tests check
//!   that the journal syncs at the right points rather than merely writes.
//!
//! Either can be wrapped: [`ObservedIo`] counts fsyncs, and
//! [`ChaosIo`](super::fault::ChaosIo) injects faults, from a dying process
//! ([`ChaosIo::crash_at`](super::fault::ChaosIo::crash_at)) to seeded
//! schedules the process survives.
//!
//! The module also provides [`atomic_write`]: the write-`*.tmp` → fsync →
//! rename → fsync-directory sequence used for checkpoints and for all
//! whole-file snapshot saves (`Schema::save_to`, store and objectbase
//! saves), so a crash mid-save can never truncate the previous good file.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

/// The file-system operations the journal needs, as an injectable trait.
///
/// `fsync` and `fsync_dir` are separate because POSIX durability is:
/// file *contents* survive a crash only after `fsync(file)`, and the file's
/// *name* (a create or rename) survives only after `fsync(directory)`.
pub trait JournalIo: Send + Sync + std::fmt::Debug {
    /// Create `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Read the entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create or truncate `path` and write `data`.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Append `data` to `path` (creating it if missing).
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Truncate `path` to exactly `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Flush file contents to durable storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;
    /// Flush directory entries (creates/renames/removes) to durable storage.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Atomically rename `from` to `to` (replacing `to` if it exists).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// File names (not paths) of the direct entries of `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
}

/// Write `data` to `path` atomically: the previous contents of `path`
/// remain intact unless the replacement is fully durable. Sequence:
/// write `path.tmp` → fsync → rename over `path` → fsync the directory.
pub fn atomic_write(io: &dyn JournalIo, path: &Path, data: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    io.write(&tmp, data)?;
    io.fsync(&tmp)?;
    io.rename(&tmp, path)?;
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => io.fsync_dir(dir),
        _ => io.fsync_dir(Path::new(".")),
    }
}

/// [`atomic_write`] against the real filesystem — the drop-in replacement
/// for `std::fs::write` used by every snapshot save path in the workspace.
pub fn atomic_write_file(path: &Path, data: &[u8]) -> io::Result<()> {
    atomic_write(&StdIo, path, data)
}

// ---------------------------------------------------------------------
// StdIo
// ---------------------------------------------------------------------

/// The real filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdIo;

impl JournalIo for StdIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(data)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory fds can be fsynced on Unix; elsewhere this degrades to
        // a no-op, which only weakens crash durability, not correctness.
        #[cfg(unix)]
        {
            std::fs::File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            Ok(())
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }
}

// ---------------------------------------------------------------------
// MemIo
// ---------------------------------------------------------------------

/// How much of the not-yet-durable state survives a [`MemIo::crash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKeep {
    /// Only fsynced bytes survive (the pessimistic POSIX reading).
    Synced,
    /// Half of the unsynced tail of each file survives — a torn page
    /// flush, producing exactly the torn-tail records recovery must drop.
    Torn,
    /// All written bytes survive (crash lost no data, only the process).
    All,
}

#[derive(Debug, Default, Clone)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes guaranteed durable. Contents are only ever extended or
    /// replaced wholesale, so "a synced prefix" models our usage exactly.
    synced: usize,
}

#[derive(Debug, Default)]
struct MemState {
    /// Inodes never disappear; names point at them.
    inodes: Vec<MemFile>,
    /// The live namespace as the running process sees it.
    visible: BTreeMap<PathBuf, usize>,
    /// The namespace as of the last `fsync_dir` — what a crash reverts to.
    durable: BTreeMap<PathBuf, usize>,
}

/// In-memory filesystem with explicit crash semantics (see [`CrashKeep`]).
#[derive(Debug, Default, Clone)]
pub struct MemIo {
    state: Arc<Mutex<MemState>>,
}

impl MemIo {
    /// A fresh, empty in-memory filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulate a power cut: the namespace reverts to the last directory
    /// fsync and every file loses its unsynced tail per `keep`.
    pub fn crash(&self, keep: CrashKeep) {
        let mut st = self.state.lock();
        st.visible = st.durable.clone();
        for f in &mut st.inodes {
            let keep_len = match keep {
                CrashKeep::Synced => f.synced,
                CrashKeep::Torn => f.synced + (f.data.len() - f.synced) / 2,
                CrashKeep::All => f.data.len(),
            };
            f.data.truncate(keep_len);
            f.synced = f.synced.min(keep_len);
        }
    }

    /// Current visible length of `path`, if it exists (test helper).
    pub fn len(&self, path: &Path) -> Option<usize> {
        let st = self.state.lock();
        st.visible.get(path).map(|&i| st.inodes[i].data.len())
    }

    /// XOR one visible byte of `path` (test helper for corruption tests).
    /// Panics if the file or offset does not exist — tests only.
    pub fn corrupt(&self, path: &Path, offset: usize, xor: u8) {
        let mut st = self.state.lock();
        let i = *st.visible.get(path).expect("corrupt: no such file");
        st.inodes[i].data[offset] ^= xor;
    }

    fn not_found(path: &Path) -> io::Error {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("mem: no such file {}", path.display()),
        )
    }
}

impl JournalIo for MemIo {
    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = self.state.lock();
        match st.visible.get(path) {
            Some(&i) => Ok(st.inodes[i].data.clone()),
            None => Err(Self::not_found(path)),
        }
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock();
        match st.visible.get(path).copied() {
            Some(i) => {
                st.inodes[i] = MemFile {
                    data: data.to_vec(),
                    synced: 0,
                };
            }
            None => {
                let i = st.inodes.len();
                st.inodes.push(MemFile {
                    data: data.to_vec(),
                    synced: 0,
                });
                st.visible.insert(path.to_path_buf(), i);
            }
        }
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock();
        match st.visible.get(path).copied() {
            Some(i) => st.inodes[i].data.extend_from_slice(data),
            None => {
                let i = st.inodes.len();
                st.inodes.push(MemFile {
                    data: data.to_vec(),
                    synced: 0,
                });
                st.visible.insert(path.to_path_buf(), i);
            }
        }
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut st = self.state.lock();
        let i = *st.visible.get(path).ok_or_else(|| Self::not_found(path))?;
        let f = &mut st.inodes[i];
        f.data.truncate(len as usize);
        f.synced = f.synced.min(f.data.len());
        Ok(())
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        let i = *st.visible.get(path).ok_or_else(|| Self::not_found(path))?;
        let f = &mut st.inodes[i];
        f.synced = f.data.len();
        Ok(())
    }

    fn fsync_dir(&self, _dir: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        st.durable = st.visible.clone();
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        let i = *st.visible.get(from).ok_or_else(|| Self::not_found(from))?;
        st.visible.remove(from);
        st.visible.insert(to.to_path_buf(), i);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        st.visible
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| Self::not_found(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let st = self.state.lock();
        Ok(st
            .visible
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .collect())
    }
}

// ---------------------------------------------------------------------
// ObservedIo
// ---------------------------------------------------------------------

/// Metrics-counting wrapper: delegates every call to the inner
/// implementation and reports each *successful* `fsync`/`fsync_dir` to the
/// observer (`journal.fsyncs`). Installed automatically by the observed
/// journal constructors ([`Journal::open_observed`](super::Journal::open_observed)
/// and friends); higher-level byte/record counts are reported by the
/// journal itself, which knows the framing.
#[derive(Debug)]
pub struct ObservedIo {
    inner: Arc<dyn JournalIo>,
    obs: Arc<crate::obs::EvolveObs>,
}

impl ObservedIo {
    /// Wrap `inner`, reporting fsync counts to `obs`.
    pub fn new(inner: Arc<dyn JournalIo>, obs: Arc<crate::obs::EvolveObs>) -> Self {
        ObservedIo { inner, obs }
    }
}

impl JournalIo for ObservedIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.inner.write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.inner.append(path, data)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.inner.fsync(path)?;
        self.obs.on_fsync();
        Ok(())
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.fsync_dir(dir)?;
        self.obs.on_fsync();
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn mem_io_roundtrip_and_listing() {
        let io = MemIo::new();
        io.write(&p("/j/a"), b"one").unwrap();
        io.append(&p("/j/a"), b"+two").unwrap();
        io.write(&p("/j/b"), b"x").unwrap();
        assert_eq!(io.read(&p("/j/a")).unwrap(), b"one+two");
        let mut names = io.list(&p("/j")).unwrap();
        names.sort();
        assert_eq!(names, ["a", "b"]);
        io.rename(&p("/j/a"), &p("/j/c")).unwrap();
        assert!(io.read(&p("/j/a")).is_err());
        assert_eq!(io.read(&p("/j/c")).unwrap(), b"one+two");
        io.truncate(&p("/j/c"), 3).unwrap();
        assert_eq!(io.read(&p("/j/c")).unwrap(), b"one");
        io.remove(&p("/j/b")).unwrap();
        assert!(io.read(&p("/j/b")).is_err());
    }

    #[test]
    fn mem_crash_drops_unsynced_bytes_and_names() {
        let io = MemIo::new();
        io.write(&p("/j/f"), b"durable").unwrap();
        io.fsync(&p("/j/f")).unwrap();
        io.fsync_dir(&p("/j")).unwrap();
        io.append(&p("/j/f"), b"+lost").unwrap(); // unsynced tail
        io.write(&p("/j/new"), b"unsynced-name").unwrap(); // undurable name
        io.crash(CrashKeep::Synced);
        assert_eq!(io.read(&p("/j/f")).unwrap(), b"durable");
        assert!(io.read(&p("/j/new")).is_err());
    }

    #[test]
    fn mem_crash_torn_keeps_half_the_unsynced_tail() {
        let io = MemIo::new();
        io.write(&p("/j/f"), b"ok").unwrap();
        io.fsync(&p("/j/f")).unwrap();
        io.fsync_dir(&p("/j")).unwrap();
        io.append(&p("/j/f"), b"abcd").unwrap();
        io.crash(CrashKeep::Torn);
        assert_eq!(io.read(&p("/j/f")).unwrap(), b"okab");
    }

    #[test]
    fn std_io_roundtrip_in_tempdir() {
        let dir = std::env::temp_dir().join(format!("axb_stdio_{}", std::process::id()));
        let io = StdIo;
        io.create_dir_all(&dir).unwrap();
        let f = dir.join("x.log");
        io.write(&f, b"a").unwrap();
        io.append(&f, b"bc").unwrap();
        io.fsync(&f).unwrap();
        io.fsync_dir(&dir).unwrap();
        assert_eq!(io.read(&f).unwrap(), b"abc");
        io.truncate(&f, 1).unwrap();
        assert_eq!(io.read(&f).unwrap(), b"a");
        let g = dir.join("y.log");
        io.rename(&f, &g).unwrap();
        assert_eq!(io.list(&dir).unwrap(), ["y.log"]);
        atomic_write_file(&g, b"new").unwrap();
        assert_eq!(io.read(&g).unwrap(), b"new");
        assert_eq!(io.list(&dir).unwrap(), ["y.log"], "tmp file cleaned up");
        io.remove(&g).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
