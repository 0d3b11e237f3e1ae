//! A [`JournalIo`] wrapper that times every call.
//!
//! [`TimingIo`] forwards each call unchanged to the wrapped io and records
//! its duration and byte count per call kind, plus the fsync and
//! `fsync_dir` counts. When span recording is on for the calling thread,
//! each call is also recorded as an `io.*` child of the innermost open
//! span, so io time nests inside the program call that issued it.

use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use axiombase_core::journal::io::JournalIo;

use crate::trace;

/// Totals for one call kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Calls made (successful or not).
    pub calls: u64,
    /// Time spent in them, ns.
    pub ns: u64,
    /// Bytes moved: written for `write`/`append`, read for `read`.
    pub bytes: u64,
}

impl CallStats {
    fn since(self, earlier: CallStats) -> CallStats {
        CallStats {
            calls: self.calls - earlier.calls,
            ns: self.ns - earlier.ns,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Per-kind totals of every call through a [`TimingIo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// `create_dir_all`.
    pub create_dir_all: CallStats,
    /// `read`.
    pub read: CallStats,
    /// `write`.
    pub write: CallStats,
    /// `append`.
    pub append: CallStats,
    /// `truncate`.
    pub truncate: CallStats,
    /// `fsync` of a file.
    pub fsync: CallStats,
    /// `fsync_dir`.
    pub fsync_dir: CallStats,
    /// `rename`.
    pub rename: CallStats,
    /// `remove`.
    pub remove: CallStats,
    /// `list`.
    pub list: CallStats,
    /// Bytes written to checkpoint files (`checkpoint-*`).
    pub checkpoint_bytes: u64,
}

impl IoStats {
    /// The calls made since `earlier` was taken.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            create_dir_all: self.create_dir_all.since(earlier.create_dir_all),
            read: self.read.since(earlier.read),
            write: self.write.since(earlier.write),
            append: self.append.since(earlier.append),
            truncate: self.truncate.since(earlier.truncate),
            fsync: self.fsync.since(earlier.fsync),
            fsync_dir: self.fsync_dir.since(earlier.fsync_dir),
            rename: self.rename.since(earlier.rename),
            remove: self.remove.since(earlier.remove),
            list: self.list.since(earlier.list),
            checkpoint_bytes: self.checkpoint_bytes - earlier.checkpoint_bytes,
        }
    }

    /// Bytes written by `write` and `append`.
    pub fn bytes_written(&self) -> u64 {
        self.write.bytes + self.append.bytes
    }

    /// File and directory fsyncs.
    pub fn fsyncs(&self) -> u64 {
        self.fsync.calls + self.fsync_dir.calls
    }
}

/// Forwards every [`JournalIo`] call to `inner` and times it.
#[derive(Debug)]
pub struct TimingIo {
    inner: Arc<dyn JournalIo>,
    stats: Mutex<IoStats>,
}

impl TimingIo {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn JournalIo>) -> Self {
        TimingIo {
            inner,
            stats: Mutex::new(IoStats::default()),
        }
    }

    /// Totals so far.
    pub fn stats(&self) -> IoStats {
        *self
            .stats
            .lock()
            .expect("io stats poisoned by a panicking thread")
    }

    fn timed<T>(
        &self,
        span: &'static str,
        pick: fn(&mut IoStats) -> &mut CallStats,
        bytes: impl FnOnce(&io::Result<T>) -> u64,
        call: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        let start = trace::now_ns();
        let out = call();
        let end = trace::now_ns();
        let n = bytes(&out);
        {
            let mut st = self
                .stats
                .lock()
                .expect("io stats poisoned by a panicking thread");
            let c = pick(&mut st);
            c.calls += 1;
            c.ns += end - start;
            c.bytes += n;
        }
        trace::record_child(span, start, end);
        out
    }
}

fn none<T>(_: &io::Result<T>) -> u64 {
    0
}

impl JournalIo for TimingIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.timed(
            "io.create_dir_all",
            |s| &mut s.create_dir_all,
            none,
            || self.inner.create_dir_all(dir),
        )
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed(
            "io.read",
            |s| &mut s.read,
            |r: &io::Result<Vec<u8>>| r.as_ref().map_or(0, |d| d.len() as u64),
            || self.inner.read(path),
        )
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let out = self.timed(
            "io.write",
            |s| &mut s.write,
            |_| data.len() as u64,
            || self.inner.write(path, data),
        );
        let is_checkpoint = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("checkpoint-"));
        if is_checkpoint {
            self.stats
                .lock()
                .expect("io stats poisoned by a panicking thread")
                .checkpoint_bytes += data.len() as u64;
        }
        out
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.timed(
            "io.append",
            |s| &mut s.append,
            |_| data.len() as u64,
            || self.inner.append(path, data),
        )
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.timed(
            "io.truncate",
            |s| &mut s.truncate,
            none,
            || self.inner.truncate(path, len),
        )
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.timed(
            "io.fsync",
            |s| &mut s.fsync,
            none,
            || self.inner.fsync(path),
        )
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed(
            "io.fsync_dir",
            |s| &mut s.fsync_dir,
            none,
            || self.inner.fsync_dir(dir),
        )
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(
            "io.rename",
            |s| &mut s.rename,
            none,
            || self.inner.rename(from, to),
        )
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.timed(
            "io.remove",
            |s| &mut s.remove,
            none,
            || self.inner.remove(path),
        )
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.timed("io.list", |s| &mut s.list, none, || self.inner.list(dir))
    }
}
