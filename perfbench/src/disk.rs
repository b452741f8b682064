//! The benchmark's disk: an in-memory [`MemVfs`] (sync is a no-op, so
//! timings are CPU cost, not a device's) that counts bytes exactly.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use superimposed::slimio::{MemVfs, Vfs};

#[derive(Default)]
pub struct Disk {
    inner: MemVfs,
    /// Bytes appended — the write-ahead log is the only appender.
    appended: AtomicU64,
    /// Bytes written whole (snapshots, log headers, temp files).
    written: AtomicU64,
}

impl Disk {
    pub fn new() -> Self {
        Disk::default()
    }

    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// A copy of every file, as they are now.
    pub fn files(&self) -> MemVfs {
        self.inner.clone()
    }

    pub fn len(&self, path: &Path) -> u64 {
        self.inner.bytes(path).map_or(0, |b| b.len() as u64)
    }
}

impl Vfs for Disk {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.write(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.appended
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.append(path, data)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn sync(&self, path: &Path) -> io::Result<()> {
        self.inner.sync(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }
}
