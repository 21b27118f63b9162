//! A simulated operating system: an in-memory file system with a file
//! descriptor table and open-handle accounting.
//!
//! The paper's motivating port example needs observable *external
//! resource* behaviour: open descriptors that are a finite resource
//! ("this can tie up system resources"), and output data that is lost if a
//! port is dropped without being flushed ("may result in data associated
//! with output ports remaining unwritten until the system exits"). `SimOs`
//! provides exactly those observables — a descriptor limit, counts of
//! opens/closes/leaks, and durable file contents — so the finalization
//! experiments can *measure* leaks instead of hand-waving about them.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// A simulated file descriptor.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd(pub u32);

/// Errors from the simulated OS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsError {
    /// The named file does not exist.
    NotFound(String),
    /// The descriptor is closed or was never issued.
    BadFd(Fd),
    /// The open-descriptor limit was reached — the observable consequence
    /// of leaking ports.
    TooManyOpen {
        /// The configured descriptor limit.
        limit: usize,
    },
    /// A read on a write descriptor or vice versa.
    WrongMode(Fd),
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::NotFound(p) => write!(f, "file not found: {p}"),
            OsError::BadFd(fd) => write!(f, "bad file descriptor: {}", fd.0),
            OsError::TooManyOpen { limit } => {
                write!(f, "too many open files (limit {limit})")
            }
            OsError::WrongMode(fd) => write!(f, "wrong mode for descriptor {}", fd.0),
        }
    }
}

impl std::error::Error for OsError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Read,
    Write,
}

#[derive(Debug)]
struct OpenFile {
    path: String,
    mode: Mode,
    pos: usize,
}

/// Cumulative OS statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OsStats {
    /// Successful opens.
    pub opens: u64,
    /// Closes.
    pub closes: u64,
    /// Opens rejected by the descriptor limit.
    pub rejected_opens: u64,
    /// Bytes written through descriptors.
    pub bytes_written: u64,
    /// Bytes read through descriptors.
    pub bytes_read: u64,
}

/// The simulated OS.
#[derive(Debug)]
pub struct SimOs {
    files: HashMap<String, Vec<u8>>,
    fds: Vec<Option<OpenFile>>,
    /// Exactly the `None` slots of `fds`, lowest first: an open takes the
    /// lowest free descriptor, like `open(2)`, without walking the table,
    /// and the open count is the difference of the two lengths.
    free: BinaryHeap<Reverse<u32>>,
    limit: usize,
    stats: OsStats,
}

/// Default open-descriptor limit (like a small `ulimit -n`).
pub const DEFAULT_FD_LIMIT: usize = 64;

impl SimOs {
    /// An OS with the default descriptor limit.
    pub fn new() -> SimOs {
        SimOs::with_fd_limit(DEFAULT_FD_LIMIT)
    }

    /// An OS with a custom descriptor limit.
    pub fn with_fd_limit(limit: usize) -> SimOs {
        SimOs {
            files: HashMap::new(),
            fds: Vec::new(),
            free: BinaryHeap::new(),
            limit,
            stats: OsStats::default(),
        }
    }

    /// Creates (or replaces) a file with the given contents.
    pub fn create_file(&mut self, path: &str, contents: &[u8]) {
        self.files.insert(path.to_string(), contents.to_vec());
    }

    /// The durable contents of a file.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NotFound`] if the file does not exist.
    pub fn file_contents(&self, path: &str) -> Result<&[u8], OsError> {
        self.files
            .get(path)
            .map(Vec::as_slice)
            .ok_or_else(|| OsError::NotFound(path.into()))
    }

    /// Removes a file (for temporary-file finalization scenarios).
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NotFound`] if the file does not exist.
    pub fn delete_file(&mut self, path: &str) -> Result<(), OsError> {
        self.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| OsError::NotFound(path.into()))
    }

    /// Whether a file exists.
    pub fn file_exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    fn issue(&mut self, open: OpenFile) -> Result<Fd, OsError> {
        if self.open_count() >= self.limit {
            self.stats.rejected_opens += 1;
            return Err(OsError::TooManyOpen { limit: self.limit });
        }
        self.stats.opens += 1;
        match self.free.pop() {
            Some(Reverse(i)) => {
                self.fds[i as usize] = Some(open);
                Ok(Fd(i))
            }
            None => {
                self.fds.push(Some(open));
                Ok(Fd(self.fds.len() as u32 - 1))
            }
        }
    }

    /// Opens an existing file for reading.
    ///
    /// # Errors
    ///
    /// [`OsError::NotFound`] if missing; [`OsError::TooManyOpen`] at the
    /// descriptor limit.
    pub fn open_input(&mut self, path: &str) -> Result<Fd, OsError> {
        if !self.files.contains_key(path) {
            return Err(OsError::NotFound(path.into()));
        }
        self.issue(OpenFile {
            path: path.into(),
            mode: Mode::Read,
            pos: 0,
        })
    }

    /// Creates/truncates a file and opens it for writing.
    ///
    /// # Errors
    ///
    /// [`OsError::TooManyOpen`] at the descriptor limit.
    pub fn open_output(&mut self, path: &str) -> Result<Fd, OsError> {
        let fd = self.issue(OpenFile {
            path: path.into(),
            mode: Mode::Write,
            pos: 0,
        })?;
        self.files.insert(path.into(), Vec::new());
        Ok(fd)
    }

    fn open_file_mut(&mut self, fd: Fd, mode: Mode) -> Result<&mut OpenFile, OsError> {
        let open = self
            .fds
            .get_mut(fd.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(OsError::BadFd(fd))?;
        if open.mode != mode {
            return Err(OsError::WrongMode(fd));
        }
        Ok(open)
    }

    /// Reads up to `buf.len()` bytes; returns the count (0 at EOF).
    ///
    /// # Errors
    ///
    /// [`OsError::BadFd`] / [`OsError::WrongMode`].
    pub fn read(&mut self, fd: Fd, buf: &mut [u8]) -> Result<usize, OsError> {
        let open = self.open_file_mut(fd, Mode::Read)?;
        let path = open.path.clone();
        let pos = open.pos;
        let data = &self.files[&path];
        let n = buf.len().min(data.len().saturating_sub(pos));
        buf[..n].copy_from_slice(&data[pos..pos + n]);
        self.open_file_mut(fd, Mode::Read)?.pos = pos + n;
        self.stats.bytes_read += n as u64;
        Ok(n)
    }

    /// Appends bytes through a write descriptor.
    ///
    /// # Errors
    ///
    /// [`OsError::BadFd`] / [`OsError::WrongMode`].
    pub fn write(&mut self, fd: Fd, bytes: &[u8]) -> Result<(), OsError> {
        let open = self.open_file_mut(fd, Mode::Write)?;
        let path = open.path.clone();
        self.files
            .get_mut(&path)
            .expect("open file exists")
            .extend_from_slice(bytes);
        self.stats.bytes_written += bytes.len() as u64;
        Ok(())
    }

    /// Closes a descriptor.
    ///
    /// # Errors
    ///
    /// [`OsError::BadFd`] if already closed.
    pub fn close(&mut self, fd: Fd) -> Result<(), OsError> {
        let slot = self.fds.get_mut(fd.0 as usize).ok_or(OsError::BadFd(fd))?;
        if slot.take().is_none() {
            return Err(OsError::BadFd(fd));
        }
        self.free.push(Reverse(fd.0));
        self.stats.closes += 1;
        Ok(())
    }

    /// Whether the descriptor is currently open.
    pub fn is_open(&self, fd: Fd) -> bool {
        self.fds.get(fd.0 as usize).is_some_and(Option::is_some)
    }

    /// Number of currently open descriptors — the leak metric.
    pub fn open_count(&self) -> usize {
        self.fds.len() - self.free.len()
    }

    /// The descriptor limit.
    pub fn fd_limit(&self) -> usize {
        self.limit
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &OsStats {
        &self.stats
    }
}

impl Default for SimOs {
    fn default() -> Self {
        SimOs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The descriptor table as it was kept before the free list: one walk
    /// counts the open slots for the limit check, a second finds the first
    /// free one. Returns `None` where `SimOs` says `TooManyOpen`.
    fn reference_open(table: &mut Vec<bool>, limit: usize) -> Option<Fd> {
        if table.iter().filter(|&&open| open).count() >= limit {
            return None;
        }
        let i = table.iter().position(|&open| !open).unwrap_or_else(|| {
            table.push(false);
            table.len() - 1
        });
        table[i] = true;
        Some(Fd(i as u32))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Lowest-free-descriptor-first, exactly: a random open/close script
        /// gets the same `Fd` sequence, the same `TooManyOpen` points and
        /// the same `BadFd` closes as the linear scan.
        #[test]
        fn issue_hands_out_what_the_linear_scan_did(
            limit in 1usize..12,
            script in proptest::collection::vec((any::<bool>(), 0u32..16), 1..200),
        ) {
            let mut os = SimOs::with_fd_limit(limit);
            let mut table = Vec::new();
            for (open, pick) in script {
                if open {
                    let want = reference_open(&mut table, limit).ok_or(OsError::TooManyOpen { limit });
                    prop_assert_eq!(os.open_output("/f"), want);
                } else {
                    let was_open = table.get_mut(pick as usize).is_some_and(std::mem::take);
                    prop_assert_eq!(os.close(Fd(pick)).is_ok(), was_open);
                }
                let open_now = table.iter().filter(|&&open| open).count();
                prop_assert_eq!(os.open_count(), open_now);
            }
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut os = SimOs::new();
        let fd = os.open_output("/tmp/a").unwrap();
        os.write(fd, b"hello ").unwrap();
        os.write(fd, b"world").unwrap();
        os.close(fd).unwrap();
        assert_eq!(os.file_contents("/tmp/a").unwrap(), b"hello world");

        let fd = os.open_input("/tmp/a").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(os.read(fd, &mut buf).unwrap(), 8);
        assert_eq!(&buf, b"hello wo");
        assert_eq!(os.read(fd, &mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"rld");
        assert_eq!(os.read(fd, &mut buf).unwrap(), 0, "EOF");
        os.close(fd).unwrap();
        assert_eq!(os.open_count(), 0);
    }

    #[test]
    fn descriptor_limit_is_enforced() {
        let mut os = SimOs::with_fd_limit(2);
        let a = os.open_output("/a").unwrap();
        let _b = os.open_output("/b").unwrap();
        assert_eq!(
            os.open_output("/c").unwrap_err(),
            OsError::TooManyOpen { limit: 2 }
        );
        assert_eq!(os.stats().rejected_opens, 1);
        os.close(a).unwrap();
        assert!(os.open_output("/c").is_ok(), "closing frees a slot");
    }

    #[test]
    fn descriptors_are_recycled() {
        let mut os = SimOs::new();
        let a = os.open_output("/a").unwrap();
        os.close(a).unwrap();
        let b = os.open_output("/b").unwrap();
        assert_eq!(a, b, "slot reuse");
        assert!(!os.is_open(Fd(99)));
    }

    #[test]
    fn mode_and_fd_errors() {
        let mut os = SimOs::new();
        assert!(matches!(
            os.open_input("/missing"),
            Err(OsError::NotFound(_))
        ));
        let fd = os.open_output("/x").unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(os.read(fd, &mut buf).unwrap_err(), OsError::WrongMode(fd));
        os.close(fd).unwrap();
        assert_eq!(os.close(fd).unwrap_err(), OsError::BadFd(fd));
        assert_eq!(os.write(fd, b"x").unwrap_err(), OsError::BadFd(fd));
    }

    #[test]
    fn delete_supports_temp_file_scenarios() {
        let mut os = SimOs::new();
        os.create_file("/tmp/scratch", b"data");
        assert!(os.file_exists("/tmp/scratch"));
        os.delete_file("/tmp/scratch").unwrap();
        assert!(!os.file_exists("/tmp/scratch"));
        assert!(os.delete_file("/tmp/scratch").is_err());
    }
}
