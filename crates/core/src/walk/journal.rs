//! The change journal behind [`super::SourceIndex`]: one Linux inotify
//! instance with a watch on every directory a full pass walked, so that a
//! later pass re-stats only the paths its events name.
//!
//! The foreign calls are `inotify_init1` and `inotify_add_watch`; the fd
//! they hand out lives in a [`File`], so reads and the close on drop are
//! safe code, and so is the parser of the records a read returns
//! ([`parse`]).
//!
//! A drain either names what changed or gives the reason the journal
//! can no longer say ([`Fallback`]): a queue overflow, a watch that went
//! away, an event on a directory, a created symlink. The index then
//! walks the tree in full and arms a fresh journal.
#![allow(unsafe_code)]

use std::collections::HashMap;
use std::fs::File;

/// Why a pass walked the tree in full instead of draining the journal.
pub type Fallback = &'static str;

/// One inotify event record: the watch it came from, what happened, and
/// the name of the entry it happened to, without the kernel's NUL
/// padding (empty for an event on the watched directory itself).
#[derive(Debug, PartialEq, Eq)]
pub(super) struct Event<'a> {
    pub wd: i32,
    pub mask: u32,
    pub name: &'a [u8],
}

const IN_MODIFY: u32 = 0x2;
const IN_ATTRIB: u32 = 0x4;
const IN_CLOSE_WRITE: u32 = 0x8;
const IN_MOVED_FROM: u32 = 0x40;
const IN_MOVED_TO: u32 = 0x80;
const IN_CREATE: u32 = 0x100;
const IN_DELETE: u32 = 0x200;
const IN_DELETE_SELF: u32 = 0x400;
const IN_MOVE_SELF: u32 = 0x800;
const IN_UNMOUNT: u32 = 0x2000;
pub(super) const IN_Q_OVERFLOW: u32 = 0x4000;
const IN_IGNORED: u32 = 0x8000;
const IN_ONLYDIR: u32 = 0x0100_0000;
const IN_ISDIR: u32 = 0x4000_0000;

/// What a directory watch reports: every change to an entry's bytes,
/// metadata or name, and the directory's own removal.
const WATCH_MASK: u32 = IN_MODIFY
    | IN_ATTRIB
    | IN_CLOSE_WRITE
    | IN_MOVED_FROM
    | IN_MOVED_TO
    | IN_CREATE
    | IN_DELETE
    | IN_DELETE_SELF
    | IN_MOVE_SELF
    | IN_ONLYDIR;

/// `struct inotify_event` without its name: wd, mask, cookie, len.
const HEADER: usize = 16;

/// The records in `buf`, as one `read(2)` of an inotify fd returns them
/// (whole records only). A record that runs past the end is malformed.
pub(super) fn parse(buf: &[u8]) -> Result<Vec<Event<'_>>, Fallback> {
    let word = |at: usize| u32::from_ne_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
    let mut events = Vec::new();
    let mut at = 0;
    while at < buf.len() {
        if buf.len() - at < HEADER {
            return Err("malformed event");
        }
        let len = word(at + 12) as usize;
        let end = (at + HEADER)
            .checked_add(len)
            .filter(|&end| end <= buf.len())
            .ok_or("malformed event")?;
        let name = &buf[at + HEADER..end];
        let name = &name[..name.iter().position(|&b| b == 0).unwrap_or(name.len())];
        events.push(Event {
            wd: word(at) as i32,
            mask: word(at + 4),
            name,
        });
        at = end;
    }
    Ok(events)
}

/// An inotify instance and the directory path of each of its watches.
pub(super) struct Journal {
    fd: File,
    dirs: HashMap<i32, Vec<u8>>,
    buf: Vec<u8>,
    /// Test hook: records parsed before the fd's, as if the kernel had
    /// queued them.
    #[cfg(test)]
    pub injected: Vec<u8>,
}

impl Journal {
    pub fn new() -> Result<Journal, Fallback> {
        Ok(Journal {
            fd: sys::init()?,
            dirs: HashMap::new(),
            // Room for many records; one record needs at most
            // HEADER + NAME_MAX + 1 bytes.
            buf: vec![0; 64 * 1024],
            #[cfg(test)]
            injected: Vec::new(),
        })
    }

    /// Watch the directory at `dir` (path bytes, as the walk names it).
    /// Its events name entries relative to `dir`.
    pub fn watch(&mut self, dir: &[u8]) -> Result<(), Fallback> {
        let wd = sys::add_watch(&self.fd, dir, WATCH_MASK)?;
        self.dirs.insert(wd, dir.to_vec());
        Ok(())
    }

    /// Read every queued event and return the paths they name whose
    /// names `wanted` accepts, once each. A name `wanted` rejects matters
    /// only if it may now be a symlink (a full walk would follow it):
    /// when its last event created it, it is `lstat`ed, and a symlink is
    /// a fallback.
    pub fn drain(&mut self, wanted: impl Fn(&[u8]) -> bool) -> Result<Vec<Vec<u8>>, Fallback> {
        use std::io::Read;
        // Path -> whether its last event created it.
        let mut named: HashMap<Vec<u8>, bool> = HashMap::new();
        #[cfg(test)]
        {
            let injected = std::mem::take(&mut self.injected);
            self.note(&injected, &mut named)?;
        }
        loop {
            let n = match self.fd.read(&mut self.buf) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err("journal read error"),
            };
            if n == 0 {
                break;
            }
            self.note(&self.buf[..n], &mut named)?;
        }
        let mut paths = Vec::with_capacity(named.len());
        for (path, created) in named {
            if wanted(&path) {
                paths.push(path);
            } else if created && is_symlink(&path) {
                return Err("symlink");
            }
        }
        Ok(paths)
    }

    /// Fold the records in `buf` into `named`.
    fn note(&self, buf: &[u8], named: &mut HashMap<Vec<u8>, bool>) -> Result<(), Fallback> {
        for event in parse(buf)? {
            let mask = event.mask;
            if mask & IN_Q_OVERFLOW != 0 {
                return Err("overflow");
            }
            if mask & (IN_IGNORED | IN_UNMOUNT | IN_DELETE_SELF | IN_MOVE_SELF) != 0 {
                return Err("watch removed");
            }
            if mask & IN_ISDIR != 0 {
                return Err("directory");
            }
            let dir = self.dirs.get(&event.wd).ok_or("watch removed")?;
            if event.name.is_empty() {
                continue;
            }
            let mut path = dir.clone();
            if path.last().is_some_and(|&b| b != b'/') {
                path.push(b'/');
            }
            path.extend_from_slice(event.name);
            let created = named.entry(path).or_insert(false);
            if mask & (IN_CREATE | IN_MOVED_TO) != 0 {
                *created = true;
            } else if mask & (IN_DELETE | IN_MOVED_FROM) != 0 {
                *created = false;
            }
        }
        Ok(())
    }
}

/// Test hook: one record as the kernel writes it, its name NUL-padded
/// to `len` bytes.
#[cfg(test)]
pub(super) fn record(wd: i32, mask: u32, name: &[u8], len: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for word in [wd as u32, mask, 0, len as u32] {
        bytes.extend_from_slice(&word.to_ne_bytes());
    }
    bytes.extend_from_slice(name);
    bytes.resize(HEADER + len, 0);
    bytes
}

fn is_symlink(path: &[u8]) -> bool {
    std::fs::symlink_metadata(super::as_path(path)).is_ok_and(|m| m.is_symlink())
}

/// The two system calls. `IN_NONBLOCK` and `IN_CLOEXEC` are the
/// generic Linux values of `O_NONBLOCK` and `O_CLOEXEC`, which the
/// architectures below share.
#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "x86",
        target_arch = "aarch64",
        target_arch = "arm",
        target_arch = "riscv64"
    )
))]
mod sys {
    use super::Fallback;
    use std::ffi::CString;
    use std::fs::File;
    use std::os::fd::{AsRawFd, FromRawFd};

    const IN_NONBLOCK: i32 = 0o4000;
    const IN_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn inotify_init1(flags: i32) -> i32;
        fn inotify_add_watch(fd: i32, pathname: *const std::ffi::c_char, mask: u32) -> i32;
    }

    pub fn init() -> Result<File, Fallback> {
        // SAFETY: inotify_init1 takes no pointers; it returns a new fd or
        // -1.
        let fd = unsafe { inotify_init1(IN_NONBLOCK | IN_CLOEXEC) };
        if fd < 0 {
            return Err("watch error");
        }
        // SAFETY: `fd` was just returned open by inotify_init1 and nothing
        // else owns it, so the `File` may own and close it.
        Ok(unsafe { File::from_raw_fd(fd) })
    }

    pub fn add_watch(fd: &File, dir: &[u8], mask: u32) -> Result<i32, Fallback> {
        // Paths come from `readdir` and the command line: never a NUL.
        let path = CString::new(dir).map_err(|_| "watch error")?;
        // SAFETY: the borrowed `File` keeps its inotify fd open for the
        // call, and `path` is a NUL-terminated string that outlives it.
        let wd = unsafe { inotify_add_watch(fd.as_raw_fd(), path.as_ptr(), mask) };
        if wd < 0 {
            return Err("watch error");
        }
        Ok(wd)
    }
}

/// No inotify here: every pass walks the tree.
#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "x86",
        target_arch = "aarch64",
        target_arch = "arm",
        target_arch = "riscv64"
    )
)))]
mod sys {
    use super::Fallback;
    use std::fs::File;

    pub fn init() -> Result<File, Fallback> {
        Err("unsupported")
    }

    pub fn add_watch(_: &File, _: &[u8], _: u32) -> Result<i32, Fallback> {
        Err("unsupported")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_padded_names_and_an_overflow_record() {
        let mut buf = record(1, IN_MODIFY, b"a.c", 16);
        buf.extend(record(2, IN_MOVED_TO, b"sub.c", 5));
        buf.extend(record(-1, IN_Q_OVERFLOW, b"", 0));
        let events = parse(&buf).unwrap();
        assert_eq!(
            events,
            [
                Event {
                    wd: 1,
                    mask: IN_MODIFY,
                    name: b"a.c"
                },
                Event {
                    wd: 2,
                    mask: IN_MOVED_TO,
                    name: b"sub.c"
                },
                Event {
                    wd: -1,
                    mask: IN_Q_OVERFLOW,
                    name: b""
                },
            ]
        );
        // A record cut short, in its header or its name, is malformed.
        assert!(parse(&buf[..buf.len() - 4]).is_err());
        let cut = record(1, IN_MODIFY, b"a.c", 16);
        assert!(parse(&cut[..cut.len() - 1]).is_err());
    }
}
