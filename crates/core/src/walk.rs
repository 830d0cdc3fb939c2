//! Input collection: expand files and directories into [`SourceFile`]s.
//!
//! The walker lives in `core` because the CLI, `ofence watch` and the
//! analysis daemon all collect the corpus the same way. The daemon and
//! `watch` do it again on every request or poll, so the walk is
//! **stat-first**: a [`SourceIndex`] remembers each file's stamp
//! `(dev, ino, size, mtime, ctime)` and its text, and a full pass costs a
//! readdir plus one `stat` per file. Only new files, files whose stamp
//! changed, and *racily clean* entries are read and hashed. A session's
//! index also keeps a change journal, so that only its first pass walks
//! the tree (see below).
//!
//! A pass is also lean in memory: it updates the index in place, builds
//! every path in one reused buffer, allocates only for names it has not
//! seen before, and re-sorts only when a name came or went. The corpus
//! it returns is shared with the index, so an unchanged tree costs no
//! copy at all.
//!
//! An entry is racily clean when its mtime is less than
//! [`RACY_WINDOW_NS`] older than the pass that read it: on a file system
//! with coarse timestamps, a write landing in the same tick as that read
//! could leave the stamp unchanged (git's rule for its index). A full
//! pass re-reads such entries until a read happens well after their
//! mtime.
//!
//! ## Seeded entries
//!
//! Every file read from disk carries its [`Slot`] (stamp and read time),
//! and the disk cache stores the slot beside the file's entry. A new
//! process's index is *seeded* from those entries
//! ([`SourceIndex::seeded`]): a seeded file has its cached hash and no
//! text, so its first pass costs a `stat` as every later pass does. It
//! is read like any other entry when its stamp changed or it is racily
//! clean, judged against the read time the cache recorded: the save came
//! later, so judging against it would trust writes that landed just
//! after the read. Only files whose text no phase reads are seeded (see
//! [`crate::session`]); every other file holds its text.
//!
//! ## The change journal
//!
//! A [`SourceIndex::journaled`] index arms a Linux inotify journal
//! (`journal.rs`) on every full pass: the pass adds a directory's watch
//! before it reads that directory, so any change to an entry after the
//! pass saw it raises an event. A later pass drains the queued events and
//! re-stats, and if needed reads, only the `.c` paths they name; a pass
//! that drains nothing costs one `read(2)` and returns the same shared
//! corpus. Racily clean entries are not re-read on such a pass: their
//! watch was in place before their read, so a write in the same mtime
//! tick still raised an event. An entry no event named is as it was when
//! read, so once a pass's start lies past the racy window, its slot
//! takes that start as its read time, unread.
//!
//! A pass walks the tree in full, drops the journal and arms a fresh one
//! when the journal cannot tell what changed ([`PassStats::fallback`]
//! names why): the event queue overflowed; a watch could not be added
//! (inotify instances and watches are a shared, limited kernel resource)
//! or went away (`IN_IGNORED`, `IN_UNMOUNT`, `IN_DELETE_SELF`,
//! `IN_MOVE_SELF`); an event names a directory; a root no longer resolves
//! to the directory that was walked; the walk met a symlink, a file root
//! or a file with more than one link, whose changes need not reach this
//! tree's watches; the target has no inotify; the pass was asked for
//! other paths than the walk that armed the journal; or the journal is
//! older than [`BACKSTOP`], since a write through a shared mapping raises
//! no event at all.

mod journal;

use crate::engine::SourceFile;
use journal::{Fallback, Journal};
use std::collections::{HashMap, HashSet};
use std::ffi::OsStr;
use std::fs::Metadata;
use std::os::unix::ffi::OsStrExt;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How close an entry's mtime may come to the time it was read before
/// the entry is re-read on every full pass (2 s: the coarsest common
/// timestamp granularity, FAT's).
const RACY_WINDOW_NS: i64 = 2_000_000_000;

/// The age at which a journal is replaced by a full pass however quiet
/// it has been: the backstop for writes that raise no event.
const BACKSTOP: Duration = Duration::from_secs(60);

/// Load every `.c` file reachable from the given paths, sorted by path
/// for deterministic output: one pass of a fresh [`SourceIndex`], which
/// reads every file.
pub fn collect_sources(paths: &[String]) -> Result<Vec<SourceFile>, String> {
    let corpus = SourceIndex::default().refresh(paths)?.0;
    // The index is gone, so this is the only reference.
    Ok(Arc::try_unwrap(corpus).map_or_else(|corpus| corpus.files.clone(), |corpus| corpus.files))
}

/// The corpus as one pass found it: its files, sorted by name, and the
/// id of their *layout*, which name sits at which position. An index
/// issues a fresh id, from a process-wide counter, whenever it builds a
/// new list of names; a pass that changes only texts and slots keeps the
/// id. So two corpora with the same id hold the same names in the same
/// order, and the engine reuses its last run's record at every position
/// whose hash and slot also match (see [`crate::engine`]).
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    files: Vec<SourceFile>,
    /// 0 for the empty corpus of an index that has found nothing yet.
    layout: u64,
}

impl Corpus {
    fn new(files: Vec<SourceFile>) -> Corpus {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let layout = NEXT.fetch_add(1, Ordering::Relaxed);
        Corpus { files, layout }
    }

    /// The id of this corpus's layout.
    pub(crate) fn layout(&self) -> u64 {
        self.layout
    }
}

/// Equal files, whatever the layout ids.
impl PartialEq for Corpus {
    fn eq(&self, other: &Corpus) -> bool {
        self.files == other.files
    }
}

impl std::ops::Deref for Corpus {
    type Target = [SourceFile];

    fn deref(&self) -> &[SourceFile] {
        &self.files
    }
}

/// What identifies one version of a file without reading it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Stamp {
    dev: u64,
    ino: u64,
    size: u64,
    mtime_ns: i64,
    ctime_ns: i64,
}

impl Stamp {
    fn of(meta: &Metadata) -> Stamp {
        // Saturating: ns since the epoch fit an `i64` until 2262.
        let ns = |secs: i64, nsec: i64| secs.saturating_mul(1_000_000_000).saturating_add(nsec);
        Stamp {
            dev: meta.dev(),
            ino: meta.ino(),
            size: meta.size(),
            mtime_ns: ns(meta.mtime(), meta.mtime_nsec()),
            ctime_ns: ns(meta.ctime(), meta.ctime_nsec()),
        }
    }
}

/// What the index knows about one file besides its text. Every
/// [`SourceFile`] read from disk carries its slot, and so does its
/// disk-cache entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Slot {
    pub stamp: Stamp,
    /// Wall clock (ns since the epoch) at the start of the pass that
    /// read the file.
    pub read_at_ns: i64,
}

impl Slot {
    pub(crate) fn racily_clean(&self) -> bool {
        self.stamp.mtime_ns > self.read_at_ns.saturating_sub(RACY_WINDOW_NS)
    }

    /// A 64-bit digest of the slot: what the engine's per-position table
    /// keeps instead of the 48-byte slot. Two equal slots give equal
    /// keys; a collision between unequal ones only leaves an older
    /// stamp in the cache, which makes a later process read the file.
    pub(crate) fn key(self) -> u64 {
        let Stamp {
            dev,
            ino,
            size,
            mtime_ns,
            ctime_ns,
        } = self.stamp;
        [
            dev,
            ino,
            size,
            mtime_ns as u64,
            ctime_ns as u64,
            self.read_at_ns as u64,
        ]
        .into_iter()
        .fold(0, |h, x| {
            (h ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
        })
    }

    /// The slot as the integers a cache entry stores: dev, ino and size
    /// (bit for bit), the mtime in ns since the epoch, then the ctime and
    /// the read time as ns after the mtime. Short offsets keep the entry
    /// small: a plain write sets ctime to mtime. `None` when an offset
    /// overflows: such a file is simply never seeded.
    pub(crate) fn to_ints(self) -> Option<Vec<i64>> {
        let Stamp {
            dev,
            ino,
            size,
            mtime_ns,
            ctime_ns,
        } = self.stamp;
        Some(vec![
            dev as i64,
            ino as i64,
            size as i64,
            mtime_ns,
            ctime_ns.checked_sub(mtime_ns)?,
            self.read_at_ns.checked_sub(mtime_ns)?,
        ])
    }

    /// Inverse of [`Slot::to_ints`]; `None` for any other shape.
    pub(crate) fn from_ints(ints: &[i64]) -> Option<Slot> {
        let &[dev, ino, size, mtime_ns, ctime_after, read_after] = ints else {
            return None;
        };
        Some(Slot {
            stamp: Stamp {
                dev: dev as u64,
                ino: ino as u64,
                size: size as u64,
                mtime_ns,
                ctime_ns: mtime_ns.checked_add(ctime_after)?,
            },
            read_at_ns: mtime_ns.checked_add(read_after)?,
        })
    }
}

/// What one [`SourceIndex::refresh`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassStats {
    /// `.c` paths statted: every file a full pass found, or every path a
    /// journal pass's events named.
    pub statted: usize,
    /// Files read and hashed: new, changed, or (on a full pass) racily
    /// clean.
    pub read: usize,
    /// Whether the pass drained the journal instead of walking the tree.
    pub journal: bool,
    /// Why a full pass replaced the journal. `None` for an index's first
    /// pass and for every pass of an index that keeps no journal.
    pub fallback: Option<&'static str>,
}

/// Slot and text (or, for a seeded file, hash) of every file the last
/// pass found. The texts are the same `Arc<str>`s the engine's cached
/// analyses hold, never a second copy.
#[derive(Default)]
pub struct SourceIndex {
    /// The corpus as of the last pass, sorted by name, and shared with
    /// the callers of [`SourceIndex::refresh`]: a pass changes it through
    /// `Arc::make_mut`, so a snapshot a caller still holds never changes.
    /// Every entry carries its slot.
    files: Arc<Corpus>,
    /// The last full pass that found each entry of `files`, in the same
    /// order; a journal pass keeps the number and zeroes what it removes.
    seen: Vec<u64>,
    /// Position in `files` by [`name_hash`]: a lookup costs one probe
    /// and one name comparison, where a binary search over 12k names
    /// costs a dozen cache misses.
    by_hash: HashMap<u64, usize>,
    /// Number of the current (or last) full pass.
    pass: u64,
    /// Whether a full pass arms a journal for the passes after it.
    journaled: bool,
    /// The journal the last full pass armed, or why it could not. `None`
    /// before the first pass, after a failed one, and in an index that
    /// keeps no journal.
    journal: Option<Result<Armed, Fallback>>,
    /// Names of the entries that were racily clean when last read.
    racy: Vec<String>,
    /// [`digest`] of `files` as of the last pass: a full pass computes
    /// it afresh, and a journal pass (which only ever follows one) adds
    /// and subtracts the terms of what it changed.
    digest: u64,
    /// Test hook: the next drain meets a queue overflow.
    #[cfg(test)]
    pub(crate) overflow_next: bool,
    /// Test hook: every journal is past the backstop.
    #[cfg(test)]
    pub(crate) expire_journals: bool,
}

/// A journal and what its full pass walked.
struct Armed {
    journal: Journal,
    paths: Vec<String>,
    /// `(dev, ino)` of the directory or file each path resolved to.
    roots: Vec<(u64, u64)>,
    /// When the full pass started.
    at: Instant,
}

/// What one pass has found so far.
#[derive(Default)]
struct Found {
    /// Wall clock at the start of the pass: the read time of what it
    /// reads.
    pass_ns: i64,
    /// The files the pass has to read, in the order it statted them.
    reads: Vec<Read>,
    /// Where in `reads` the new file with each [`name_hash`] is (the
    /// first, should two names share a hash).
    new: HashMap<u64, usize>,
    /// Files found for the first time, once read.
    fresh: Vec<SourceFile>,
    stats: PassStats,
}

impl Found {
    /// Whether this pass already plans to read the new file `name`.
    fn plans_new(&self, name: &str) -> bool {
        match self.new.get(&name_hash(name)) {
            None => false,
            Some(&i) if self.reads[i].name == name => true,
            // Another new name with the same hash: rare enough to scan.
            Some(_) => (self.reads.iter()).any(|r| r.known.is_none() && r.name == name),
        }
    }
}

/// A file a pass decided to read on its stat: a new file, or a known one
/// whose stamp changed or that is racily clean.
struct Read {
    /// Its position in the index; `None` for a new file.
    known: Option<usize>,
    name: String,
    path: PathBuf,
    slot: Slot,
    /// What the read gave: the file as read, nameless, or `None` when a
    /// known file's bytes are unchanged.
    got: OnceLock<Result<Option<SourceFile>, String>>,
}

impl SourceIndex {
    /// An index that already knows `files` (name, content hash and slot,
    /// as a loaded disk cache recorded them) but holds none of their
    /// texts. Its first pass reads such a file only if the stamp changed
    /// or the recorded read time makes it racily clean; a file the pass
    /// does not find leaves the index.
    pub(crate) fn seeded<'a>(files: impl IntoIterator<Item = (&'a str, u64, Slot)>) -> SourceIndex {
        let mut files: Vec<SourceFile> = (files.into_iter())
            .map(|(name, hash, slot)| SourceFile::unread(name, hash, slot))
            .collect();
        files.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        SourceIndex {
            by_hash: by_hash(&files),
            seen: vec![0; files.len()],
            files: Arc::new(Corpus::new(files)),
            ..SourceIndex::default()
        }
    }

    /// This index with a change journal: every pass after a full one
    /// drains the journal instead of walking the tree, unless it has to
    /// fall back (see module docs). For an index that makes many passes.
    pub(crate) fn journaled(mut self) -> SourceIndex {
        self.journaled = true;
        self
    }

    /// Return the corpus as it is now, sorted by path, reading only the
    /// files whose stamp says they may have changed: from the journal
    /// when it can tell, else by walking `paths`.
    pub fn refresh(&mut self, paths: &[String]) -> Result<(Arc<Corpus>, PassStats), String> {
        let pass_ns = wall_clock_ns();
        let fallback = match self.journal.take() {
            None => None,
            Some(Err(reason)) => Some(reason),
            Some(Ok(mut armed)) => match self.drain(&mut armed, paths, pass_ns) {
                Ok(stats) => {
                    self.journal = Some(Ok(armed));
                    return self.corpus(stats);
                }
                Err(reason) => Some(reason),
            },
        };
        let stats = self.walk(paths, pass_ns, fallback)?;
        self.corpus(stats)
    }

    /// [`digest`] of the corpus as of the last pass.
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }

    fn corpus(&self, stats: PassStats) -> Result<(Arc<Corpus>, PassStats), String> {
        if self.files.is_empty() {
            return Err("no .c files found under the given paths".into());
        }
        Ok((self.files.clone(), stats))
    }

    /// A full pass: walk `paths`, stat every file, and arm a fresh
    /// journal if this index keeps one.
    fn walk(
        &mut self,
        paths: &[String],
        pass_ns: i64,
        fallback: Option<Fallback>,
    ) -> Result<PassStats, String> {
        self.pass += 1;
        self.racy.clear();
        let at = Instant::now();
        let journal = self.journaled.then(Journal::new);
        let mut walk = Walk {
            index: self,
            found: Found {
                pass_ns,
                stats: PassStats {
                    fallback,
                    ..PassStats::default()
                },
                ..Found::default()
            },
            visited: HashSet::new(),
            journal,
        };
        let mut roots = Vec::with_capacity(paths.len());
        let mut traverse = || {
            for p in paths {
                let path = Path::new(p);
                let missing = || format!("{p}: no such file or directory");
                let meta = std::fs::metadata(path).map_err(|_| missing())?;
                roots.push((meta.dev(), meta.ino()));
                if walk.journal.is_some()
                    && std::fs::symlink_metadata(path).is_ok_and(|m| m.is_symlink())
                {
                    walk.lose("symlink");
                }
                if meta.is_dir() {
                    let mut buf = p.as_bytes().to_vec();
                    walk.dir(&mut buf, &meta)?;
                } else if meta.is_file() {
                    walk.lose("file root");
                    walk.file(p, path, || Ok(meta))?;
                } else {
                    return Err(missing());
                }
            }
            Ok(())
        };
        let traversed = traverse();
        let Walk {
            mut found, journal, ..
        } = walk;
        // Every read the traversal planned precedes the point where it
        // failed, if it did: a failed read among them comes first.
        self.read_planned(&mut found)?;
        traversed?;
        self.retire_and_merge(found.fresh);
        self.digest = digest(&self.files);
        self.journal = journal.map(|journal| {
            journal.map(|journal| Armed {
                journal,
                paths: paths.to_vec(),
                roots,
                at,
            })
        });
        Ok(found.stats)
    }

    /// A journal pass: re-stat, and read if needed, only the paths the
    /// queued events name. `Err` names why the journal cannot serve this
    /// pass; the index may then be half updated, which the full pass
    /// that follows puts right.
    fn drain(
        &mut self,
        armed: &mut Armed,
        paths: &[String],
        pass_ns: i64,
    ) -> Result<PassStats, Fallback> {
        if armed.paths != paths {
            return Err("paths changed");
        }
        #[cfg(test)]
        if self.expire_journals {
            return Err("backstop");
        }
        if armed.at.elapsed() >= BACKSTOP {
            return Err("backstop");
        }
        #[cfg(test)]
        if std::mem::take(&mut self.overflow_next) {
            let overflow = journal::record(-1, journal::IN_Q_OVERFLOW, b"", 0);
            armed.journal.injected.extend(overflow);
        }
        for (p, &root) in paths.iter().zip(&armed.roots) {
            let meta = std::fs::metadata(p).map_err(|_| "root moved")?;
            if (meta.dev(), meta.ino()) != root {
                return Err("root moved");
            }
        }
        let named = armed.journal.drain(|path| is_source(as_path(path)))?;
        let mut found = Found {
            pass_ns,
            stats: PassStats {
                journal: true,
                ..PassStats::default()
            },
            ..Found::default()
        };
        // Stat every named path before the index changes: a path a full
        // walk would treat differently falls back with nothing done.
        let mut stamped = Vec::with_capacity(named.len());
        for path in &named {
            found.stats.statted += 1;
            let meta = match std::fs::symlink_metadata(as_path(path)) {
                Ok(meta) if meta.is_symlink() => return Err("symlink"),
                Ok(meta) if meta.is_dir() => return Err("directory"),
                Ok(meta) if meta.is_file() && meta.nlink() > 1 => return Err("hard link"),
                // A FIFO or socket: a full walk skips it too.
                Ok(meta) => Some(meta).filter(Metadata::is_file),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                Err(e) if e.kind() == std::io::ErrorKind::NotADirectory => None,
                Err(_) => return Err("stat error"),
            };
            stamped.push((String::from_utf8_lossy(path), as_path(path), meta));
        }
        let racy = std::mem::take(&mut self.racy);
        for (name, path, meta) in &stamped {
            let known = self.position(name);
            match meta {
                Some(meta) => self.plan(known, name, path, meta, &mut found),
                None => {
                    if let Some(i) = known {
                        self.seen[i] = 0;
                    }
                }
            }
        }
        self.read_planned(&mut found).map_err(|_| "read error")?;
        // An entry no event named is as it was when read, and as it is
        // now: once this pass's start settles it, its slot takes that as
        // its read time. Until then, and while a caller still holds the
        // corpus (a settle is not worth a copy), the corpus is left alone.
        let named: HashSet<&str> = stamped.iter().map(|(name, ..)| name.as_ref()).collect();
        for name in racy {
            let Some(i) = self
                .position(&name)
                .filter(|_| !named.contains(name.as_str()))
            else {
                continue;
            };
            let Some(slot) = self.files[i].slot else {
                continue;
            };
            let settled = Slot {
                read_at_ns: pass_ns,
                ..slot
            };
            match Arc::get_mut(&mut self.files) {
                Some(corpus) if !settled.racily_clean() => corpus.files[i].slot = Some(settled),
                _ => self.racy.push(name),
            }
        }
        self.retire_and_merge(found.fresh);
        Ok(found.stats)
    }

    /// Decide what the entry for `name` at `path` needs, given `meta`, its
    /// stat now. A new file is to be read; a known one (at `known`) is
    /// marked found by this pass, and read again only when its stamp
    /// changed or it is racily clean. Reads go into `found`, for
    /// [`SourceIndex::read_planned`].
    fn plan(
        &mut self,
        known: Option<usize>,
        name: &str,
        path: &Path,
        meta: &Metadata,
        found: &mut Found,
    ) {
        let slot = Slot {
            stamp: Stamp::of(meta),
            read_at_ns: found.pass_ns,
        };
        if let Some(i) = known {
            self.seen[i] = self.pass;
            if let Some(old) = self.files[i].slot {
                if old.stamp == slot.stamp && !old.racily_clean() {
                    return;
                }
            }
        } else if found.plans_new(name) {
            return;
        } else {
            let at = found.reads.len();
            found.new.entry(name_hash(name)).or_insert(at);
        }
        found.reads.push(Read {
            known,
            name: name.to_string(),
            path: path.to_path_buf(),
            slot,
            got: OnceLock::new(),
        });
    }

    /// Read and hash the files `found` plans to read, on every core, then
    /// bring their entries up to date serially, in the order they were
    /// planned. `Err` is the first failed read in that order; the entries
    /// planned before it are up to date.
    fn read_planned(&mut self, found: &mut Found) -> Result<(), String> {
        let files = &self.files;
        crate::pool::for_each(&found.reads, None, |_, planned| {
            let got = read(&planned.path, planned.slot.stamp.size).map(|content| {
                // Unchanged bytes keep the file as it was: the text the
                // engine already shares, or no text for a seeded file.
                // So a `touch` costs no memory.
                let same = planned.known.is_some_and(|i| files[i].holds(&content));
                (!same).then(|| SourceFile::new(String::new(), content))
            });
            let _ = planned.got.set(got);
        });
        for planned in std::mem::take(&mut found.reads) {
            found.stats.read += 1;
            let got = planned.got.into_inner().expect("every planned read ran")?;
            if planned.slot.racily_clean() {
                self.racy.push(planned.name.clone());
            }
            let Some(i) = planned.known else {
                let mut file = got.expect("a new file is never unchanged");
                file.name = planned.name;
                file.slot = Some(planned.slot);
                found.fresh.push(file);
                continue;
            };
            let file = &mut Arc::make_mut(&mut self.files).files[i];
            if let Some(mut read) = got {
                let old = digest_term(&file.name, file.hash());
                read.name = std::mem::take(&mut file.name);
                *file = read;
                let new = digest_term(&file.name, file.hash());
                self.digest = self.digest.wrapping_sub(old).wrapping_add(new);
            }
            file.slot = Some(planned.slot);
        }
        Ok(())
    }

    /// Drop the files the last full pass did not find (or a journal pass
    /// removed) and add the ones found for the first time, keeping
    /// `files` sorted, under a fresh layout id. A pass in which no name
    /// came or went leaves the list (and its order and id) alone.
    fn retire_and_merge(&mut self, fresh: Vec<SourceFile>) {
        let pass = self.pass;
        if fresh.is_empty() && self.seen.iter().all(|&seen| seen == pass) {
            return;
        }
        let files = std::mem::take(&mut Arc::make_mut(&mut self.files).files);
        let mut merged: Vec<SourceFile> = Vec::with_capacity(files.len() + fresh.len());
        for (file, seen) in files.into_iter().zip(std::mem::take(&mut self.seen)) {
            if seen == pass {
                merged.push(file);
            } else {
                let term = digest_term(&file.name, file.hash());
                self.digest = self.digest.wrapping_sub(term);
            }
        }
        for file in fresh {
            let term = digest_term(&file.name, file.hash());
            self.digest = self.digest.wrapping_add(term);
            merged.push(file);
        }
        merged.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        self.by_hash = by_hash(&merged);
        self.seen = vec![pass; merged.len()];
        self.files = Arc::new(Corpus::new(merged));
    }

    /// Where `name` sits in `files`. Two names that share a hash keep one
    /// map entry; the other is found by binary search.
    fn position(&self, name: &str) -> Option<usize> {
        let hinted = self.by_hash.get(&name_hash(name)).copied();
        hinted.filter(|&i| self.files[i].name == name).or_else(|| {
            self.files
                .binary_search_by(|f| f.name.as_str().cmp(name))
                .ok()
        })
    }
}

/// One full pass in progress.
struct Walk<'a> {
    index: &'a mut SourceIndex,
    found: Found,
    /// Directories by (dev, ino): a symlink cycle is entered once.
    visited: HashSet<(u64, u64)>,
    /// The journal this pass arms, or why it cannot; `None` for an index
    /// that keeps no journal.
    journal: Option<Result<Journal, Fallback>>,
}

impl Walk<'_> {
    /// This pass cannot arm a journal, for `reason` (the first one
    /// counts).
    fn lose(&mut self, reason: Fallback) {
        if let Some(journal @ Ok(_)) = &mut self.journal {
            *journal = Err(reason);
        }
    }

    /// Visit the file `name` at `path`, statting it with `stat` unless
    /// this pass already visited it (from an overlapping root).
    fn file(
        &mut self,
        name: &str,
        path: &Path,
        stat: impl FnOnce() -> std::io::Result<Metadata>,
    ) -> Result<(), String> {
        let index = &mut *self.index;
        let known = index.position(name);
        let visited = match known {
            Some(i) => index.seen[i] == index.pass,
            None => self.found.plans_new(name),
        };
        if visited {
            return Ok(());
        }
        let meta = stat().map_err(|e| format!("{}: {e}", path.display()))?;
        self.found.stats.statted += 1;
        if meta.nlink() > 1 {
            self.lose("hard link");
        }
        self.index.plan(known, name, path, &meta, &mut self.found);
        Ok(())
    }

    /// Visit the `.c` files under the directory whose path is in `buf`
    /// (and whose metadata is `meta`), watching it first when this pass
    /// arms a journal. `readdir`'s file type answers "directory?" for
    /// free; only symlinks need a `stat` to see what they point at. Each
    /// entry's path is built by appending to `buf` and truncating back.
    fn dir(&mut self, buf: &mut Vec<u8>, meta: &Metadata) -> Result<(), String> {
        if !self.visited.insert((meta.dev(), meta.ino())) {
            return Ok(());
        }
        if let Some(Ok(journal)) = &mut self.journal {
            if let Err(reason) = journal.watch(buf) {
                self.lose(reason);
            }
        }
        let dir_err = |buf: &[u8], e: std::io::Error| format!("{}: {e}", as_path(buf).display());
        let base = buf.len();
        for entry in std::fs::read_dir(as_path(buf)).map_err(|e| dir_err(buf, e))? {
            let entry = entry.map_err(|e| dir_err(buf, e))?;
            let kind = entry.file_type().map_err(|e| dir_err(buf, e))?;
            // `Path::join`: a separator unless the base already ends in one.
            if buf.last().is_some_and(|&b| b != b'/') {
                buf.push(b'/');
            }
            buf.extend_from_slice(entry.file_name().as_bytes());
            let visited = self.entry(buf, &entry, kind);
            buf.truncate(base);
            visited?;
        }
        Ok(())
    }

    fn entry(
        &mut self,
        buf: &mut Vec<u8>,
        entry: &std::fs::DirEntry,
        kind: std::fs::FileType,
    ) -> Result<(), String> {
        let path = as_path(buf);
        let is_c = is_source(path);
        let meta = if kind.is_symlink() {
            self.lose("symlink");
            match std::fs::metadata(path) {
                Ok(meta) => meta,
                // A dangling link is skipped unless it claims to be source.
                Err(e) if is_c => return Err(format!("{}: {e}", path.display())),
                Err(_) => return Ok(()),
            }
        } else if kind.is_dir() {
            entry
                .metadata()
                .map_err(|e| format!("{}: {e}", path.display()))?
        } else if kind.is_file() && is_c {
            // Stat it only if this pass has not already.
            return self.file(&String::from_utf8_lossy(buf), path, || entry.metadata());
        } else {
            return Ok(());
        };
        if meta.is_dir() {
            self.dir(buf, &meta)
        } else if meta.is_file() && is_c {
            self.file(&String::from_utf8_lossy(buf), path, || Ok(meta))
        } else {
            Ok(())
        }
    }
}

/// The wrapping sum of every file's [`digest_term`]: the part of a corpus
/// key ([`crate::session::corpus_key`]) that the corpus decides. A sum,
/// so an index keeps it current by adding and subtracting the terms of
/// the files a pass changed, in any order. Each file's hash was computed
/// when it was read, so computing it afresh costs O(paths).
pub(crate) fn digest(files: &[SourceFile]) -> u64 {
    (files.iter()).fold(0, |sum, f| sum.wrapping_add(digest_term(&f.name, f.hash())))
}

/// One file's term of a [`digest`]: FNV over its name, a NUL and its
/// content hash, finished with a 64-bit mixer (SplitMix64's), so that
/// every input bit reaches every output bit before terms are summed.
fn digest_term(name: &str, hash: u64) -> u64 {
    let h = crate::cache::fnv1a_extend(name_hash(name), &[0]);
    let mut z = crate::cache::fnv1a_extend(h, &hash.to_le_bytes());
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether a directory walk collects the file at `path`.
fn is_source(path: &Path) -> bool {
    path.extension().and_then(OsStr::to_str) == Some("c")
}

fn name_hash(name: &str) -> u64 {
    crate::cache::fnv1a_extend(crate::cache::FNV_OFFSET, name.as_bytes())
}

fn by_hash(files: &[SourceFile]) -> HashMap<u64, usize> {
    (files.iter().enumerate())
        .map(|(i, f)| (name_hash(&f.name), i))
        .collect()
}

fn as_path(bytes: &[u8]) -> &Path {
    Path::new(OsStr::from_bytes(bytes))
}

/// The text of the file at `path`, whose stat said it holds `size`
/// bytes: read into a buffer of that size, without the second stat
/// `fs::read_to_string` makes for its size hint (a `Take` reads by the
/// generic path, which asks the file nothing).
fn read(path: &Path, size: u64) -> Result<String, String> {
    use std::io::Read;
    let mut text = String::new();
    // A size too large to reserve just means a growing buffer.
    let _ = text.try_reserve_exact(usize::try_from(size).unwrap_or(usize::MAX));
    let file = std::fs::File::open(path);
    let read = file.and_then(|file| file.take(u64::MAX).read_to_string(&mut text));
    read.map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text)
}

/// `file` with its text, read now: for a file a snapshot took without
/// reading it. The text must hash as the snapshot says, or the file
/// changed after the snapshot and this is an error.
pub(crate) fn read_text(file: &SourceFile) -> Result<SourceFile, String> {
    let size = file.slot.map_or(0, |slot| slot.stamp.size);
    let content = read(Path::new(&file.name), size)?;
    if !file.holds(&content) {
        return Err(format!("{}: changed during the request", file.name));
    }
    let mut read = SourceFile::new(file.name.clone(), content);
    read.slot = file.slot;
    Ok(read)
}

pub(crate) fn wall_clock_ns() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| i64::try_from(d.as_nanos()).unwrap_or(i64::MAX))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, SystemTime};

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ofence-walk-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        dir
    }

    /// Backdate `path`'s mtime so its index entry is not racily clean.
    fn age(path: &Path) {
        let old = SystemTime::now() - Duration::from_secs(3600);
        std::fs::File::options()
            .write(true)
            .open(path)
            .unwrap()
            .set_modified(old)
            .unwrap();
    }

    fn names(sources: &[SourceFile]) -> Vec<String> {
        sources
            .iter()
            .map(|s| {
                Path::new(&s.name)
                    .file_name()
                    .unwrap()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect()
    }

    #[test]
    fn collects_recursively_and_sorted() {
        let dir = tempdir("sorted");
        std::fs::write(dir.join("b.c"), "int b;").unwrap();
        std::fs::write(dir.join("a.c"), "int a;").unwrap();
        std::fs::write(dir.join("sub/c.c"), "int c;").unwrap();
        std::fs::write(dir.join("not-c.txt"), "skip").unwrap();
        let sources = collect_sources(&[dir.display().to_string()]).unwrap();
        let names: Vec<&str> = sources.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), 3);
        assert!(names[0].ends_with("a.c"));
        assert!(names[1].ends_with("b.c"));
        assert!(names[2].ends_with("c.c"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_path_is_an_error() {
        let err = collect_sources(&["/no/such/path".to_string()]).unwrap_err();
        assert!(err.contains("no such file"), "{err}");
    }

    /// A file named on the command line is collected whatever its
    /// extension; only directory walks filter on `.c`.
    #[test]
    fn explicit_file_any_extension() {
        let dir = tempdir("explicit");
        let file = dir.join("x.inc");
        std::fs::write(&file, "int x;").unwrap();
        let sources = collect_sources(&[file.display().to_string()]).unwrap();
        assert_eq!(names(&sources), ["x.inc"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_corpus_is_an_error() {
        let dir = tempdir("empty");
        let err = collect_sources(&[dir.display().to_string()]).unwrap_err();
        assert!(err.contains("no .c files"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `sub/up -> ..` makes the tree infinitely deep; every directory is
    /// still visited once, so the one file is collected once.
    #[test]
    fn symlink_loop_yields_each_file_once() {
        let dir = tempdir("loop");
        std::fs::write(dir.join("a.c"), "int a;").unwrap();
        std::os::unix::fs::symlink("..", dir.join("sub/up")).unwrap();
        std::os::unix::fs::symlink("nowhere", dir.join("sub/dangling")).unwrap();
        let sources = collect_sources(&[dir.display().to_string()]).unwrap();
        assert_eq!(names(&sources), ["a.c"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A symlinked file is collected like a regular one.
    #[test]
    fn symlinked_file_is_collected() {
        let dir = tempdir("link-file");
        std::fs::write(dir.join("sub/real.c"), "int r;").unwrap();
        std::os::unix::fs::symlink("sub/real.c", dir.join("alias.c")).unwrap();
        let sources = collect_sources(&[dir.display().to_string()]).unwrap();
        assert_eq!(names(&sources), ["alias.c", "real.c"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unchanged_files_are_statted_not_read() {
        let dir = tempdir("stat-only");
        for name in ["a.c", "b.c", "sub/c.c"] {
            std::fs::write(dir.join(name), name).unwrap();
            age(&dir.join(name));
        }
        let paths = [dir.display().to_string()];
        let mut index = SourceIndex::default();
        let (first, pass) = index.refresh(&paths).unwrap();
        assert_eq!(
            pass,
            PassStats {
                statted: 3,
                read: 3,
                ..PassStats::default()
            }
        );
        let (second, pass) = index.refresh(&paths).unwrap();
        assert_eq!(
            pass,
            PassStats {
                statted: 3,
                read: 0,
                ..PassStats::default()
            }
        );
        assert_eq!(first, second);
        // The second pass hands out the very same texts.
        assert!(first
            .iter()
            .zip(second.iter())
            .all(|(a, b)| Arc::ptr_eq(&a.content, &b.content)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An index seeded with another index's names, hashes and slots
    /// reads nothing on its first pass, holds no text, and still equals
    /// the corpus; a rewrite it cannot see by size or mtime is read.
    #[test]
    fn seeded_entries_are_statted_not_read() {
        let dir = tempdir("seeded");
        for name in ["a.c", "b.c", "sub/c.c"] {
            std::fs::write(dir.join(name), name).unwrap();
            age(&dir.join(name));
        }
        let paths = [dir.display().to_string()];
        let (read, _) = SourceIndex::default().refresh(&paths).unwrap();
        let seeds = read
            .iter()
            .map(|f| (f.name.as_str(), f.hash(), f.slot.unwrap()));
        let mut index = SourceIndex::seeded(seeds);
        let (seeded, pass) = index.refresh(&paths).unwrap();
        assert_eq!(
            pass,
            PassStats {
                statted: 3,
                read: 0,
                ..PassStats::default()
            }
        );
        assert_eq!(seeded, read);
        assert!(seeded.iter().all(|f| f.text().is_none()));

        let mtime = std::fs::metadata(dir.join("a.c"))
            .unwrap()
            .modified()
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        std::fs::write(dir.join("a.c"), "A.c").unwrap();
        std::fs::File::options()
            .write(true)
            .open(dir.join("a.c"))
            .unwrap()
            .set_modified(mtime)
            .unwrap();
        let (sources, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass.read, 1);
        assert_eq!(sources[0].text().map(|t| &**t), Some("A.c"));
        assert!(sources[1..].iter().all(|f| f.text().is_none()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seeded from slots whose read time lies within the racy window of
    /// the mtime, the first pass reads the file; a `touch` of a seeded
    /// file reads it and keeps it unread, since the bytes are the same.
    #[test]
    fn seeded_racy_and_touched_entries_are_read() {
        let dir = tempdir("seeded-racy");
        std::fs::write(dir.join("a.c"), "int a;").unwrap();
        std::fs::write(dir.join("b.c"), "int b;").unwrap();
        age(&dir.join("b.c"));
        let paths = [dir.display().to_string()];
        let (read, _) = SourceIndex::default().refresh(&paths).unwrap();
        let seeds = read
            .iter()
            .map(|f| (f.name.as_str(), f.hash(), f.slot.unwrap()));
        let mut index = SourceIndex::seeded(seeds);
        let (_, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass.read, 1, "a.c is racily clean");
        std::fs::File::options()
            .write(true)
            .open(dir.join("b.c"))
            .unwrap()
            .set_modified(SystemTime::now() - Duration::from_secs(60))
            .unwrap();
        let (sources, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass.read, 2);
        assert!(sources[1].text().is_none(), "same bytes stay unread");
        assert_eq!(sources, read);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slots_round_trip_through_their_integers() {
        let dir = tempdir("slot-ints");
        std::fs::write(dir.join("a.c"), "int a;").unwrap();
        let (read, _) = SourceIndex::default()
            .refresh(&[dir.display().to_string()])
            .unwrap();
        let slot = read[0].slot.unwrap();
        let ints = slot.to_ints().unwrap();
        assert_eq!(Slot::from_ints(&ints), Some(slot));
        assert_eq!(Slot::from_ints(&ints[1..]), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Same size, mtime put back: only the ctime betrays the rewrite.
    #[test]
    fn same_size_rewrite_with_restored_mtime_is_detected() {
        let dir = tempdir("ctime");
        let file = dir.join("a.c");
        std::fs::write(&file, "int a;").unwrap();
        age(&file);
        let mtime = std::fs::metadata(&file).unwrap().modified().unwrap();
        let paths = [dir.display().to_string()];
        let mut index = SourceIndex::default();
        index.refresh(&paths).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        std::fs::write(&file, "int b;").unwrap();
        std::fs::File::options()
            .write(true)
            .open(&file)
            .unwrap()
            .set_modified(mtime)
            .unwrap();
        let (sources, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass.read, 1);
        assert_eq!(&*sources[0].content, "int b;");
        let (_, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass.read, 0, "an old mtime is not racy");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racily_clean_entries_are_reread() {
        let dir = tempdir("racy");
        std::fs::write(dir.join("fresh.c"), "int f;").unwrap();
        std::fs::write(dir.join("old.c"), "int o;").unwrap();
        age(&dir.join("old.c"));
        let paths = [dir.display().to_string()];
        let mut index = SourceIndex::default();
        index.refresh(&paths).unwrap();
        // fresh.c was written within the racy window of its read, so it
        // is re-read; old.c is trusted on its stamp.
        let (_, pass) = index.refresh(&paths).unwrap();
        assert_eq!(
            pass,
            PassStats {
                statted: 2,
                read: 1,
                ..PassStats::default()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn add_delete_and_rename_are_picked_up() {
        let dir = tempdir("churn");
        for name in ["a.c", "b.c"] {
            std::fs::write(dir.join(name), name).unwrap();
            age(&dir.join(name));
        }
        let paths = [dir.display().to_string()];
        let mut index = SourceIndex::default();
        index.refresh(&paths).unwrap();

        std::fs::write(dir.join("sub/new.c"), "int n;").unwrap();
        let (sources, pass) = index.refresh(&paths).unwrap();
        assert_eq!(names(&sources), ["a.c", "b.c", "new.c"]);
        assert_eq!(pass.read, 1);

        std::fs::remove_file(dir.join("a.c")).unwrap();
        let (sources, _) = index.refresh(&paths).unwrap();
        assert_eq!(names(&sources), ["b.c", "new.c"]);

        std::fs::rename(dir.join("b.c"), dir.join("z.c")).unwrap();
        let (sources, _) = index.refresh(&paths).unwrap();
        assert_eq!(names(&sources), ["new.c", "z.c"]);
        assert_eq!(&*sources[1].content, "b.c");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A touch re-reads the file but keeps the text (and so the hash and
    /// the allocation) it already had.
    #[test]
    fn touch_keeps_the_shared_text() {
        let dir = tempdir("touch");
        let file = dir.join("a.c");
        std::fs::write(&file, "int a;").unwrap();
        age(&file);
        let paths = [dir.display().to_string()];
        let mut index = SourceIndex::default();
        let (before, _) = index.refresh(&paths).unwrap();
        std::fs::File::options()
            .write(true)
            .open(&file)
            .unwrap()
            .set_modified(SystemTime::now())
            .unwrap();
        let (after, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass.read, 1);
        assert!(Arc::ptr_eq(&before[0].content, &after[0].content));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A file reached from overlapping roots (its directory, an ancestor,
    /// and the file itself) is listed once and statted and read once.
    #[test]
    fn overlapping_roots_list_and_stat_a_file_once() {
        let dir = tempdir("overlap");
        for name in ["a.c", "sub/c.c"] {
            std::fs::write(dir.join(name), name).unwrap();
            age(&dir.join(name));
        }
        let paths = [
            dir.display().to_string(),
            dir.join("sub/c.c").display().to_string(),
            dir.join("sub").display().to_string(),
        ];
        let mut index = SourceIndex::default();
        let (sources, pass) = index.refresh(&paths).unwrap();
        assert_eq!(names(&sources), ["a.c", "c.c"]);
        assert_eq!(
            pass,
            PassStats {
                statted: 2,
                read: 2,
                ..PassStats::default()
            }
        );
        let (sources, pass) = index.refresh(&paths).unwrap();
        assert_eq!(names(&sources), ["a.c", "c.c"]);
        assert_eq!(
            pass,
            PassStats {
                statted: 2,
                read: 0,
                ..PassStats::default()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Deleted and written again under the same name, at the same size
    /// and with the old mtime put back: the new file is still read.
    #[test]
    fn delete_and_recreate_is_reread() {
        let dir = tempdir("recreate");
        let file = dir.join("a.c");
        std::fs::write(&file, "int a;").unwrap();
        age(&file);
        let mtime = std::fs::metadata(&file).unwrap().modified().unwrap();
        let paths = [dir.display().to_string()];
        let mut index = SourceIndex::default();
        index.refresh(&paths).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        std::fs::remove_file(&file).unwrap();
        std::fs::write(&file, "int b;").unwrap();
        std::fs::File::options()
            .write(true)
            .open(&file)
            .unwrap()
            .set_modified(mtime)
            .unwrap();
        let (sources, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass.read, 1);
        assert_eq!(&*sources[0].content, "int b;");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A directory named like a source file, then replaced by one: its
    /// files leave the corpus and the new file joins it.
    #[test]
    fn directory_replaced_by_a_c_file_is_picked_up() {
        let dir = tempdir("dir-to-file");
        std::fs::write(dir.join("a.c"), "int a;").unwrap();
        std::fs::create_dir(dir.join("x.c")).unwrap();
        std::fs::write(dir.join("x.c/inner.c"), "int i;").unwrap();
        let paths = [dir.display().to_string()];
        let mut index = SourceIndex::default();
        let (sources, _) = index.refresh(&paths).unwrap();
        assert_eq!(names(&sources), ["a.c", "inner.c"]);
        std::fs::remove_dir_all(dir.join("x.c")).unwrap();
        std::fs::write(dir.join("x.c"), "int x;").unwrap();
        let (sources, pass) = index.refresh(&paths).unwrap();
        assert_eq!(names(&sources), ["a.c", "x.c"]);
        assert_eq!(&*sources[1].content, "int x;");
        assert_eq!(pass.statted, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journaled index over `dir` after its first, full pass, with every
    /// file under it aged.
    fn journaled(dir: &Path, names: &[&str]) -> (SourceIndex, [String; 1]) {
        for name in names {
            std::fs::write(dir.join(name), name).unwrap();
            age(&dir.join(name));
        }
        let paths = [dir.display().to_string()];
        let mut index = SourceIndex::default().journaled();
        let (_, pass) = index.refresh(&paths).unwrap();
        assert!(!pass.journal);
        assert_eq!(pass.fallback, None, "a first pass replaces no journal");
        (index, paths)
    }

    fn stats(statted: usize, read: usize, journal: bool) -> PassStats {
        PassStats {
            statted,
            read,
            journal,
            fallback: None,
        }
    }

    /// After the first pass, a pass stats only what events name, and a
    /// pass that drains nothing hands out the same corpus.
    #[test]
    fn journal_passes_stat_only_what_changed() {
        let dir = tempdir("journal");
        let (mut index, paths) = journaled(&dir, &["a.c", "b.c", "sub/c.c"]);
        // The usual editor save: write a temporary file, rename it over.
        std::fs::write(dir.join("sub/c.c.tmp"), "int c2;").unwrap();
        std::fs::rename(dir.join("sub/c.c.tmp"), dir.join("sub/c.c")).unwrap();
        std::fs::write(dir.join("notes.txt"), "not source").unwrap();
        let (first, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass, stats(1, 1, true));
        assert_eq!(&*first[2].content, "int c2;");
        let (second, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass, stats(0, 0, true));
        assert!(Arc::ptr_eq(&first, &second));
        // Create, delete and rename, each named by its events.
        std::fs::write(dir.join("sub/new.c"), "int n;").unwrap();
        std::fs::remove_file(dir.join("a.c")).unwrap();
        std::fs::rename(dir.join("b.c"), dir.join("z.c")).unwrap();
        let (sources, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass, stats(4, 2, true));
        assert_eq!(names(&sources), ["c.c", "new.c", "z.c"]);
        assert_eq!(sources.to_vec(), collect_sources(&paths).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Journal passes keep the digest current by its terms alone: a
    /// rename, an edit, an add, a delete and a swap of two files' texts
    /// each change it, undoing each restores it, and it always equals
    /// the digest computed afresh.
    #[test]
    fn journal_passes_keep_the_digest_current() {
        let dir = tempdir("journal-digest");
        let (mut index, paths) = journaled(&dir, &["a.c", "b.c", "sub/c.c"]);
        let base = index.digest();
        let write = |name: &str, text: &str| std::fs::write(dir.join(name), text).unwrap();
        let rename = |from: &str, to: &str| std::fs::rename(dir.join(from), dir.join(to)).unwrap();
        let remove = |name: &str| std::fs::remove_file(dir.join(name)).unwrap();
        type Step<'a> = Box<dyn Fn() + 'a>;
        let changes: [(&str, Step, Step); 5] = [
            (
                "rename",
                Box::new(|| rename("b.c", "z.c")),
                Box::new(|| rename("z.c", "b.c")),
            ),
            (
                "edit",
                Box::new(|| write("a.c", "int a2;")),
                Box::new(|| write("a.c", "a.c")),
            ),
            (
                "add",
                Box::new(|| write("sub/n.c", "int n;")),
                Box::new(|| remove("sub/n.c")),
            ),
            (
                "delete",
                Box::new(|| remove("sub/c.c")),
                Box::new(|| write("sub/c.c", "sub/c.c")),
            ),
            (
                "swap",
                Box::new(|| {
                    write("a.c", "b.c");
                    write("b.c", "a.c");
                }),
                Box::new(|| {
                    write("a.c", "a.c");
                    write("b.c", "b.c");
                }),
            ),
        ];
        for (what, change, undo) in &changes {
            for (step, changed) in [(change, true), (undo, false)] {
                step();
                let (sources, pass) = index.refresh(&paths).unwrap();
                assert!(pass.journal, "{what}: {pass:?}");
                assert_eq!(index.digest(), digest(&sources), "{what}");
                assert_eq!(index.digest() != base, changed, "{what}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// DESIGN.md §15's torn snapshot: between two passes an editor
    /// rewrites A and B in place at the same size, with the old mtimes
    /// put back. The next journal pass reads both, so two agreeing
    /// passes never pair an old A with a new B.
    #[test]
    fn in_place_writers_between_passes_are_both_seen() {
        let dir = tempdir("journal-torn");
        let (mut index, paths) = journaled(&dir, &["a.c", "b.c"]);
        let (before, _) = index.refresh(&paths).unwrap();
        for name in ["a.c", "b.c"] {
            let path = dir.join(name);
            let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
            let mut file = std::fs::File::options().write(true).open(&path).unwrap();
            std::io::Write::write_all(&mut file, name.to_uppercase().as_bytes()).unwrap();
            file.set_modified(mtime).unwrap();
        }
        let (after, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass, stats(2, 2, true));
        assert_ne!(before, after);
        let texts: Vec<&str> = after.iter().map(|f| &*f.content).collect();
        assert_eq!(texts, ["A.C", "B.C"]);
        let (_, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass, stats(0, 0, true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A queue overflow loses events: the pass walks the tree, picks up
    /// the edit, and arms a journal that serves the next pass.
    #[test]
    fn overflow_falls_back_to_a_full_pass() {
        let dir = tempdir("journal-overflow");
        let (mut index, paths) = journaled(&dir, &["a.c", "b.c"]);
        index.overflow_next = true;
        std::fs::write(dir.join("a.c"), "int a2;").unwrap();
        let (sources, pass) = index.refresh(&paths).unwrap();
        assert_eq!(
            pass,
            PassStats {
                fallback: Some("overflow"),
                ..stats(2, 1, false)
            }
        );
        assert_eq!(&*sources[0].content, "int a2;");
        let (_, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass, stats(0, 0, true));
        index.expire_journals = true;
        let (_, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass.fallback, Some("backstop"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A directory created or deleted is walked, not journaled; the walk
    /// watches the new directory, so its files are journaled afterwards.
    #[test]
    fn directory_create_and_delete_fall_back() {
        let dir = tempdir("journal-dirs");
        let (mut index, paths) = journaled(&dir, &["a.c"]);
        std::fs::create_dir(dir.join("new")).unwrap();
        std::fs::write(dir.join("new/x.c"), "int x;").unwrap();
        let (sources, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass.fallback, Some("directory"));
        assert_eq!(names(&sources), ["a.c", "x.c"]);
        std::fs::write(dir.join("new/x.c"), "int x2;").unwrap();
        let (sources, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass, stats(1, 1, true));
        assert_eq!(&*sources[1].content, "int x2;");
        std::fs::remove_dir_all(dir.join("new")).unwrap();
        let (sources, pass) = index.refresh(&paths).unwrap();
        assert!(!pass.journal);
        assert_eq!(names(&sources), ["a.c"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Trees whose changes need not reach the watches never use the
    /// journal: a symlink (to a file or a directory, met by the walk or
    /// created later), a file with a second link, a file root.
    #[test]
    fn links_and_file_roots_never_use_the_journal() {
        type Link = fn(&Path);
        let cases: [(&str, Link); 3] = [
            ("symlink", |dir| {
                std::os::unix::fs::symlink("a.c", dir.join("alias.c")).unwrap()
            }),
            ("symlink", |dir| {
                std::os::unix::fs::symlink("sub", dir.join("tree")).unwrap()
            }),
            ("hard link", |dir| {
                std::fs::hard_link(dir.join("a.c"), dir.join("sub/b.c")).unwrap()
            }),
        ];
        for (i, (reason, link)) in cases.into_iter().enumerate() {
            let dir = tempdir(&format!("journal-link-{i}"));
            std::fs::write(dir.join("a.c"), "int a;").unwrap();
            link(&dir);
            let paths = [dir.display().to_string()];
            let mut index = SourceIndex::default().journaled();
            for _ in 0..3 {
                let (_, pass) = index.refresh(&paths).unwrap();
                assert!(!pass.journal, "{reason}");
            }
            assert_eq!(index.refresh(&paths).unwrap().1.fallback, Some(reason));
            // A link made after the journal was armed: the same.
            let _ = std::fs::remove_dir_all(&dir);
            let (mut index, paths) = journaled(&tempdir(&format!("journal-late-{i}")), &["a.c"]);
            let dir = Path::new(&paths[0]);
            link(dir);
            assert_eq!(index.refresh(&paths).unwrap().1.fallback, Some(reason));
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = tempdir("journal-file-root");
        std::fs::write(dir.join("a.c"), "int a;").unwrap();
        let paths = [dir.join("a.c").display().to_string()];
        let mut index = SourceIndex::default().journaled();
        index.refresh(&paths).unwrap();
        let (_, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass.fallback, Some("file root"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A racily clean entry is read by the full pass only. A journal pass
    /// that no event for it reached leaves it be until the pass's start
    /// lies past the racy window; that pass takes its start as the
    /// entry's read time, unread.
    #[test]
    fn journal_passes_settle_racily_clean_entries_unread() {
        let dir = tempdir("journal-racy");
        let file = dir.join("a.c");
        std::fs::write(&file, "int a;").unwrap();
        let mtime = SystemTime::now() - Duration::from_millis(1500);
        std::fs::File::options()
            .write(true)
            .open(&file)
            .unwrap()
            .set_modified(mtime)
            .unwrap();
        let paths = [dir.display().to_string()];
        let mut index = SourceIndex::default().journaled();
        let (first, _) = index.refresh(&paths).unwrap();
        let read = first[0].slot.unwrap();
        assert!(read.racily_clean());
        let (second, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass, stats(0, 0, true));
        assert!(Arc::ptr_eq(&first, &second), "nothing settled yet");
        drop((first, second));
        std::thread::sleep(Duration::from_millis(600));
        let (settled, pass) = index.refresh(&paths).unwrap();
        assert_eq!(pass, stats(0, 0, true));
        let slot = settled[0].slot.unwrap();
        assert_eq!(slot.stamp, read.stamp);
        assert!(slot.read_at_ns > read.read_at_ns && !slot.racily_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pass reads and hashes on every core, then merges in traversal
    /// order. Over more files than the pool has threads × 50, in nested
    /// directories, a seeded index's second pass gives the names, hashes,
    /// slots, digest, racy list and counts of a reference built one file
    /// at a time: new files and seeded files whose stamp changed or that
    /// are racily clean are read, and the other seeded files are not.
    #[test]
    fn parallel_reads_match_a_file_by_file_reference() {
        let dir = tempdir("fan-out");
        let n = crate::pool::threads() * 50 + 7;
        let path_of = |i: usize| dir.join(format!("d{}/e{}/f{i}.c", i % 5, i % 3));
        for i in 0..n {
            let path = path_of(i);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, format!("int f{i};")).unwrap();
            // Kind 3 stays racily clean: written just now.
            if i % 4 != 3 {
                age(&path);
            }
        }
        let paths = [dir.display().to_string()];
        let (first, _) = SourceIndex::default().refresh(&paths).unwrap();
        // Kind 0 is new: the seeds leave it out.
        let kind = |name: &str| {
            let i = name.rsplit("/f").next().unwrap().trim_end_matches(".c");
            i.parse::<usize>().unwrap() % 4
        };
        let mut index = SourceIndex::seeded(
            (first.iter().filter(|f| kind(&f.name) != 0))
                .map(|f| (f.name.as_str(), f.hash(), f.slot.unwrap())),
        );
        for i in (0..n).filter(|i| i % 4 == 2) {
            std::fs::write(path_of(i), format!("int f{i}; int changed;")).unwrap();
            age(&path_of(i));
        }
        let before = wall_clock_ns();
        let (corpus, pass) = index.refresh(&paths).unwrap();
        let after = wall_clock_ns();
        // The reference, one file at a time, in name order.
        let read_at = corpus
            .iter()
            .filter_map(|f| f.text().and(f.slot))
            .map(|s| s.read_at_ns);
        let read_at: HashSet<i64> = read_at.collect();
        assert_eq!(read_at.len(), 1, "one pass, one read time");
        let pass_ns = *read_at.iter().next().unwrap();
        assert!((before..=after).contains(&pass_ns));
        let mut want: Vec<(String, u64, Slot)> = Vec::new();
        let (mut read, mut racy) = (0, Vec::new());
        for i in 0..n {
            let name = path_of(i).display().to_string();
            let text = std::fs::read_to_string(&name).unwrap();
            let stamp = Stamp::of(&std::fs::metadata(&name).unwrap());
            let slot = match (i % 4, first.iter().find(|f| f.name == name)) {
                (1, Some(seed)) => seed.slot.unwrap(),
                _ => {
                    read += 1;
                    let slot = Slot {
                        stamp,
                        read_at_ns: pass_ns,
                    };
                    if slot.racily_clean() {
                        racy.push(name.clone());
                    }
                    slot
                }
            };
            want.push((name, crate::cache::content_hash(text.as_bytes()), slot));
        }
        want.sort_by(|a, b| a.0.cmp(&b.0));
        let got: Vec<(String, u64, Slot)> = (corpus.iter())
            .map(|f| (f.name.clone(), f.hash(), f.slot.unwrap()))
            .collect();
        assert_eq!(got, want);
        assert_eq!(
            pass,
            PassStats {
                statted: n,
                read,
                ..PassStats::default()
            }
        );
        assert_eq!(index.digest(), digest(&corpus));
        let reference: Vec<SourceFile> = (want.iter())
            .map(|(name, ..)| {
                SourceFile::new(name.as_str(), std::fs::read_to_string(name).unwrap())
            })
            .collect();
        assert_eq!(index.digest(), digest(&reference));
        let mut got_racy = index.racy.clone();
        got_racy.sort();
        racy.sort();
        assert_eq!((got_racy.len(), got_racy), (n / 4, racy));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pass that meets two unreadable files fails with the error the
    /// first of them in traversal order (depth first, in `readdir`
    /// order) gives, however the reads were spread over the workers; so
    /// does every pass after it.
    #[test]
    fn the_first_unreadable_file_in_traversal_order_fails_every_pass() {
        let dir = tempdir("non-utf8");
        std::fs::create_dir_all(dir.join("sub/deep")).unwrap();
        for i in 0..crate::pool::threads() * 8 {
            let name = ["a", "sub/b", "sub/deep/c"][i % 3];
            std::fs::write(dir.join(format!("{name}{i}.c")), "int x;").unwrap();
        }
        let bad = [dir.join("sub/deep/bad.c"), dir.join("sub/bad.c")];
        for path in &bad {
            std::fs::write(path, b"int x; /* caf\xe9 */\n").unwrap();
        }
        fn traversal(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    traversal(&path, out);
                } else {
                    out.push(path);
                }
            }
        }
        let mut order = Vec::new();
        traversal(&dir, &mut order);
        let first = order.iter().find(|p| bad.contains(p)).unwrap();
        let e = std::fs::read_to_string(first).unwrap_err();
        let want = format!("{}: {e}", first.display());
        let paths = [dir.display().to_string()];
        for mut index in [SourceIndex::default(), SourceIndex::default().journaled()] {
            for _ in 0..3 {
                assert_eq!(index.refresh(&paths).unwrap_err(), want);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
