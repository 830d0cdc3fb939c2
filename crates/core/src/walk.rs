//! Input collection: expand files and directories into [`SourceFile`]s.
//!
//! The walker lives in `core` because the CLI, `ofence watch` and the
//! analysis daemon all collect the corpus the same way. The daemon and
//! `watch` do it again on every request or poll, so the walk is
//! **stat-first**: a [`SourceIndex`] remembers each file's stamp
//! `(dev, ino, size, mtime, ctime)` and its text, and a pass costs a
//! readdir plus one `stat` per file. Only new files, files whose stamp
//! changed, and *racily clean* entries are read and hashed.
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
//! could leave the stamp unchanged (git's rule for its index). Such
//! entries are re-read on every pass until a read happens well after
//! their mtime.
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

use crate::engine::SourceFile;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ffi::OsStr;
use std::fs::Metadata;
use std::os::unix::ffi::OsStrExt;
use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::sync::Arc;

/// How close an entry's mtime may come to the time it was read before
/// the entry is re-read on every pass (2 s: the coarsest common
/// timestamp granularity, FAT's).
const RACY_WINDOW_NS: i64 = 2_000_000_000;

/// Load every `.c` file reachable from the given paths, sorted by path
/// for deterministic output: one pass of a fresh [`SourceIndex`], which
/// reads every file.
pub fn collect_sources(paths: &[String]) -> Result<Vec<SourceFile>, String> {
    let files = SourceIndex::default().refresh(paths)?.0;
    // The index is gone, so this is the only reference.
    Ok(Arc::try_unwrap(files).unwrap_or_else(|files| (*files).clone()))
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
    fn racily_clean(&self) -> bool {
        self.stamp.mtime_ns > self.read_at_ns.saturating_sub(RACY_WINDOW_NS)
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
    /// `.c` files found and statted.
    pub statted: usize,
    /// Files read and hashed: new, changed, or racily clean.
    pub read: usize,
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
    files: Arc<Vec<SourceFile>>,
    /// The last pass that found each entry of `files`, in the same order.
    seen: Vec<u64>,
    /// Position in `files` by [`name_hash`]: a lookup costs one probe
    /// and one name comparison, where a binary search over 12k names
    /// costs a dozen cache misses.
    by_hash: HashMap<u64, usize>,
    /// Number of the current (or last) pass.
    pass: u64,
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
            files: Arc::new(files),
            pass: 0,
        }
    }

    /// Walk `paths` and return the corpus as it is now, sorted by path,
    /// reading only the files whose stamp says they may have changed.
    pub fn refresh(
        &mut self,
        paths: &[String],
    ) -> Result<(Arc<Vec<SourceFile>>, PassStats), String> {
        self.pass += 1;
        let mut walk = Walk {
            index: self,
            pass_ns: wall_clock_ns(),
            fresh: BTreeMap::new(),
            visited: HashSet::new(),
            stats: PassStats::default(),
        };
        for p in paths {
            let path = Path::new(p);
            let missing = || format!("{p}: no such file or directory");
            let meta = std::fs::metadata(path).map_err(|_| missing())?;
            if meta.is_dir() {
                let mut buf = p.as_bytes().to_vec();
                walk.dir(&mut buf, &meta)?;
            } else if meta.is_file() {
                walk.file(p, path, || Ok(meta))?;
            } else {
                return Err(missing());
            }
        }
        let Walk { fresh, stats, .. } = walk;
        self.retire_and_merge(fresh);
        if self.files.is_empty() {
            return Err("no .c files found under the given paths".into());
        }
        Ok((self.files.clone(), stats))
    }

    /// Drop the files this pass did not find and add the ones it found
    /// for the first time, keeping `files` sorted. A pass in which no
    /// name came or went leaves the list (and its order) alone.
    fn retire_and_merge(&mut self, fresh: BTreeMap<String, SourceFile>) {
        let pass = self.pass;
        if fresh.is_empty() && self.seen.iter().all(|&seen| seen == pass) {
            return;
        }
        let files = std::mem::take(Arc::make_mut(&mut self.files));
        let mut merged: Vec<SourceFile> = (files.into_iter())
            .zip(std::mem::take(&mut self.seen))
            .filter_map(|(file, seen)| (seen == pass).then_some(file))
            .chain(fresh.into_values())
            .collect();
        merged.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        self.by_hash = by_hash(&merged);
        self.seen = vec![pass; merged.len()];
        self.files = Arc::new(merged);
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

/// One [`SourceIndex::refresh`] pass in progress.
struct Walk<'a> {
    index: &'a mut SourceIndex,
    pass_ns: i64,
    /// Files found for the first time, by name.
    fresh: BTreeMap<String, SourceFile>,
    /// Directories by (dev, ino): a symlink cycle is entered once.
    visited: HashSet<(u64, u64)>,
    stats: PassStats,
}

impl Walk<'_> {
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
            None => self.fresh.contains_key(name),
        };
        if visited {
            return Ok(());
        }
        let meta = stat().map_err(|e| format!("{}: {e}", path.display()))?;
        let stamp = Stamp::of(&meta);
        self.stats.statted += 1;
        let slot = Some(Slot {
            stamp,
            read_at_ns: self.pass_ns,
        });
        let Some(i) = known else {
            self.stats.read += 1;
            let mut file = SourceFile::new(name, read(path)?);
            file.slot = slot;
            self.fresh.insert(name.to_string(), file);
            return Ok(());
        };
        index.seen[i] = index.pass;
        if let Some(old) = index.files[i].slot {
            if old.stamp == stamp && !old.racily_clean() {
                return Ok(());
            }
        }
        self.stats.read += 1;
        let content = read(path)?;
        let file = &mut Arc::make_mut(&mut index.files)[i];
        // Unchanged bytes keep the file as it was: the text the engine
        // already shares, or no text for a seeded file. So a `touch`
        // costs no memory.
        if !file.holds(&content) {
            *file = SourceFile::new(std::mem::take(&mut file.name), content);
        }
        file.slot = slot;
        Ok(())
    }

    /// Visit the `.c` files under the directory whose path is in `buf`
    /// (and whose metadata is `meta`). `readdir`'s file type answers
    /// "directory?" for free; only symlinks need a `stat` to see what
    /// they point at. Each entry's path is built by appending to `buf`
    /// and truncating back.
    fn dir(&mut self, buf: &mut Vec<u8>, meta: &Metadata) -> Result<(), String> {
        if !self.visited.insert((meta.dev(), meta.ino())) {
            return Ok(());
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
        let is_c = path.extension().and_then(OsStr::to_str) == Some("c");
        let meta = if kind.is_symlink() {
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

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// `file` with its text, read now: for a file a snapshot took without
/// reading it. The text must hash as the snapshot says, or the file
/// changed after the snapshot and this is an error.
pub(crate) fn read_text(file: &SourceFile) -> Result<SourceFile, String> {
    let content = read(Path::new(&file.name))?;
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
                read: 3
            }
        );
        let (second, pass) = index.refresh(&paths).unwrap();
        assert_eq!(
            pass,
            PassStats {
                statted: 3,
                read: 0
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
                read: 0
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
                read: 1
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
                read: 2
            }
        );
        let (sources, pass) = index.refresh(&paths).unwrap();
        assert_eq!(names(&sources), ["a.c", "c.c"]);
        assert_eq!(
            pass,
            PassStats {
                statted: 2,
                read: 0
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
}
