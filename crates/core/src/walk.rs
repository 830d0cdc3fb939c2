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
//! An entry is racily clean when its mtime is less than
//! [`RACY_WINDOW_NS`] older than the pass that read it: on a file system
//! with coarse timestamps, a write landing in the same tick as that read
//! could leave the stamp unchanged (git's rule for its index). Such
//! entries are re-read on every pass until a read happens well after
//! their mtime.

use crate::engine::SourceFile;
use std::collections::{HashMap, HashSet};
use std::fs::Metadata;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

/// How close an entry's mtime may come to the time it was read before
/// the entry is re-read on every pass (2 s: the coarsest common
/// timestamp granularity, FAT's).
const RACY_WINDOW_NS: i128 = 2_000_000_000;

/// Load every `.c` file reachable from the given paths, sorted by path
/// for deterministic output: one pass of a fresh [`SourceIndex`], which
/// reads every file.
pub fn collect_sources(paths: &[String]) -> Result<Vec<SourceFile>, String> {
    Ok(SourceIndex::default().refresh(paths)?.0)
}

/// What identifies one version of a file without reading it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Stamp {
    dev: u64,
    ino: u64,
    size: u64,
    mtime_ns: i128,
    ctime_ns: i128,
}

impl Stamp {
    fn of(meta: &Metadata) -> Stamp {
        let ns = |secs: i64, nsec: i64| i128::from(secs) * 1_000_000_000 + i128::from(nsec);
        Stamp {
            dev: meta.dev(),
            ino: meta.ino(),
            size: meta.size(),
            mtime_ns: ns(meta.mtime(), meta.mtime_nsec()),
            ctime_ns: ns(meta.ctime(), meta.ctime_nsec()),
        }
    }
}

struct Entry {
    stamp: Stamp,
    file: SourceFile,
    /// Wall clock (ns since the epoch) at the start of the pass that
    /// read `file`.
    read_at_ns: i128,
}

impl Entry {
    fn racily_clean(&self) -> bool {
        self.stamp.mtime_ns > self.read_at_ns - RACY_WINDOW_NS
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

/// Path -> stamp and text of every file the last pass found. The texts
/// are the same `Arc<str>`s the engine's cached analyses hold, never a
/// second copy.
#[derive(Default)]
pub struct SourceIndex {
    entries: HashMap<String, Entry>,
}

impl SourceIndex {
    /// Walk `paths` and return the corpus as it is now, sorted by path,
    /// reading only the files whose stamp says they may have changed.
    pub fn refresh(&mut self, paths: &[String]) -> Result<(Vec<SourceFile>, PassStats), String> {
        let pass_ns = wall_clock_ns();
        let mut found: Vec<(String, PathBuf, Metadata)> = Vec::new();
        // Directories by (dev, ino): a symlink cycle is entered once.
        let mut visited: HashSet<(u64, u64)> = HashSet::new();
        for p in paths {
            let path = Path::new(p);
            let missing = || format!("{p}: no such file or directory");
            let meta = std::fs::metadata(path).map_err(|_| missing())?;
            if meta.is_dir() {
                walk_dir(path, &meta, &mut visited, &mut found)?;
            } else if meta.is_file() {
                found.push((p.clone(), path.to_path_buf(), meta));
            } else {
                return Err(missing());
            }
        }
        found.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        found.dedup_by(|a, b| a.0 == b.0);
        if found.is_empty() {
            return Err("no .c files found under the given paths".into());
        }
        let mut stats = PassStats {
            statted: found.len(),
            read: 0,
        };
        let mut entries = HashMap::with_capacity(found.len());
        let mut sources = Vec::with_capacity(found.len());
        for (name, path, meta) in found {
            let stamp = Stamp::of(&meta);
            let entry = match self.entries.remove(&name) {
                Some(old) if old.stamp == stamp && !old.racily_clean() => old,
                old => {
                    let content = std::fs::read_to_string(&path)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    stats.read += 1;
                    let fresh = SourceFile::new(name.clone(), content);
                    // Unchanged bytes keep the text the engine already
                    // shares, so a `touch` costs no memory.
                    let file = match old {
                        Some(old) if old.file.content == fresh.content => old.file,
                        _ => fresh,
                    };
                    Entry {
                        stamp,
                        file,
                        read_at_ns: pass_ns,
                    }
                }
            };
            sources.push(entry.file.clone());
            entries.insert(name, entry);
        }
        self.entries = entries;
        Ok((sources, stats))
    }
}

fn wall_clock_ns() -> i128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as i128)
        .unwrap_or(0)
}

fn is_c(path: &Path) -> bool {
    path.extension().and_then(|s| s.to_str()) == Some("c")
}

/// Collect the `.c` files under `dir` (whose metadata is `meta`) with
/// their metadata, unsorted. `readdir`'s file type answers "directory?"
/// for free; only symlinks need a `stat` to see what they point at.
fn walk_dir(
    dir: &Path,
    meta: &Metadata,
    visited: &mut HashSet<(u64, u64)>,
    out: &mut Vec<(String, PathBuf, Metadata)>,
) -> Result<(), String> {
    if !visited.insert((meta.dev(), meta.ino())) {
        return Ok(());
    }
    let dir_err = |e: std::io::Error| format!("{}: {e}", dir.display());
    for entry in std::fs::read_dir(dir).map_err(dir_err)? {
        let entry = entry.map_err(dir_err)?;
        let kind = entry.file_type().map_err(dir_err)?;
        let path = entry.path();
        let meta = if kind.is_symlink() {
            match std::fs::metadata(&path) {
                Ok(meta) => meta,
                // A dangling link is skipped unless it claims to be source.
                Err(e) if is_c(&path) => return Err(format!("{}: {e}", path.display())),
                Err(_) => continue,
            }
        } else if kind.is_dir() || is_c(&path) {
            entry
                .metadata()
                .map_err(|e| format!("{}: {e}", path.display()))?
        } else {
            continue;
        };
        if meta.is_dir() {
            walk_dir(&path, &meta, visited, out)?;
        } else if meta.is_file() && is_c(&path) {
            out.push((path.display().to_string(), path, meta));
        }
    }
    Ok(())
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
            .zip(&second)
            .all(|(a, b)| Arc::ptr_eq(&a.content, &b.content)));
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
}
