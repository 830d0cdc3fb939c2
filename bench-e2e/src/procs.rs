//! Child processes: one-shot `ofence analyze` runs and `ofence serve`
//! daemons, each owned by a value whose `Drop` kills and reaps it, so a
//! panicking workload never leaves a process behind. Anything stuck for
//! [`STUCK`] is killed and counted as an error instead of hanging.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long one operation may take before it counts as stuck.
pub const STUCK: Duration = Duration::from_secs(60);

/// The release `ofence` binary built into the same directory as this
/// bench.
pub fn ofence_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running bench");
    exe.with_file_name("ofence")
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the e2e bench reads ru_maxrss through the 64-bit Linux wait4 ABI");

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reap `pid`, returning its raw wait status and peak RSS in KiB.
fn reap(pid: u32) -> std::io::Result<(i32, i64)> {
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the 64-bit Linux `int` and `struct rusage` wait4 fills in.
        let rc = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
        if rc == pid as i32 {
            return Ok((status, usage.maxrss));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One finished `ofence` CLI process.
pub struct CliRun {
    pub stdout: Vec<u8>,
    /// Exit code; `None` when killed (stuck) or ended by a signal.
    pub code: Option<i32>,
    pub latency: Duration,
    /// Spawn to first stdout byte, and first byte to end of stream.
    pub ttfb: Duration,
    pub transfer: Duration,
    pub peak_rss_kb: i64,
    pub stuck: bool,
}

/// Kills and reaps a child still running when dropped (panic path).
struct Reaped {
    child: Arc<Mutex<Child>>,
    done: bool,
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if !self.done {
            let mut child = self.child.lock().unwrap_or_else(|e| e.into_inner());
            let _ = child.kill();
            let _ = reap(child.id());
        }
    }
}

/// Run `ofence <args>` to completion, timing it from spawn to reaping.
pub fn run_cli(args: &[&str]) -> std::io::Result<CliRun> {
    let t0 = Instant::now();
    let mut child = Command::new(ofence_bin())
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let pid = child.id();
    let mut guard = Reaped {
        child: Arc::new(Mutex::new(child)),
        done: false,
    };
    let (stop, stopped) = mpsc::channel::<()>();
    let watched = guard.child.clone();
    let watchdog = std::thread::spawn(move || match stopped.recv_timeout(STUCK) {
        Err(RecvTimeoutError::Timeout) => {
            let _ = watched.lock().unwrap_or_else(|e| e.into_inner()).kill();
            true
        }
        _ => false,
    });
    let mut out = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    let mut first = None;
    loop {
        let n = stdout.read(&mut buf)?;
        if n == 0 {
            break;
        }
        first.get_or_insert_with(Instant::now);
        out.extend_from_slice(&buf[..n]);
    }
    let eof = Instant::now();
    let (status, maxrss) = reap(pid)?;
    let latency = t0.elapsed();
    guard.done = true;
    let _ = stop.send(());
    let stuck = watchdog.join().unwrap_or(true);
    let first = first.unwrap_or(eof);
    // WIFEXITED / WEXITSTATUS of the raw status.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(CliRun {
        stdout: out,
        code: if stuck { None } else { code },
        latency,
        ttfb: first - t0,
        transfer: eof - first,
        peak_rss_kb: maxrss,
        stuck,
    })
}

/// A running `ofence serve` child. Dropping it kills and reaps the
/// process; [`Daemon::shutdown`] stops it politely first.
pub struct Daemon {
    child: Child,
    pub addr: String,
    /// Drains stdout until the daemon exits, so it never blocks on a
    /// full pipe; joined once the process is gone.
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawn `ofence serve <corpus>` on an OS-picked port and wait until
    /// it prints its address.
    pub fn spawn(corpus: &str, cache: &Path, history: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(ofence_bin())
            .args(["serve", corpus, "--addr", "127.0.0.1:0", "--cache-dir"])
            .arg(cache)
            .arg("--history-dir")
            .arg(history)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn ofence serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        let deadline = Instant::now() + STUCK;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("serve: listening on ") {
                        daemon.addr = addr.trim().to_string();
                        return Ok(daemon);
                    }
                }
                Err(_) => return Err("ofence serve never printed its address".into()),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Ask the daemon to stop and wait for it; kill it if it does not
    /// exit within [`STUCK`].
    pub fn shutdown(mut self) {
        if let Ok(mut client) = crate::client::Client::connect(&self.addr) {
            let _ = client.call(&serde_json::json!({"id": 0, "method": "shutdown"}));
        }
        let deadline = Instant::now() + STUCK;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}
