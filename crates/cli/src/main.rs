//! `ofence` — the command-line front end.
//!
//! ```text
//! ofence analyze  <paths...> [options]   findings + pairings summary
//! ofence patch    <paths...> [options]   print unified-diff patches
//!                            --apply     write the fixes back to disk
//! ofence annotate <paths...> [options]   READ_ONCE/WRITE_ONCE patches (§7)
//! ofence stats    <paths...> [options]   corpus statistics only
//! ofence explain  <file:line> <paths...> replay one pairing decision
//! ofence watch    <paths...> [options]   re-analyze on change, print the
//!                                        finding delta (+ new, - fixed)
//! ofence serve    <paths...> [options]   analysis daemon: JSON-RPC over
//!                                        TCP, shared warm cache, identical
//!                                        in-flight requests coalesced
//! ofence call     <host:port> <method>   one-shot daemon client; prints
//!                            [--params J] the result document
//! ofence diff     <old> <new> [options]  classify findings new/fixed/
//!                                        unchanged by stable fingerprint
//!                                        (run ids or --json reports)
//! ofence diff     --baseline FILE <paths...>
//!                                        current run vs a baseline
//! ofence baseline write <paths...> [--out FILE]
//!                                        snapshot current findings
//! ofence perf     [--gate] [options]     perf-ledger trend table, or a
//!                                        CI regression gate
//! ofence gen      --out DIR [--files N] [--seed S] [--bugs]
//!                                        emit a synthetic demo corpus
//!
//! options:
//!   --json                 machine-readable output
//!   --trace-out FILE       Chrome-tracing JSON trace of the run
//!   --metrics-out FILE     Prometheus text-format metrics of the run
//!   --events-out FILE      stream NDJSON span/counter events live
//!                          (`-` for stdout)
//!   --slow-files N         list the top N slowest files (default 5)
//!   --sarif-out FILE       SARIF 2.1.0 export with partialFingerprints
//!   --baseline FILE        compare findings against this baseline
//!   --fail-on POLICY       exit non-zero on: new | any | none
//!   --history-dir DIR      run-ledger directory (default .ofence/)
//!   --no-history           skip the run ledger
//!   --cache-dir DIR        persist the per-file analysis cache here
//!                          (default .ofence-cache/)
//!   --no-cache             skip the on-disk cache entirely
//!   --write-window N       statements explored around write barriers (5)
//!   --read-window N        statements explored around read barriers (50)
//!   --no-ipc               disable implicit wake-up barrier detection
//!   --no-expand            disable callee/caller expansion
//!   --interval-ms N        watch: poll period (500)
//!   --max-iterations N     watch: exit after N analysis runs
//!   --serve-metrics ADDR   watch: live /metrics + /health endpoint
//!   --addr HOST:PORT       serve: listen address (default 127.0.0.1:0)
//!   --metrics HOST:PORT    serve: live /metrics + /health endpoint
//!   --ledger FILE          perf: explicit ledger file
//!   --last N               perf: records shown in the trend (10)
//!   --max-regress-pct P    perf: gate threshold in percent (10)
//! ```
//!
//! Paths may be files or directories (searched recursively for `*.c`).

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("ofence: {e}");
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("ofence: {e}");
            eprintln!("{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}
