//! `ofence` — the command-line front end.
//!
//! The subcommands and options are documented once, in `args::USAGE`:
//! `ofence help` (or any usage error) prints it. Paths may be files or
//! directories (searched recursively for `*.c`).
#![deny(unsafe_code)]

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
