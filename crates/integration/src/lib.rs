//! Host crate for the workspace-level integration tests in the
//! repository-root `tests/` directory (see `Cargo.toml`'s `[[test]]`
//! entries). Intentionally empty: the tests span all workspace crates.
#![deny(unsafe_code)]
