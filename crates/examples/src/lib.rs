//! Host crate for the runnable examples in the repository-root
//! `examples/` directory (see `Cargo.toml`'s `[[example]]` entries).
//! Intentionally empty: the examples exercise the public APIs of
//! `ofence`, `ofence-corpus`, and `ofence-bench`'s harness.
#![deny(unsafe_code)]
