//! Benchmark/report harness for the OFence reproduction.
#![deny(unsafe_code)]

pub mod harness;
