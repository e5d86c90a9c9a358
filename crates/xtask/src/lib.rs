//! Library surface of the xtask crate: the lint framework.
//!
//! The `cargo xtask` binary is a thin CLI over this library.

pub mod lint;
pub mod specdoc;
