//! Offline stand-in for `serde`.
//!
//! The build container cannot reach crates.io. The workspace only ever
//! *derives* `Serialize`/`Deserialize` (no runtime serde serialization —
//! result files are written through `simcore::emit`), so this shim
//! keeps every `#[derive(Serialize, Deserialize)]` and
//! `use serde::{Serialize, Deserialize}` in the tree compiling without the
//! real crate: the traits are empty markers blanket-implemented for all
//! types, and the derives (re-exported from the `serde_derive` shim)
//! expand to nothing.

#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::Serialize`; implemented by every type.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker stand-in for `serde::Deserialize`; implemented by every type.
pub trait Deserialize {}
impl<T: ?Sized> Deserialize for T {}
