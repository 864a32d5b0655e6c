//! Offline stand-in for `serde_derive`.
//!
//! The build container cannot reach crates.io, and nothing in this
//! workspace performs real serde serialization at runtime (result files
//! are written through `simcore::emit`).
//! These derives therefore accept the usual syntax — including
//! `#[serde(...)]` helper attributes — and expand to nothing; the marker
//! traits in the sibling `serde` shim are blanket-implemented for all
//! types.

use proc_macro::TokenStream;

/// No-op `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
