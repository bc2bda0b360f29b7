//! No-op stand-ins for serde's derive macros. The only derive in the
//! benchmarked program is on `datagen::WorldConfig`, and only a unit test
//! (not built here) serialises it.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
