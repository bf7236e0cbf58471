//! No-op `Serialize` / `Deserialize` derives for the offline `serde` stand-in.
use proc_macro::TokenStream;

#[proc_macro_derive(Serialize)]
pub fn ser(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize)]
pub fn de(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
