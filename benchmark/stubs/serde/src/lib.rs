//! Offline stand-in for `serde`: the workspace only derives the traits
//! (nothing on the benchmark's path serialises through them), so the
//! derives expand to nothing.
pub use serde_derive::{Deserialize, Serialize};
