//! Declared by workspace crates but never imported; an empty stand-in resolves it offline.
