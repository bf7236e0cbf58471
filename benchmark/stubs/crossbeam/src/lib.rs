//! Offline stand-in for `crossbeam`: the one API the workspace uses
//! (`channel::unbounded`) over `std::sync::mpsc`.
pub mod channel {
    pub use std::sync::mpsc::{RecvTimeoutError, SendError, TryRecvError};
    pub type Sender<T> = std::sync::mpsc::Sender<T>;
    pub type Receiver<T> = std::sync::mpsc::Receiver<T>;
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}
