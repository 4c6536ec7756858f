//! The *state* module of the model (Fig. 5): directory structure and file
//! contents, expressed over abstract references rather than blocks or inodes,
//! plus the copy-on-write map ([`CowMap`]) the OS layer keeps its descriptor
//! tables in.

pub mod cow_map;
mod dir_heap;
mod meta;

pub use cow_map::{ChunkKey, CowMap};
pub use dir_heap::{DirHeap, DirRef, Entry, FileContent, FileRef};
pub use meta::{Meta, Timestamps};
