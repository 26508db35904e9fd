//! # metadb — transactional in-memory table store (Mnesia substitute)
//!
//! The paper implements the COFS metadata service on the Mnesia
//! database from Erlang/OTP: "metadata is maintained as a small set of
//! database tables having the information about files and directories,
//! and pure metadata operations are translated to the appropriate
//! database queries." Mnesia is unavailable here, so this crate
//! provides the equivalent capability in Rust:
//!
//! - [`table::Table`] — typed, ordered record tables with
//!   closure-scoped transactions and automatic rollback (Mnesia's
//!   `transaction/1`);
//! - [`cost::DbCostModel`] — virtual-time service demands mirroring
//!   Mnesia disc-copies (memory reads, log-append writes, periodic
//!   fsync to the locally attached ext3 disk).
//!
//! The COFS metadata service (`cofs::mds`) keeps its directory
//! entries in a [`table::Table`] (its inode rows sit in a dense store
//! indexed by inode number) and charges costs through a queueing
//! resource so the service's CPU is a proper bottleneck at scale.
//!
//! # Examples
//!
//! ```
//! use metadb::table::{Record, Table};
//!
//! #[derive(Clone, Debug)]
//! struct Dentry { parent: u64, name: String, ino: u64 }
//! impl Record for Dentry {
//!     type Key = (u64, String);
//!     fn key(&self) -> (u64, String) { (self.parent, self.name.clone()) }
//! }
//!
//! let mut dentries = Table::new("dentries");
//! dentries.insert(Dentry { parent: 1, name: "out.dat".into(), ino: 7 })?;
//! let hits: Vec<_> = dentries
//!     .scan((1, String::new())..(2, String::new()))
//!     .collect();
//! assert_eq!(hits.len(), 1);
//! # Ok::<(), metadb::error::DbError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod error;
pub mod table;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::cost::{DbCostModel, DbCostTracker};
    pub use crate::error::{DbError, DbErrorKind};
    pub use crate::table::{Record, Table, TxnView};
}
