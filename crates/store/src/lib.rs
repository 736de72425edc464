#![warn(missing_docs)]

//! Storage substrate: chunked on-disk tensor stores with IO accounting and a
//! page-cache model.
//!
//! The paper's Materializer writes intermediate layer outputs to files and
//! leans on the OS page cache for repeated epoch reads (§3). This crate
//! provides:
//!
//! * [`io`] — shared byte/operation counters ([`io::IoStats`]) threaded
//!   through every store, the source of the Fig 11 disk-traffic numbers.
//! * [`pagecache`] — an LRU page-cache *cost model* used by the simulated
//!   backend: first reads charge disk throughput, cached re-reads charge
//!   DRAM throughput. The real backend reads actual files and lets the real
//!   OS cache do its thing.
//! * [`tensor_store`] — an append-only, chunked store of per-record tensors
//!   keyed by layer, supporting incremental materialization (one chunk per
//!   labeling cycle, §4.2.3) and full scans in record order. Scans fan
//!   chunk read and decode over the shared thread pool and account the
//!   bytes on the calling thread in append order, so results and counters
//!   do not depend on the pool width. Repeated epoch reads are left to the
//!   OS page cache, as in the paper.
//! * [`budget`] — disk budget bookkeeping for `Bdisk` enforcement.
//! * [`calibrate`] — a startup micro-probe measuring the machine's actual
//!   I/O bandwidths, blended with the observed page-cache hit curve to
//!   replace the planner's static disk constant.

pub mod budget;
pub mod calibrate;
pub mod io;
pub mod pagecache;
pub mod tensor_store;

pub use budget::DiskBudget;
pub use calibrate::IoCalibration;
pub use io::{IoStats, SharedIoStats};
pub use pagecache::{CacheStats, PageCacheModel};
pub use tensor_store::{ChunkRef, StoreError, TensorStore};
