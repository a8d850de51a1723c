//! Placeholder for the worker pool that `oasys serve` once ran on.
//!
//! The crate holds no items. `oasys serve` answers requests on handler
//! threads of its own (see `oasys::serve`), and nothing else used the
//! pool. The crate is kept only because the benchmark's lockfile
//! (`benchmark/Cargo.lock`) records it; it is deleted together with the
//! `oasys-pool` dependency lines in the next change to `benchmark/`.
