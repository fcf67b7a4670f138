// fixture: crate=tps-core path=crates/tps-core/src/fixture.rs

/// Does the documented thing.
pub fn documented() {}

/// A documented container.
#[derive(Clone)]
pub struct Container {
    /// The documented payload.
    pub field: u64,
}

/// An upper bound with a story.
pub const LIMIT: u64 = 7;

// Crate-internal items need no docs.
pub(crate) fn internal() {}

/// Out-of-line modules carry their docs as `//!` inner docs.
pub mod with_outer_doc;
pub mod documented_in_file;

// A struct declared through the counter table keeps its doc comment.
tps_core::counter_table! {
    /// Documented counters.
    #[derive(Clone, Copy, Default)]
    pub struct Counters {
        /// Hits.
        pub hits: u64,
    }
}
