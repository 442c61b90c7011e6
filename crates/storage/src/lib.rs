//! # olap-storage
//!
//! The storage substrate standing in for the Oracle 11g star-schema database
//! used by the paper's prototype (Section 6). It provides:
//!
//! * dictionary-encoded, typed, columnar [`Table`]s (fact and dimension
//!   tables of a star schema);
//! * a [`HashIndex`] over key columns — the equivalent of the B-tree
//!   indexes the paper creates on primary and foreign keys;
//! * [`MaterializedAggregate`] views with roll-up view matching — the
//!   equivalent of the materialized views the paper creates "to improve
//!   performances";
//! * a [`CubeBinding`] that ties a fact table's foreign keys and measures to
//!   the hierarchies and measures of an [`olap_model::CubeSchema`] (the
//!   multidimensional metadata layer of the prototype's engine, cf. reference 6 of
//!   the paper);
//! * a thread-safe [`Catalog`] naming tables, bindings and views;
//! * a compact binary persistence format so generated benchmark data can be
//!   cached between experiment runs.

pub mod binding;
pub mod catalog;
pub mod chunk;
pub mod column;
pub mod delta;
pub mod dictionary;
pub mod encode;
pub mod error;
pub mod index;
pub mod mview;
pub mod persist;
pub mod shard;
pub mod table;

pub use binding::CubeBinding;
pub use catalog::{Catalog, TableStorageStats};
pub use chunk::{DataChunk, Morsels, NumericSlice};
pub use column::{Column, ColumnData};
pub use delta::Delta;
pub use dictionary::Dictionary;
pub use encode::{CodeStore, KeyAccess, KeyColumn, Validity};
pub use error::StorageError;
pub use index::HashIndex;
pub use mview::MaterializedAggregate;
pub use shard::ShardScheme;
pub use table::{ColumnStat, Table};
