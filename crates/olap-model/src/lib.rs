//! # olap-model
//!
//! The multidimensional model underlying the `assess` operator of
//! *"Assess Queries for Interactive Analysis of Data Cubes"* (EDBT 2021),
//! Section 2 ("Formalities").
//!
//! The model is deliberately restricted to **linear hierarchies**, exactly as
//! in the paper:
//!
//! * a [`Hierarchy`] is a triple `(L, ⪰, ≥)` of categorical [`Level`]s, a
//!   roll-up *total order* over the levels, and a part-of *partial order*
//!   over the union of the level domains (Definition 2.1);
//! * a [`CubeSchema`] couples a set of hierarchies with a tuple of numerical
//!   measures, each with an aggregation operator (Definition 2.1);
//! * a [`GroupBySet`] picks at most one level per hierarchy and inherits a
//!   partial order `⪰_H` from the roll-up orders (Definition 2.3);
//! * a [`Coordinate`] is a tuple of members, one per level of a group-by set,
//!   and rolls up along the part-of orders (Definition 2.3);
//! * a [`DerivedCube`] is the (sparse, partial) function from coordinates to
//!   measure tuples produced by a [`CubeQuery`] (Definitions 2.4–2.6); it
//!   stores each coordinate packed into one `u64` by its group-by set's
//!   [`KeyLayout`], in ascending key order when it comes from a `get`;
//! * [`CubeQuery::relate`] is the cube algebra's containment relation
//!   between two queries ([`Relation`]): the one test behind view matching,
//!   the workload's containment lint and result-cache survival.
//!
//! Members are **dictionary encoded**: every level keeps a dictionary mapping
//! member names to dense [`MemberId`]s, and part-of orders are stored as dense
//! `child → parent` id vectors, so that rolling a coordinate up is O(depth)
//! array lookups. This is both the classic OLAP join-index trick and the
//! representation the execution engine relies on.

pub mod coordinate;
pub mod cube;
pub mod error;
pub mod groupby;
pub mod hierarchy;
pub mod key;
pub mod level;
pub mod query;
pub mod schema;

pub use coordinate::Coordinate;
pub use cube::{CubeColumn, DerivedCube, LabelColumn, NumericColumn};
pub use error::ModelError;
pub use groupby::GroupBySet;
pub use hierarchy::{Hierarchy, HierarchyBuilder};
pub use key::KeyLayout;
pub use level::{Level, MemberId};
pub use query::{CubeQuery, Predicate, PredicateOp, Relation};
pub use schema::{AggOp, CubeSchema, MeasureDef};
