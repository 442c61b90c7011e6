//! Sharded SSB deployments for scatter-gather execution.
//!
//! Both fact tables (`lineorder` and `expected`) partition by `dkey` —
//! contiguous date ranges, so the clustered/RLE-friendly layout survives
//! sharding. Every shard gets the **full** (small) dimension tables, its
//! slice of each fact, the same cube bindings, and its own default
//! materialized views; the coordinator catalog keeps the dimensions and
//! bindings but empty (schema-only) fact tables, so any query reaching it
//! without fan-out aggregates nothing rather than double-counting.

use std::sync::Arc;

use olap_engine::EngineError;
use olap_storage::{Catalog, ShardScheme, Table};

use crate::generate::{SsbDataset, EXTERNAL_CUBE, SSB_CUBE};
use crate::views;

/// Dimension tables every shard (and the coordinator) carries in full.
const DIM_TABLES: [&str; 4] = ["customer", "dates", "part", "supplier"];
/// Fact tables partitioned across shards.
const FACT_TABLES: [&str; 2] = ["lineorder", "expected"];
/// Cube bindings registered on every catalog.
const CUBES: [&str; 2] = [SSB_CUBE, EXTERNAL_CUBE];

/// A sharded deployment of one generated dataset: the placement scheme,
/// the coordinator catalog (empty facts) and one catalog per shard.
pub struct ShardedSsb {
    pub scheme: ShardScheme,
    pub coordinator: Arc<Catalog>,
    pub shard_catalogs: Vec<Arc<Catalog>>,
}

/// Partitions `ds` into `shards` range shards by `dkey` and builds the
/// per-shard and coordinator catalogs. Shard catalogs get their own
/// default materialized views (each over its local fact slice); the
/// coordinator gets none — view matching happens per shard.
pub fn shard_dataset(ds: &SsbDataset, shards: usize) -> Result<ShardedSsb, EngineError> {
    let scheme = ShardScheme::range("dkey", ds.counts.dates as u32, shards);
    let shards = scheme.shards();

    // Partition each fact table once, then distribute the slices in
    // ascending-shard order.
    let mut fact_parts: Vec<std::vec::IntoIter<Table>> = Vec::with_capacity(FACT_TABLES.len());
    for fact in FACT_TABLES {
        fact_parts.push(scheme.partition(ds.catalog.table(fact)?.as_ref())?.into_iter());
    }

    let mut shard_catalogs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let catalog = Arc::new(Catalog::new());
        for dim in DIM_TABLES {
            catalog.register_table(ds.catalog.table(dim)?.as_ref().clone());
        }
        for parts in &mut fact_parts {
            catalog.register_table(parts.next().expect("one slice per shard"));
        }
        for cube in CUBES {
            catalog.register_binding(cube, ds.catalog.binding(cube)?.as_ref().clone());
        }
        views::register_default_views(&catalog, &ds.schema)?;
        shard_catalogs.push(catalog);
    }

    let coordinator = Arc::new(Catalog::new());
    for dim in DIM_TABLES {
        coordinator.register_table(ds.catalog.table(dim)?.as_ref().clone());
    }
    for fact in FACT_TABLES {
        // Empty but fully typed: key domains survive `take_rows(&[])`, so
        // bindings validate and the coordinator plans with real layouts.
        coordinator.register_table(ds.catalog.table(fact)?.take_rows(&[]));
    }
    for cube in CUBES {
        coordinator.register_binding(cube, ds.catalog.binding(cube)?.as_ref().clone());
    }

    Ok(ShardedSsb { scheme, coordinator, shard_catalogs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, SsbConfig};

    #[test]
    fn shard_slices_partition_the_fact_tables() {
        let ds = generate(SsbConfig::with_scale(0.001));
        let deployment = shard_dataset(&ds, 4).unwrap();
        for fact in FACT_TABLES {
            let full = ds.catalog.table(fact).unwrap().n_rows();
            let sum: usize =
                deployment.shard_catalogs.iter().map(|c| c.table(fact).unwrap().n_rows()).sum();
            assert_eq!(sum, full, "{fact}");
            assert_eq!(deployment.coordinator.table(fact).unwrap().n_rows(), 0);
        }
    }
}
