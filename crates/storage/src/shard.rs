//! Range sharding of fact tables by a key column.
//!
//! A [`ShardScheme`] is a pure function of `(column, domain, shard count)`,
//! so the coordinator and every shard node derive the same placement
//! independently — no placement metadata travels on the wire. Contiguous
//! key ranges (rather than hashing) keep each shard's key column narrow
//! and RLE-friendly, reusing the encoded fact layout as-is.

use crate::error::StorageError;
use crate::table::Table;

/// How a fact table splits into horizontal shards: contiguous ranges of
/// the chosen key column's domain, `per = ⌈domain / shards⌉` keys each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardScheme {
    column: String,
    domain: u32,
    shards: usize,
}

impl ShardScheme {
    /// Range scheme over `column`: keys `[i·per, (i+1)·per)` land on shard
    /// `i`. `domain` and `shards` are floored at 1.
    pub fn range(column: impl Into<String>, domain: u32, shards: usize) -> Self {
        ShardScheme { column: column.into(), domain: domain.max(1), shards: shards.max(1) }
    }

    /// The key column rows are routed by.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Declared domain of the routing column.
    pub fn domain(&self) -> u32 {
        self.domain
    }

    fn per_shard(&self) -> u64 {
        (self.domain as u64).div_ceil(self.shards as u64).max(1)
    }

    /// The shard a key routes to. Keys beyond the declared domain (domain
    /// growth on append) land on the last shard; negative keys on shard 0.
    pub fn shard_of(&self, key: i64) -> usize {
        if key < 0 {
            return 0;
        }
        (((key as u64) / self.per_shard()) as usize).min(self.shards - 1)
    }

    /// Partitions `table`'s rows: `result[i]` holds the row indexes routed
    /// to shard `i`, ascending, so shard contents preserve base-table
    /// order and are deterministic.
    pub fn partition_rows(&self, table: &Table) -> Result<Vec<Vec<u32>>, StorageError> {
        let col = table.require_column(&self.column)?;
        let keys = col.i64_iter().ok_or(StorageError::TypeMismatch {
            column: self.column.clone(),
            expected: "key",
            got: col.data.type_name(),
        })?;
        let mut rows = vec![Vec::new(); self.shards];
        for (r, key) in keys.enumerate() {
            rows[self.shard_of(key)].push(r as u32);
        }
        Ok(rows)
    }

    /// Splits `table` into one table per shard — same name, schema,
    /// encodings and key domains; only the rows differ.
    pub fn partition(&self, table: &Table) -> Result<Vec<Table>, StorageError> {
        Ok(self.partition_rows(table)?.iter().map(|rows| table.take_rows(rows)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn fact(n: usize, domain: u32) -> Table {
        Table::new(
            "fact",
            vec![
                Column::i64("dkey", (0..n).map(|i| (i as i64 * 7) % domain as i64).collect()),
                Column::f64("rev", (0..n).map(|i| i as f64).collect()),
            ],
        )
        .unwrap()
        .encode_keys(&[("dkey", domain)])
        .unwrap()
    }

    #[test]
    fn routing_is_total_and_ordered() {
        let s = ShardScheme::range("dkey", 100, 4);
        assert_eq!(s.shard_of(0), 0);
        assert_eq!(s.shard_of(24), 0);
        assert_eq!(s.shard_of(25), 1);
        assert_eq!(s.shard_of(99), 3);
        assert_eq!(s.shard_of(10_000), 3, "beyond-domain keys go to the last shard");
        assert_eq!(s.shard_of(-5), 0);
    }

    #[test]
    fn partition_covers_every_row_exactly_once() {
        let t = fact(500, 97);
        let s = ShardScheme::range("dkey", 97, 4);
        let parts = s.partition(&t).unwrap();
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(Table::n_rows).sum::<usize>(), 500);
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(p.name(), "fact");
            let k = p.column("dkey").unwrap().as_key().unwrap();
            assert_eq!(k.domain, 97, "shard keeps the full key domain");
            for r in 0..p.n_rows() {
                assert_eq!(s.shard_of(k.get(r) as i64), i);
            }
        }
    }

    #[test]
    fn take_rows_preserves_values_in_order() {
        let t = fact(50, 97);
        let s = ShardScheme::range("dkey", 97, 2);
        let rows = s.partition_rows(&t).unwrap();
        let p0 = t.take_rows(&rows[0]);
        let full = t.decode_keys();
        let keys = full.require_i64("dkey").unwrap();
        let revs = full.column("rev").unwrap().as_f64().unwrap();
        let p0_plain = p0.decode_keys();
        let p0_revs = p0_plain.column("rev").unwrap().as_f64().unwrap();
        for (j, &r) in rows[0].iter().enumerate() {
            assert_eq!(p0_plain.require_i64("dkey").unwrap()[j], keys[r as usize]);
            assert_eq!(p0_revs[j], revs[r as usize]);
        }
    }

    #[test]
    fn single_shard_partition_is_the_whole_table() {
        let t = fact(20, 10);
        let s = ShardScheme::range("dkey", 10, 1);
        let parts = s.partition(&t).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].n_rows(), 20);
    }

    #[test]
    fn partition_rejects_missing_or_non_key_columns() {
        let t = fact(10, 10);
        assert!(ShardScheme::range("ghost", 10, 2).partition(&t).is_err());
        assert!(ShardScheme::range("rev", 10, 2).partition(&t).is_err());
    }
}
