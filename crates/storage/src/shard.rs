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
        let idx = table.require_key_like(&self.column)?;
        let keys = table.column_parts(idx).flat_map(|part| part.i64_iter().expect("key-like"));
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
            let k = p.column("dkey").unwrap();
            let k = k.as_key().unwrap();
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
        let keys = full.column("dkey").unwrap();
        let keys: Vec<i64> = keys.i64_iter().unwrap().collect();
        let revs = full.column("rev").unwrap();
        let revs = revs.as_f64().unwrap();
        let p0_plain = p0.decode_keys();
        let p0_revs = p0_plain.column("rev").unwrap();
        let p0_revs = p0_revs.as_f64().unwrap();
        let p0_keys = p0_plain.column("dkey").unwrap();
        let p0_keys: Vec<i64> = p0_keys.i64_iter().unwrap().collect();
        for (j, &r) in rows[0].iter().enumerate() {
            assert_eq!(p0_keys[j], keys[r as usize]);
            assert_eq!(p0_revs[j], revs[r as usize]);
        }
    }

    #[test]
    fn partition_reads_every_segment() {
        let n = crate::TAIL_ROWS + 40;
        let built = fact(n, 97);
        let seed = fact(crate::TAIL_ROWS, 97);
        let batch = built.take_rows(&(crate::TAIL_ROWS as u32..n as u32).collect::<Vec<_>>());
        let grown = seed.append_batch(&batch.columns()).unwrap();
        assert_eq!(grown.segments().len(), 2);
        let s = ShardScheme::range("dkey", 97, 4);
        assert_eq!(s.partition_rows(&grown).unwrap(), s.partition_rows(&built).unwrap());
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
