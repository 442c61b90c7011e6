//! Key indexes over table columns.
//!
//! The paper's setup indexes primary and foreign keys with B-trees; the
//! engine only ever probes them for equality, so a [`HashIndex`] (point
//! lookups on foreign keys) stands in for them.

use std::collections::HashMap;

use crate::error::StorageError;
use crate::table::Table;

/// A hash index from key value to row ids.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    map: HashMap<i64, Vec<u32>>,
}

impl HashIndex {
    /// Builds the index over a key-like (`i64` or encoded) column.
    pub fn build(table: &Table, column: &str) -> Result<Self, StorageError> {
        let idx = table.require_key_like(column)?;
        let col = &table.columns()[idx];
        let keys = col.i64_iter().expect("key-like column iterates");
        let mut map: HashMap<i64, Vec<u32>> = HashMap::with_capacity(col.len());
        for (row, k) in keys.enumerate() {
            map.entry(k).or_default().push(row as u32);
        }
        Ok(HashIndex { map })
    }

    /// Rows with exactly this key.
    pub fn lookup(&self, key: i64) -> &[u32] {
        self.map.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn table() -> Table {
        Table::new("fact", vec![Column::i64("fk", vec![5, 3, 5, 9, 3, 5])]).unwrap()
    }

    #[test]
    fn hash_point_lookup() {
        let idx = HashIndex::build(&table(), "fk").unwrap();
        assert_eq!(idx.lookup(9), &[3]);
        assert_eq!(idx.lookup(0), &[] as &[u32]);
        assert_eq!(idx.distinct_keys(), 3);
    }

    #[test]
    fn encoded_columns_index_identically() {
        let plain = table();
        let encoded =
            Table::new("fact", vec![plain.column("fk").unwrap().encode_key(10).unwrap()]).unwrap();
        let a = HashIndex::build(&plain, "fk").unwrap();
        let b = HashIndex::build(&encoded, "fk").unwrap();
        assert_eq!(a.lookup(5), b.lookup(5));
        assert_eq!(b.lookup(9), &[3]);
    }

    #[test]
    fn building_over_wrong_type_fails() {
        let t = Table::new("t", vec![Column::from_strings("s", ["a", "b"])]).unwrap();
        assert!(HashIndex::build(&t, "s").is_err());
    }
}
