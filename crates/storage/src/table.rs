//! Named, schema-checked columnar tables.

use std::sync::Arc;

use crate::chunk::{DataChunk, Morsels};
use crate::column::{Column, ColumnData};
use crate::error::StorageError;

/// Physical storage statistics of one column; see [`Table::column_stats`].
#[derive(Debug, Clone)]
pub struct ColumnStat {
    pub name: String,
    /// Physical encoding name (`i64`, `f64`, `key-bitpack`, `key-rle`,
    /// `dict-bitpack`, `dict-rle`).
    pub encoding: &'static str,
    /// True heap footprint of the physical representation.
    pub bytes: usize,
    /// Footprint the same data would have stored plain — `bytes /
    /// plain_bytes` is the column's compression ratio.
    pub plain_bytes: usize,
}

/// A columnar table of a star schema (fact or dimension).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Table {
    /// Assembles a table, verifying all columns have equal length and
    /// distinct names.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Result<Self, StorageError> {
        let name = name.into();
        let n_rows = columns.first().map(Column::len).unwrap_or(0);
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if c.len() != n_rows {
                return Err(StorageError::RaggedColumns {
                    table: name,
                    expected: n_rows,
                    got: c.len(),
                    column: c.name.clone(),
                });
            }
            if !seen.insert(c.name.clone()) {
                return Err(StorageError::DuplicateColumn { table: name, column: c.name.clone() });
            }
        }
        Ok(Table { name, columns, n_rows })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Looks up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Looks up a column by name, erroring when absent.
    pub fn require_column(&self, name: &str) -> Result<&Column, StorageError> {
        self.column(name).ok_or_else(|| StorageError::UnknownColumn {
            table: self.name.clone(),
            column: name.to_string(),
        })
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Requires an `i64` column (keys).
    pub fn require_i64(&self, name: &str) -> Result<&[i64], StorageError> {
        let c = self.require_column(name)?;
        c.as_i64().ok_or(StorageError::TypeMismatch {
            column: name.to_string(),
            expected: "i64",
            got: c.data.type_name(),
        })
    }

    /// Requires a key-like column (plain `i64` or encoded codes) and
    /// returns its index — the validation step of scan planning, which
    /// accepts either physical layout.
    pub fn require_key_like(&self, name: &str) -> Result<usize, StorageError> {
        self.require_typed(name, "key", Column::is_key_like)
    }

    /// Requires a numeric (`i64` or `f64`) column — exactly the types
    /// [`DataChunk::f64_lane`] reads — and returns its index: the measure
    /// validation step of scan planning and of bindings.
    pub fn require_numeric(&self, name: &str) -> Result<usize, StorageError> {
        self.require_typed(name, "numeric", |c| {
            matches!(c.data, ColumnData::I64(_) | ColumnData::F64(_))
        })
    }

    fn require_typed(
        &self,
        name: &str,
        expected: &'static str,
        accepts: impl Fn(&Column) -> bool,
    ) -> Result<usize, StorageError> {
        let idx = self.column_index(name).ok_or_else(|| StorageError::UnknownColumn {
            table: self.name.clone(),
            column: name.to_string(),
        })?;
        if !accepts(&self.columns[idx]) {
            let got = self.columns[idx].data.type_name();
            return Err(StorageError::TypeMismatch { column: name.to_string(), expected, got });
        }
        Ok(idx)
    }

    /// A zero-copy view over rows `offset .. offset + len`.
    ///
    /// # Panics
    /// In debug builds, when the range exceeds the table.
    pub fn chunk(&self, offset: usize, len: usize) -> DataChunk<'_> {
        DataChunk::new(self, offset, len)
    }

    /// Cuts the table into fixed-size [`DataChunk`]s of `chunk_rows` rows
    /// (the last one may be shorter) — the morsel stream driving the
    /// parallel scan pipeline.
    pub fn morsels(&self, chunk_rows: usize) -> Morsels<'_> {
        Morsels::new(self, chunk_rows)
    }

    /// Returns a new table with `batch` appended row-wise — the storage
    /// half of the incremental-cube append path. The receiver is untouched
    /// (tables are handed out as `Arc<Table>`); the catalog swaps the new
    /// value in atomically via `commit_append`.
    ///
    /// The batch must carry exactly the table's columns (matched by name,
    /// any order) with equal lengths and matching physical types.
    /// Dictionary columns grow the dictionary: incoming codes are decoded
    /// against the batch's own dictionary and re-interned into a copy of
    /// the table's, so shared upstream dictionaries are never mutated.
    pub fn append_batch(&self, batch: &[Column]) -> Result<Table, StorageError> {
        let mismatch =
            |detail: String| StorageError::AppendMismatch { table: self.name.clone(), detail };
        if batch.len() != self.columns.len() {
            return Err(mismatch(format!(
                "batch has {} columns, table has {}",
                batch.len(),
                self.columns.len()
            )));
        }
        let added = batch.first().map(Column::len).unwrap_or(0);
        for c in batch {
            if c.len() != added {
                return Err(StorageError::RaggedColumns {
                    table: self.name.clone(),
                    expected: added,
                    got: c.len(),
                    column: c.name.clone(),
                });
            }
        }
        let mut columns = Vec::with_capacity(self.columns.len());
        for base in &self.columns {
            let incoming = batch
                .iter()
                .find(|c| c.name == base.name)
                .ok_or_else(|| mismatch(format!("batch is missing column `{}`", base.name)))?;
            let data = match (&base.data, &incoming.data) {
                (ColumnData::I64(old), ColumnData::I64(new)) => {
                    let mut v = old.clone();
                    v.extend_from_slice(new);
                    ColumnData::I64(v)
                }
                (ColumnData::F64(old), ColumnData::F64(new)) => {
                    let mut v = old.clone();
                    v.extend_from_slice(new);
                    ColumnData::F64(v)
                }
                (
                    ColumnData::Dict { codes, dict },
                    ColumnData::Dict { codes: new_codes, dict: new_dict },
                ) => {
                    let mut grown = (**dict).clone();
                    let mut all = codes.clone();
                    for code in new_codes.to_vec() {
                        let value = new_dict.value(code).ok_or_else(|| {
                            mismatch(format!(
                                "column `{}` has dictionary code {code} with no value",
                                base.name
                            ))
                        })?;
                        // Interning a new value may widen the code space;
                        // the store grows its packing width on demand.
                        all.push(grown.intern(value));
                    }
                    ColumnData::Dict { codes: all, dict: Arc::new(grown) }
                }
                // Encoded keys accept either physical layout in the batch:
                // plain i64 values are narrowed (appends keep flowing from
                // producers that build plain batches), encoded batches are
                // decoded and re-packed. Codes beyond the current domain
                // grow the domain and, when needed, the packing width.
                (ColumnData::Key(old), _) if incoming.is_key_like() => {
                    let mut grown = old.clone();
                    for v in incoming.i64_iter().expect("key-like") {
                        let code = u32::try_from(v).map_err(|_| {
                            mismatch(format!(
                                "column `{}` got value {v}, not encodable as a key code",
                                base.name
                            ))
                        })?;
                        grown.push(code, true);
                    }
                    ColumnData::Key(grown)
                }
                (old, new) => {
                    return Err(StorageError::TypeMismatch {
                        column: base.name.clone(),
                        expected: old.type_name(),
                        got: new.type_name(),
                    })
                }
            };
            columns.push(Column { name: base.name.clone(), data });
        }
        Ok(Table { name: self.name.clone(), columns, n_rows: self.n_rows + added })
    }

    /// Returns a new table with the named key columns encoded as narrow
    /// codes, each at the width its domain cardinality demands — the
    /// "dims as narrow codes" fact layout. Columns must exist and hold
    /// non-negative `i64` keys (already-encoded columns pass through).
    pub fn encode_keys(&self, specs: &[(&str, u32)]) -> Result<Table, StorageError> {
        let mut columns = self.columns.clone();
        for &(name, domain) in specs {
            let idx = self.column_index(name).ok_or_else(|| StorageError::UnknownColumn {
                table: self.name.clone(),
                column: name.to_string(),
            })?;
            columns[idx] = columns[idx].encode_key(domain).ok_or(StorageError::TypeMismatch {
                column: name.to_string(),
                expected: "key",
                got: self.columns[idx].data.type_name(),
            })?;
        }
        Ok(Table { name: self.name.clone(), columns, n_rows: self.n_rows })
    }

    /// Returns a new table holding exactly the given rows, in the given
    /// order, preserving every column's physical encoding — including key
    /// domains and dictionaries, so a horizontal partition of a fact table
    /// still validates against the full dimension tables. This is the
    /// storage half of the shard partitioner.
    ///
    /// # Panics
    /// When a row index is out of range.
    pub fn take_rows(&self, rows: &[u32]) -> Table {
        use crate::encode::{CodeStore, KeyColumn, Validity};
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let data = match &c.data {
                    ColumnData::I64(v) => {
                        ColumnData::I64(rows.iter().map(|&r| v[r as usize]).collect())
                    }
                    ColumnData::F64(v) => {
                        ColumnData::F64(rows.iter().map(|&r| v[r as usize]).collect())
                    }
                    ColumnData::Dict { codes, dict } => {
                        let subset: Vec<u32> =
                            rows.iter().map(|&r| codes.get(r as usize)).collect();
                        let domain = (dict.len() as u32).max(1);
                        ColumnData::Dict {
                            codes: CodeStore::from_codes(&subset, domain),
                            dict: dict.clone(),
                        }
                    }
                    ColumnData::Key(k) => {
                        let subset: Vec<u32> = rows.iter().map(|&r| k.get(r as usize)).collect();
                        let mut taken = KeyColumn::new(&subset, k.domain);
                        if let Some(v) = &k.validity {
                            let mask: Vec<bool> =
                                rows.iter().map(|&r| v.is_valid(r as usize)).collect();
                            taken = taken.with_validity(Validity::from_bools(&mask));
                        }
                        ColumnData::Key(taken)
                    }
                };
                Column { name: c.name.clone(), data }
            })
            .collect();
        Table { name: self.name.clone(), columns, n_rows: rows.len() }
    }

    /// Returns a copy with every encoded key column decoded back to plain
    /// `i64` — the uncompressed baseline for storage and throughput
    /// comparisons.
    pub fn decode_keys(&self) -> Table {
        Table {
            name: self.name.clone(),
            columns: self.columns.iter().map(Column::decode_key).collect(),
            n_rows: self.n_rows,
        }
    }

    /// Approximate heap footprint of the table in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.data.byte_size()).sum()
    }

    /// Per-column physical storage statistics: encoding, true footprint,
    /// and the plain-layout footprint the encoding is measured against.
    pub fn column_stats(&self) -> Vec<ColumnStat> {
        self.columns
            .iter()
            .map(|c| ColumnStat {
                name: c.name.clone(),
                encoding: c.data.encoding_name(),
                bytes: c.data.byte_size(),
                plain_bytes: c.data.plain_byte_size(),
            })
            .collect()
    }

    /// Renders a `CREATE TABLE`-ish description of the logical schema.
    pub fn describe(&self) -> String {
        let cols: Vec<String> = self
            .columns
            .iter()
            .map(|c| {
                let ty = match c.data {
                    // Plain and encoded keys are the same logical type; the
                    // description is schema-level, not physical.
                    ColumnData::I64(_) | ColumnData::Key(_) => "integer",
                    ColumnData::F64(_) => "number",
                    ColumnData::Dict { .. } => "varchar",
                };
                format!("{} {}", c.name, ty)
            })
            .collect();
        format!("create table {} ({})", self.name, cols.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn customers() -> Table {
        Table::new(
            "customer",
            vec![
                Column::i64("ckey", vec![0, 1, 2]),
                Column::from_strings("nation", ["ITALY", "FRANCE", "ITALY"]),
                Column::f64("balance", vec![10.5, -3.0, 0.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn new_validates_shape() {
        let bad = Table::new("t", vec![Column::i64("a", vec![1, 2]), Column::i64("b", vec![1])]);
        assert!(matches!(bad, Err(StorageError::RaggedColumns { .. })));
        let dup = Table::new("t", vec![Column::i64("a", vec![1]), Column::f64("a", vec![1.0])]);
        assert!(matches!(dup, Err(StorageError::DuplicateColumn { .. })));
    }

    #[test]
    fn lookups_and_typed_access() {
        let t = customers();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.require_i64("ckey").unwrap(), &[0, 1, 2]);
        assert!(matches!(
            t.require_i64("nation"),
            Err(StorageError::TypeMismatch { expected: "i64", .. })
        ));
        assert!(matches!(t.require_column("ghost"), Err(StorageError::UnknownColumn { .. })));
        assert_eq!(t.column_index("balance"), Some(2));
    }

    #[test]
    fn describe_renders_types() {
        let t = customers();
        assert_eq!(
            t.describe(),
            "create table customer (ckey integer, nation varchar, balance number)"
        );
    }

    #[test]
    fn append_extends_every_column_kind() {
        let t = customers();
        let appended = t
            .append_batch(&[
                Column::f64("balance", vec![7.0]),
                Column::i64("ckey", vec![3]),
                Column::from_strings("nation", ["SPAIN"]),
            ])
            .unwrap();
        assert_eq!(appended.n_rows(), 4);
        assert_eq!(t.n_rows(), 3, "the receiver is untouched");
        assert_eq!(appended.require_i64("ckey").unwrap(), &[0, 1, 2, 3]);
        assert_eq!(appended.column("nation").unwrap().string_at(3), Some("SPAIN"));
        assert_eq!(appended.column("nation").unwrap().string_at(2), Some("ITALY"));
        let (_, dict) = appended.column("nation").unwrap().as_dict().unwrap();
        assert_eq!(dict.len(), 3, "dictionary grew by the one new value");
        let (_, old_dict) = t.column("nation").unwrap().as_dict().unwrap();
        assert_eq!(old_dict.len(), 2, "the shared base dictionary did not grow");
    }

    #[test]
    fn append_reencodes_against_the_batch_dictionary() {
        let t = customers();
        // The batch's own dictionary assigns different codes to the same
        // strings; appending must go through the strings, not the codes.
        let appended = t
            .append_batch(&[
                Column::i64("ckey", vec![3, 4]),
                Column::from_strings("nation", ["FRANCE", "ITALY"]),
                Column::f64("balance", vec![0.0, 0.0]),
            ])
            .unwrap();
        assert_eq!(appended.column("nation").unwrap().string_at(3), Some("FRANCE"));
        assert_eq!(appended.column("nation").unwrap().string_at(4), Some("ITALY"));
        let (_, dict) = appended.column("nation").unwrap().as_dict().unwrap();
        assert_eq!(dict.len(), 2, "no new values, no dictionary growth");
    }

    #[test]
    fn append_rejects_malformed_batches() {
        let t = customers();
        assert!(matches!(
            t.append_batch(&[Column::i64("ckey", vec![3])]),
            Err(StorageError::AppendMismatch { .. })
        ));
        assert!(matches!(
            t.append_batch(&[
                Column::i64("ckey", vec![3]),
                Column::from_strings("nation", ["SPAIN"]),
                Column::f64("wrong_name", vec![1.0]),
            ]),
            Err(StorageError::AppendMismatch { .. })
        ));
        assert!(matches!(
            t.append_batch(&[
                Column::i64("ckey", vec![3, 4]),
                Column::from_strings("nation", ["SPAIN"]),
                Column::f64("balance", vec![1.0, 2.0]),
            ]),
            Err(StorageError::RaggedColumns { .. })
        ));
        assert!(matches!(
            t.append_batch(&[
                Column::i64("ckey", vec![3]),
                Column::from_strings("nation", ["SPAIN"]),
                Column::i64("balance", vec![1]),
            ]),
            Err(StorageError::TypeMismatch { expected: "f64", got: "i64", .. })
        ));
    }

    #[test]
    fn append_empty_batch_is_identity() {
        let t = customers();
        let appended = t
            .append_batch(&[
                Column::i64("ckey", vec![]),
                Column::from_strings("nation", Vec::<&str>::new()),
                Column::f64("balance", vec![]),
            ])
            .unwrap();
        assert_eq!(appended.n_rows(), 3);
        assert_eq!(appended.require_i64("ckey").unwrap(), t.require_i64("ckey").unwrap());
    }

    #[test]
    fn key_columns_encode_append_and_report_stats() {
        let t = Table::new(
            "fact",
            vec![
                Column::i64("ckey", (0..100).map(|i| i % 25).collect()),
                Column::f64("revenue", (0..100).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        let enc = t.encode_keys(&[("ckey", 25)]).unwrap();
        assert_eq!(enc.require_key_like("ckey").unwrap(), 0);
        assert!(enc.require_i64("ckey").is_err(), "encoded keys have no plain slice");
        assert_eq!(enc.describe(), t.describe(), "logical schema is unchanged");
        assert!(enc.byte_size() < t.byte_size());
        // Appends accept plain batches; a code beyond the current domain
        // grows it (width growth is exercised in the encode module tests).
        let grown = enc
            .append_batch(&[
                Column::i64("ckey", vec![24, 30]),
                Column::f64("revenue", vec![1.0, 2.0]),
            ])
            .unwrap();
        assert_eq!(grown.n_rows(), 102);
        let k = grown.column("ckey").unwrap().as_key().unwrap();
        assert_eq!(k.domain, 31);
        assert_eq!(k.get(100), 24);
        assert_eq!(k.get(101), 30);
        // Round trip back to plain reproduces the same values.
        let plain = grown.decode_keys();
        assert_eq!(plain.require_i64("ckey").unwrap()[99..], [24, 24, 30]);
        // Negative keys cannot append onto an encoded column.
        assert!(enc
            .append_batch(&[Column::i64("ckey", vec![-1]), Column::f64("revenue", vec![0.0]),])
            .is_err());
        // Stats expose encoding and compression ratio inputs.
        let stats = enc.column_stats();
        assert_eq!(stats[0].encoding, "key-bitpack");
        assert!(stats[0].bytes < stats[0].plain_bytes);
        assert_eq!(stats[1].encoding, "f64");
        assert_eq!(stats[1].bytes, stats[1].plain_bytes);
        // encode_keys validates its targets.
        assert!(t.encode_keys(&[("ghost", 4)]).is_err());
        assert!(t.encode_keys(&[("revenue", 4)]).is_err());
    }

    #[test]
    fn empty_table_is_fine() {
        let t = Table::new("empty", vec![]).unwrap();
        assert_eq!(t.n_rows(), 0);
    }

    #[test]
    fn require_numeric_accepts_exactly_the_lane_types() {
        let t = customers().encode_keys(&[("ckey", 3)]).unwrap();
        let t = Table::new(
            "customer",
            t.columns().iter().cloned().chain([Column::i64("visits", vec![4, 0, 7])]).collect(),
        )
        .unwrap();
        let chunk = t.chunk(0, 3);
        for (column, idx) in [("balance", 2), ("visits", 3)] {
            assert_eq!(t.require_numeric(column).unwrap(), idx, "{column} is numeric");
            assert!(chunk.f64_lane(idx, &mut Vec::new()).is_some(), "f64_lane reads {column}");
        }
        for (column, idx, got) in [("nation", 1, "dict"), ("ckey", 0, "key")] {
            assert!(matches!(
                t.require_numeric(column),
                Err(StorageError::TypeMismatch { column: c, expected: "numeric", got: g })
                    if c == column && g == got
            ));
            assert!(chunk.f64_lane(idx, &mut Vec::new()).is_none(), "f64_lane skips {column}");
        }
        assert!(matches!(
            t.require_numeric("ghost"),
            Err(StorageError::UnknownColumn { table, column }) if table == "customer" && column == "ghost"
        ));
    }

    #[test]
    fn type_errors_are_reported_by_name() {
        let t = customers();
        assert!(matches!(
            t.require_key_like("balance"),
            Err(StorageError::TypeMismatch { column, expected: "key", got: "f64" }) if column == "balance"
        ));
        assert!(matches!(
            t.require_key_like("ghost"),
            Err(StorageError::UnknownColumn { column, .. }) if column == "ghost"
        ));
        assert!(matches!(
            t.require_numeric("nation"),
            Err(StorageError::TypeMismatch { column, got: "dict", .. }) if column == "nation"
        ));
    }
}
