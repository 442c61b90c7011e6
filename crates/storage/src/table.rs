//! Named, schema-checked columnar tables, stored as shared segments.

use std::borrow::Cow;
use std::sync::Arc;

use crate::chunk::DataChunk;
use crate::column::{Column, ColumnData};
use crate::encode::{CodeStore, KeyColumn};
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

/// Rows an append may grow a table's last segment to. Past it, the batch
/// starts a new segment, so an append copies at most this many old rows.
pub const TAIL_ROWS: usize = 65_536;

/// One horizontal piece of a [`Table`]: equal-length columns in the table's
/// column order. Segments are immutable; a table and the tables appended
/// from it share them by `Arc`.
#[derive(Debug)]
pub struct Segment {
    pub(crate) columns: Vec<Column>,
    n_rows: usize,
}

impl Segment {
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }
}

/// A columnar table of a star schema (fact or dimension), stored as a list
/// of segments in row order.
///
/// A table as built by [`Table::new`] (generated, loaded, or assembled by
/// hand) is one segment. [`Table::append_batch`] keeps every segment and
/// either copy-extends the last one while it stays within [`TAIL_ROWS`] or
/// starts a new one from the batch. Every segment carries the first one's
/// column names and physical types.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    /// Never empty.
    segments: Vec<Arc<Segment>>,
    /// `ends[i]` is the table row just past segment `i`.
    ends: Vec<usize>,
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
        Ok(Table::from_segments(name, vec![Arc::new(Segment { columns, n_rows })]))
    }

    fn from_segments(name: String, segments: Vec<Arc<Segment>>) -> Table {
        let ends = segments
            .iter()
            .scan(0, |end, s| {
                *end += s.n_rows;
                Some(*end)
            })
            .collect();
        Table { name, segments, ends }
    }

    /// A table with each segment's columns rebuilt by `f`.
    fn map_segments(
        &self,
        mut f: impl FnMut(&[Column]) -> Result<Vec<Column>, StorageError>,
    ) -> Result<Table, StorageError> {
        let segments = self
            .segments
            .iter()
            .map(|s| Ok(Arc::new(Segment { columns: f(&s.columns)?, n_rows: s.n_rows })))
            .collect::<Result<_, StorageError>>()?;
        Ok(Table::from_segments(self.name.clone(), segments))
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn n_rows(&self) -> usize {
        *self.ends.last().expect("a table has at least one segment")
    }

    /// The segments, in row order.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Column names and physical types: the first segment's columns.
    fn schema(&self) -> &[Column] {
        &self.segments[0].columns
    }

    /// The pieces of column `idx`, one per segment, in row order.
    pub(crate) fn column_parts(&self, idx: usize) -> impl Iterator<Item = &Column> + '_ {
        self.segments.iter().map(move |s| &s.columns[idx])
    }

    /// Column `idx` as one whole column: borrowed from a one-segment table,
    /// concatenated from the pieces of a segmented one.
    fn whole(&self, idx: usize) -> Cow<'_, Column> {
        match &self.segments[..] {
            [only] => Cow::Borrowed(&only.columns[idx]),
            _ => Cow::Owned(Column::concat(&self.column_parts(idx).collect::<Vec<_>>())),
        }
    }

    /// Every column, whole; see [`Table::column`]. Readers inside this
    /// crate that can go piece by piece use `column_parts`, which never
    /// copies.
    pub fn columns(&self) -> Cow<'_, [Column]> {
        match &self.segments[..] {
            [only] => Cow::Borrowed(&only.columns[..]),
            _ => Cow::Owned((0..self.schema().len()).map(|i| self.whole(i).into_owned()).collect()),
        }
    }

    /// Looks up a column by name, whole: borrowed from a one-segment table,
    /// concatenated from the segments of an appended one.
    pub fn column(&self, name: &str) -> Option<Cow<'_, Column>> {
        self.column_index(name).map(|idx| self.whole(idx))
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.schema().iter().position(|c| c.name == name)
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
        let column = &self.schema()[idx];
        if !accepts(column) {
            let got = column.data.type_name();
            return Err(StorageError::TypeMismatch { column: name.to_string(), expected, got });
        }
        Ok(idx)
    }

    /// Zero-copy views over rows `offset .. offset + len`, one per segment
    /// the range touches, in row order.
    ///
    /// # Panics
    /// In debug builds, when the range exceeds the table.
    pub fn chunks(&self, offset: usize, len: usize) -> impl Iterator<Item = DataChunk<'_>> + '_ {
        let end = offset + len;
        debug_assert!(end <= self.n_rows());
        let first = self.ends.partition_point(|&e| e <= offset);
        self.segments[first..].iter().zip(&self.ends[first..]).map_while(move |(s, &seg_end)| {
            let seg_start = seg_end - s.n_rows;
            let lo = offset.max(seg_start);
            (lo < end).then(|| DataChunk::new(s, lo - seg_start, lo, seg_end.min(end) - lo))
        })
    }

    /// Cuts the table into morsels of `chunk_rows` rows (the last one may
    /// be shorter), each cut again at segment ends so that every
    /// [`DataChunk`] lies inside one segment.
    pub fn morsels(&self, chunk_rows: usize) -> impl Iterator<Item = DataChunk<'_>> + '_ {
        let k = chunk_rows.max(1);
        let n = self.n_rows();
        (0..n).step_by(k).flat_map(move |lo| self.chunks(lo, k.min(n - lo)))
    }

    /// Returns a new table with `batch` appended row-wise — the storage
    /// half of the incremental-cube append path. The receiver is untouched
    /// (tables are handed out as `Arc<Table>`); the catalog swaps the new
    /// value in atomically via `commit_append`.
    ///
    /// Every segment is kept by `Arc`. The last one is copied and extended
    /// when it stays within [`TAIL_ROWS`]; otherwise the batch starts a new
    /// segment in the last one's physical layout (key domains and
    /// dictionaries included). An append thus costs O(batch + tail), never
    /// O(table).
    ///
    /// The batch must carry exactly the table's columns (matched by name,
    /// any order) with equal lengths and matching physical types.
    /// Dictionary columns grow the dictionary: incoming codes are decoded
    /// against the batch's own dictionary and re-interned into a copy of
    /// the tail's, so sealed segments keep theirs and shared upstream
    /// dictionaries are never mutated.
    pub fn append_batch(&self, batch: &[Column]) -> Result<Table, StorageError> {
        let mismatch =
            |detail: String| StorageError::AppendMismatch { table: self.name.clone(), detail };
        if batch.len() != self.schema().len() {
            return Err(mismatch(format!(
                "batch has {} columns, table has {}",
                batch.len(),
                self.schema().len()
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
        let tail = self.segments.last().expect("a table has at least one segment");
        let extend = added > 0 && (tail.n_rows == 0 || tail.n_rows + added <= TAIL_ROWS);
        let mut columns = Vec::with_capacity(tail.columns.len());
        for base in &tail.columns {
            let incoming = batch
                .iter()
                .find(|c| c.name == base.name)
                .ok_or_else(|| mismatch(format!("batch is missing column `{}`", base.name)))?;
            let start = if extend { base.data.clone() } else { empty_like(&base.data) };
            let data = extend_data(start, incoming, &mismatch)?;
            columns.push(Column { name: base.name.clone(), data });
        }
        if added == 0 {
            return Ok(self.clone());
        }
        let mut segments = self.segments.clone();
        if extend {
            segments.pop();
        }
        let n_rows = columns.first().map_or(0, Column::len);
        segments.push(Arc::new(Segment { columns, n_rows }));
        Ok(Table::from_segments(self.name.clone(), segments))
    }

    /// Returns a new table with the named key columns encoded as narrow
    /// codes, each at the width its domain cardinality demands — the
    /// "dims as narrow codes" fact layout. Columns must exist and hold
    /// non-negative `i64` keys (already-encoded columns pass through).
    /// Each segment is encoded on its own.
    pub fn encode_keys(&self, specs: &[(&str, u32)]) -> Result<Table, StorageError> {
        let mut targets = Vec::with_capacity(specs.len());
        for &(name, domain) in specs {
            let idx = self.column_index(name).ok_or_else(|| StorageError::UnknownColumn {
                table: self.name.clone(),
                column: name.to_string(),
            })?;
            targets.push((idx, domain));
        }
        self.map_segments(|columns| {
            let mut columns = columns.to_vec();
            for &(idx, domain) in &targets {
                columns[idx] =
                    columns[idx].encode_key(domain).ok_or(StorageError::TypeMismatch {
                        column: columns[idx].name.clone(),
                        expected: "key",
                        got: columns[idx].data.type_name(),
                    })?;
            }
            Ok(columns)
        })
    }

    /// Returns a new one-segment table holding exactly the given rows, in
    /// the given order, preserving every column's physical encoding —
    /// including key domains and dictionaries, so a horizontal partition of
    /// a fact table still validates against the full dimension tables. This
    /// is the storage half of the shard partitioner.
    ///
    /// # Panics
    /// When a row index is out of range.
    pub fn take_rows(&self, rows: &[u32]) -> Table {
        let columns = self
            .columns()
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
                        ColumnData::Key(KeyColumn::new(&subset, k.domain))
                    }
                };
                Column { name: c.name.clone(), data }
            })
            .collect();
        let segment = Segment { columns, n_rows: rows.len() };
        Table::from_segments(self.name.clone(), vec![Arc::new(segment)])
    }

    /// Returns a copy with every encoded key column decoded back to plain
    /// `i64`, segment by segment — the uncompressed baseline for storage
    /// and throughput comparisons.
    pub fn decode_keys(&self) -> Table {
        self.map_segments(|columns| Ok(columns.iter().map(Column::decode_key).collect()))
            .expect("decoding keys cannot fail")
    }

    /// Approximate heap footprint of the table in bytes.
    pub fn byte_size(&self) -> usize {
        self.segments.iter().flat_map(|s| &s.columns).map(|c| c.data.byte_size()).sum()
    }

    /// Per-column physical storage statistics: encoding (the first
    /// segment's), true footprint and the plain-layout footprint the
    /// encoding is measured against, each summed over the segments.
    pub fn column_stats(&self) -> Vec<ColumnStat> {
        self.schema()
            .iter()
            .enumerate()
            .map(|(idx, c)| ColumnStat {
                name: c.name.clone(),
                encoding: c.data.encoding_name(),
                bytes: self.column_parts(idx).map(|p| p.data.byte_size()).sum(),
                plain_bytes: self.column_parts(idx).map(|p| p.data.plain_byte_size()).sum(),
            })
            .collect()
    }
}

/// An empty column in `data`'s physical layout: the start of a new tail
/// segment, carrying the key domain or the dictionary along.
fn empty_like(data: &ColumnData) -> ColumnData {
    match data {
        ColumnData::I64(_) => ColumnData::I64(Vec::new()),
        ColumnData::F64(_) => ColumnData::F64(Vec::new()),
        ColumnData::Dict { dict, .. } => ColumnData::Dict {
            codes: CodeStore::empty((dict.len() as u32).max(1)),
            dict: dict.clone(),
        },
        ColumnData::Key(k) => {
            ColumnData::Key(KeyColumn { codes: CodeStore::empty(k.domain), domain: k.domain })
        }
    }
}

/// `data` with `incoming`'s rows appended (see [`Table::append_batch`]).
fn extend_data(
    data: ColumnData,
    incoming: &Column,
    mismatch: &impl Fn(String) -> StorageError,
) -> Result<ColumnData, StorageError> {
    Ok(match (data, &incoming.data) {
        (ColumnData::I64(mut v), ColumnData::I64(new)) => {
            v.extend_from_slice(new);
            ColumnData::I64(v)
        }
        (ColumnData::F64(mut v), ColumnData::F64(new)) => {
            v.extend_from_slice(new);
            ColumnData::F64(v)
        }
        (
            ColumnData::Dict { mut codes, dict },
            ColumnData::Dict { codes: new_codes, dict: new_dict },
        ) => {
            let mut grown = (*dict).clone();
            for code in new_codes.to_vec() {
                let value = new_dict.value(code).ok_or_else(|| {
                    mismatch(format!(
                        "column `{}` has dictionary code {code} with no value",
                        incoming.name
                    ))
                })?;
                // Interning a new value may widen the code space; the
                // store grows its packing width on demand.
                codes.push(grown.intern(value));
            }
            ColumnData::Dict { codes, dict: Arc::new(grown) }
        }
        // Encoded keys accept either physical layout in the batch: plain
        // i64 values are narrowed (appends keep flowing from producers that
        // build plain batches), encoded batches are decoded and re-packed.
        // Codes beyond the current domain grow the domain and, when needed,
        // the packing width.
        (ColumnData::Key(mut k), _) if incoming.is_key_like() => {
            for v in incoming.i64_iter().expect("key-like") {
                let code = u32::try_from(v).map_err(|_| {
                    mismatch(format!(
                        "column `{}` got value {v}, not encodable as a key code",
                        incoming.name
                    ))
                })?;
                k.push(code);
            }
            ColumnData::Key(k)
        }
        (old, new) => {
            return Err(StorageError::TypeMismatch {
                column: incoming.name.clone(),
                expected: old.type_name(),
                got: new.type_name(),
            })
        }
    })
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

    /// The values of a key-like column, read whole.
    fn ints(t: &Table, name: &str) -> Vec<i64> {
        t.column(name).unwrap().i64_iter().unwrap().collect()
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
        assert_eq!(ints(&t, "ckey"), [0, 1, 2]);
        assert!(t.column("nation").unwrap().i64_iter().is_none());
        assert!(t.column("ghost").is_none());
        assert_eq!(t.column_index("balance"), Some(2));
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
        assert_eq!(ints(&appended, "ckey"), [0, 1, 2, 3]);
        assert_eq!(appended.column("nation").unwrap().string_at(3), Some("SPAIN"));
        assert_eq!(appended.column("nation").unwrap().string_at(2), Some("ITALY"));
        let col = appended.column("nation").unwrap();
        let (_, dict) = col.as_dict().unwrap();
        assert_eq!(dict.len(), 3, "dictionary grew by the one new value");
        let col = t.column("nation").unwrap();
        let (_, old_dict) = col.as_dict().unwrap();
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
        let col = appended.column("nation").unwrap();
        let (_, dict) = col.as_dict().unwrap();
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
        assert_eq!(ints(&appended, "ckey"), ints(&t, "ckey"));
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
        assert!(enc.column("ckey").unwrap().as_i64().is_none(), "encoded keys have no plain slice");
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
        let k = grown.column("ckey").unwrap();
        let k = k.as_key().unwrap();
        assert_eq!(k.domain, 31);
        assert_eq!(k.get(100), 24);
        assert_eq!(k.get(101), 30);
        // Round trip back to plain reproduces the same values.
        let plain = grown.decode_keys();
        assert_eq!(ints(&plain, "ckey")[99..], [24, 24, 30]);
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

    /// `(appended, built)`: a full-tail seed of [`TAIL_ROWS`] rows plus a
    /// 3-row batch that must start a second segment, and the same rows
    /// built in one table.
    fn segmented() -> (Table, Table) {
        let n = TAIL_ROWS + 3;
        let columns = |rows: std::ops::Range<usize>| {
            vec![
                Column::i64("ckey", rows.clone().map(|i| (i % 7) as i64).collect()),
                Column::f64("balance", rows.clone().map(|i| i as f64 / 4.0).collect()),
                Column::from_strings("nation", rows.map(|i| ["IT", "FR", "ES"][i % 3])),
            ]
        };
        let seed = Table::new("c", columns(0..TAIL_ROWS)).unwrap();
        let seed = seed.encode_keys(&[("ckey", 7)]).unwrap();
        let appended = seed.append_batch(&columns(TAIL_ROWS..n)).unwrap();
        assert_eq!(appended.segments().len(), 2);
        assert!(Arc::ptr_eq(&seed.segments()[0], &appended.segments()[0]));
        let built = Table::new("c", columns(0..n)).unwrap().encode_keys(&[("ckey", 7)]).unwrap();
        (appended, built)
    }

    #[test]
    fn segmented_readers_see_every_segment() {
        let (appended, built) = segmented();
        let rows: Vec<u32> = vec![TAIL_ROWS as u32 + 2, 0, TAIL_ROWS as u32, 5];
        let (a, b) = (appended.take_rows(&rows), built.take_rows(&rows));
        assert_eq!(ints(&a, "ckey"), ints(&b, "ckey"));
        assert_eq!(a.column("balance").unwrap().as_f64(), b.column("balance").unwrap().as_f64());
        for r in 0..rows.len() {
            assert_eq!(
                a.column("nation").unwrap().string_at(r),
                b.column("nation").unwrap().string_at(r)
            );
        }
        let plain = appended.decode_keys();
        assert_eq!(plain.segments().len(), 2, "decoding keeps the segments");
        assert_eq!(ints(&plain, "ckey"), ints(&built, "ckey"));
        assert!(plain.column("ckey").unwrap().as_i64().is_some());
        let encoded = plain.encode_keys(&[("ckey", 7)]).unwrap();
        assert_eq!(encoded.segments().len(), 2, "encoding keeps the segments");
        assert_eq!(ints(&encoded, "ckey"), ints(&built, "ckey"));
        let (stats, whole) = (appended.column_stats(), built.column_stats());
        assert_eq!(stats[0].plain_bytes, whole[0].plain_bytes, "key stats sum both segments");
        assert_eq!(stats[1].bytes, whole[1].bytes, "measure stats sum both segments");
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
        let chunk = t.chunks(0, 3).next().unwrap();
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
