//! Chunked (morsel-wise) access to columnar tables.
//!
//! A [`DataChunk`] is a zero-copy view over a contiguous row range of a
//! [`Table`]: column slices plus an optional selection vector of
//! chunk-local row ids. [`Table::morsels`] cuts a table into fixed-size
//! chunks — *morsels*, the unit of both work distribution and deterministic
//! result merging in the parallel engine: partial aggregates are combined
//! in morsel-index order, so the reduction tree is a function of the data
//! and the morsel size alone, never of the thread count or the scheduling.
//!
//! [`NumericSlice`] is the borrow-based numeric accessor behind
//! [`Table::numeric_slice`]: it reads `f64` values straight out of `i64`
//! or `f64` storage, so scanning an integer measure never materializes a
//! converted copy of the whole column.

use crate::column::{Column, ColumnData};
use crate::error::StorageError;
use crate::table::Table;

/// A borrowed numeric column view: `f64` reads over `i64` or `f64` storage
/// without a converted copy.
#[derive(Debug, Clone, Copy)]
pub enum NumericSlice<'a> {
    I64(&'a [i64]),
    F64(&'a [f64]),
}

impl<'a> NumericSlice<'a> {
    /// Borrows a numeric view from a column; `None` for dictionary and
    /// encoded-key columns (measures are never stored encoded).
    pub fn from_column(col: &'a Column) -> Option<Self> {
        match &col.data {
            ColumnData::I64(v) => Some(NumericSlice::I64(v)),
            ColumnData::F64(v) => Some(NumericSlice::F64(v)),
            ColumnData::Dict { .. } | ColumnData::Key(_) => None,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            NumericSlice::I64(v) => v.len(),
            NumericSlice::F64(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-slice of `len` values starting at `offset` (both in rows).
    pub fn slice(&self, offset: usize, len: usize) -> NumericSlice<'a> {
        match self {
            NumericSlice::I64(v) => NumericSlice::I64(&v[offset..offset + len]),
            NumericSlice::F64(v) => NumericSlice::F64(&v[offset..offset + len]),
        }
    }

    /// Materializes the view as owned `f64`s, for the few callers that
    /// genuinely need a contiguous converted copy.
    pub fn to_vec(&self) -> Vec<f64> {
        match self {
            NumericSlice::I64(v) => v.iter().map(|x| *x as f64).collect(),
            NumericSlice::F64(v) => v.to_vec(),
        }
    }
}

/// A zero-copy view over rows `offset .. offset + len` of a table, with an
/// optional selection vector of chunk-local row ids (the rows that passed
/// a predicate).
#[derive(Debug, Clone, Copy)]
pub struct DataChunk<'a> {
    table: &'a Table,
    offset: usize,
    len: usize,
    selection: Option<&'a [u32]>,
}

impl<'a> DataChunk<'a> {
    pub(crate) fn new(table: &'a Table, offset: usize, len: usize) -> Self {
        debug_assert!(offset + len <= table.n_rows());
        DataChunk { table, offset, len, selection: None }
    }

    /// Attaches a selection vector of chunk-local row ids (each `< len`).
    pub fn with_selection(mut self, selection: &'a [u32]) -> Self {
        self.selection = Some(selection);
        self
    }

    /// The underlying table.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// First table row covered by this chunk.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Rows in the chunk (before selection).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The selection vector, if one is attached.
    pub fn selection(&self) -> Option<&'a [u32]> {
        self.selection
    }

    /// Rows surviving selection (`len` when no selection is attached).
    pub fn selected_len(&self) -> usize {
        self.selection.map_or(self.len, <[u32]>::len)
    }

    /// Chunk-local slice of the `i64` column at `col` (by column index).
    /// Plain storage only — encoded keys have no borrowable `i64` slice;
    /// use [`DataChunk::key_lane`] for representation-independent reads.
    pub fn i64_at(&self, col: usize) -> Option<&'a [i64]> {
        let column = self.table.columns().get(col)?;
        match &column.data {
            ColumnData::I64(v) => Some(&v[self.offset..self.offset + self.len]),
            _ => None,
        }
    }

    /// Chunk-local key codes of the key-like column at `col`, decoded into
    /// `scratch` as a flat `u32` lane. This is the decode-into-scratch fast
    /// path of the morsel kernels: plain `i64` keys are narrowed, encoded
    /// keys are unpacked, and the inner scan loops downstream see the same
    /// flat buffer either way — they never branch on the encoding.
    ///
    /// Values are assumed in-domain (`0 ..= u32::MAX`): bindings and the
    /// append path validate keys before they reach a scan. Returns `None`
    /// for float and dictionary columns.
    pub fn key_lane<'s>(&self, col: usize, scratch: &'s mut Vec<u32>) -> Option<&'s [u32]> {
        let column = self.table.columns().get(col)?;
        let (lo, hi) = (self.offset, self.offset + self.len);
        scratch.clear();
        match &column.data {
            ColumnData::I64(v) => scratch.extend(v[lo..hi].iter().map(|&x| x as u32)),
            ColumnData::Key(k) => k.codes.decode_range(lo, hi, scratch),
            _ => return None,
        }
        Some(&scratch[..])
    }

    /// Chunk-local measure values of the numeric column at `col` as a flat
    /// `f64` lane. Float storage is borrowed zero-copy; integer storage is
    /// converted into `scratch`. Returns `None` for dictionary and
    /// encoded-key columns.
    pub fn f64_lane<'s>(&self, col: usize, scratch: &'s mut Vec<f64>) -> Option<&'s [f64]>
    where
        'a: 's,
    {
        let column = self.table.columns().get(col)?;
        let (lo, hi) = (self.offset, self.offset + self.len);
        match &column.data {
            ColumnData::F64(v) => Some(&v[lo..hi]),
            ColumnData::I64(v) => {
                scratch.clear();
                scratch.extend(v[lo..hi].iter().map(|&x| x as f64));
                Some(&scratch[..])
            }
            _ => None,
        }
    }

    /// Chunk-local numeric view of the column at `col` (by column index).
    pub fn numeric_at(&self, col: usize) -> Option<NumericSlice<'a>> {
        let column = self.table.columns().get(col)?;
        Some(NumericSlice::from_column(column)?.slice(self.offset, self.len))
    }

    /// Chunk-local slice of an `i64` column by name.
    pub fn require_i64(&self, name: &str) -> Result<&'a [i64], StorageError> {
        let idx = self.table.column_index(name).ok_or_else(|| StorageError::UnknownColumn {
            table: self.table.name().to_string(),
            column: name.to_string(),
        })?;
        self.i64_at(idx).ok_or_else(|| StorageError::TypeMismatch {
            column: name.to_string(),
            expected: "i64",
            got: self.table.columns()[idx].data.type_name(),
        })
    }

    /// Chunk-local numeric view of a column by name.
    pub fn require_numeric(&self, name: &str) -> Result<NumericSlice<'a>, StorageError> {
        let idx = self.table.column_index(name).ok_or_else(|| StorageError::UnknownColumn {
            table: self.table.name().to_string(),
            column: name.to_string(),
        })?;
        self.numeric_at(idx).ok_or_else(|| StorageError::TypeMismatch {
            column: name.to_string(),
            expected: "numeric",
            got: self.table.columns()[idx].data.type_name(),
        })
    }
}

/// Iterator cutting a table into fixed-size [`DataChunk`]s; see
/// [`Table::morsels`].
#[derive(Debug)]
pub struct Morsels<'a> {
    table: &'a Table,
    chunk_rows: usize,
    next: usize,
}

impl<'a> Morsels<'a> {
    pub(crate) fn new(table: &'a Table, chunk_rows: usize) -> Self {
        Morsels { table, chunk_rows: chunk_rows.max(1), next: 0 }
    }

    /// Total number of morsels this iterator will yield.
    pub fn count_hint(&self) -> usize {
        self.table.n_rows().div_ceil(self.chunk_rows)
    }
}

impl<'a> Iterator for Morsels<'a> {
    type Item = DataChunk<'a>;

    fn next(&mut self) -> Option<DataChunk<'a>> {
        let n = self.table.n_rows();
        if self.next >= n {
            return None;
        }
        let offset = self.next;
        let len = self.chunk_rows.min(n - offset);
        self.next = offset + len;
        Some(DataChunk::new(self.table, offset, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                Column::i64("k", (0..10).collect()),
                Column::f64("m", (0..10).map(|i| i as f64 / 2.0).collect()),
                Column::from_strings("s", ["a"; 10]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn numeric_slice_reads_both_types() {
        let t = table();
        let k = NumericSlice::from_column(t.require_column("k").unwrap()).unwrap();
        let m = NumericSlice::from_column(t.require_column("m").unwrap()).unwrap();
        assert_eq!(k.to_vec()[3], 3.0);
        assert_eq!(m.to_vec()[3], 1.5);
        assert_eq!(k.len(), 10);
        assert!(NumericSlice::from_column(t.require_column("s").unwrap()).is_none());
        let sub = k.slice(4, 3);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.to_vec(), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn morsels_cover_the_table_exactly_once() {
        let t = table();
        let chunks: Vec<_> = t.morsels(4).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(t.morsels(4).count_hint(), 3);
        assert_eq!(
            chunks.iter().map(|c| (c.offset(), c.len())).collect::<Vec<_>>(),
            vec![(0, 4), (4, 4), (8, 2)]
        );
        assert_eq!(chunks.iter().map(DataChunk::len).sum::<usize>(), t.n_rows());
        // Chunk-local column views line up with the global offsets.
        let last = &chunks[2];
        assert_eq!(last.require_i64("k").unwrap(), &[8, 9]);
        assert_eq!(last.require_numeric("m").unwrap().to_vec(), vec![4.0, 4.5]);
        assert_eq!(last.i64_at(0).unwrap(), &[8, 9]);
        assert!(last.i64_at(1).is_none(), "f64 column is not i64");
        assert!(last.numeric_at(2).is_none(), "dict column is not numeric");
    }

    #[test]
    fn selection_vectors_attach() {
        let t = table();
        let chunk = t.chunk(0, 6);
        assert_eq!(chunk.selected_len(), 6);
        let sel = [1u32, 4];
        let chunk = chunk.with_selection(&sel);
        assert_eq!(chunk.selected_len(), 2);
        assert_eq!(chunk.selection(), Some(&sel[..]));
    }

    #[test]
    fn zero_chunk_rows_is_clamped_and_empty_tables_yield_nothing() {
        let t = table();
        assert_eq!(t.morsels(0).count(), 10, "chunk_rows clamps to 1");
        let empty = Table::new("e", vec![Column::i64("k", vec![])]).unwrap();
        assert_eq!(empty.morsels(4).count(), 0);
        assert_eq!(empty.morsels(4).count_hint(), 0);
    }

    #[test]
    fn lanes_decode_into_scratch_regardless_of_encoding() {
        let plain = table();
        let encoded = Table::new(
            "t2",
            vec![
                plain.require_column("k").unwrap().encode_key(10).unwrap(),
                plain.require_column("m").unwrap().clone(),
                Column::i64("im", (0..10).collect()),
            ],
        )
        .unwrap();
        let mut keys = Vec::new();
        let mut vals = Vec::new();
        // Key lanes: identical flat u32 codes from either representation.
        let chunk = plain.chunk(4, 3);
        assert_eq!(chunk.key_lane(0, &mut keys).unwrap(), &[4, 5, 6]);
        let chunk = encoded.chunk(4, 3);
        assert_eq!(chunk.key_lane(0, &mut keys).unwrap(), &[4, 5, 6]);
        assert!(chunk.key_lane(1, &mut keys).is_none(), "f64 column has no key lane");
        // Measure lanes: f64 borrows zero-copy, i64 converts into scratch.
        assert_eq!(chunk.f64_lane(1, &mut vals).unwrap(), &[2.0, 2.5, 3.0]);
        assert_eq!(chunk.f64_lane(2, &mut vals).unwrap(), &[4.0, 5.0, 6.0]);
        assert!(chunk.f64_lane(0, &mut vals).is_none(), "encoded keys are not measures");
    }

    #[test]
    fn type_errors_are_reported_by_name() {
        let t = table();
        let chunk = t.chunk(0, 4);
        assert!(matches!(
            chunk.require_i64("m"),
            Err(StorageError::TypeMismatch { expected: "i64", .. })
        ));
        assert!(matches!(chunk.require_numeric("ghost"), Err(StorageError::UnknownColumn { .. })));
    }
}
