//! Chunked (morsel-wise) access to columnar tables.
//!
//! A [`DataChunk`] is a zero-copy view over a contiguous row range of one
//! segment of a [`Table`](crate::Table). [`Table::morsels`](crate::Table::morsels)
//! cuts a table into fixed-size morsels — the unit of both work distribution
//! and deterministic result merging in the parallel engine: partial
//! aggregates are combined in morsel-index order, so the reduction tree is a
//! function of the data and the morsel size alone, never of the thread count
//! or the scheduling. A morsel that spans a segment end is read as one chunk
//! per segment, in row order.
//!
//! The scan kernels read a chunk through two lanes: [`DataChunk::key_lane`]
//! decodes a key column of either physical layout into flat `u32` codes,
//! and [`DataChunk::f64_lane`] reads an `i64` or `f64` measure as flat
//! `f64`s, borrowing float storage zero-copy.

use crate::column::{Column, ColumnData};
use crate::table::Segment;

/// A zero-copy view over rows `start .. start + len` of one segment, which
/// are rows `offset .. offset + len` of the table.
#[derive(Debug, Clone, Copy)]
pub struct DataChunk<'a> {
    segment: &'a Segment,
    start: usize,
    offset: usize,
    len: usize,
}

impl<'a> DataChunk<'a> {
    pub(crate) fn new(segment: &'a Segment, start: usize, offset: usize, len: usize) -> Self {
        debug_assert!(start + len <= segment.n_rows());
        DataChunk { segment, start, offset, len }
    }

    /// First table row covered by this chunk.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Rows in the chunk.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn column(&self, col: usize) -> Option<(&'a Column, usize, usize)> {
        let column = self.segment.columns.get(col)?;
        Some((column, self.start, self.start + self.len))
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
        let (column, lo, hi) = self.column(col)?;
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
        let (column, lo, hi) = self.column(col)?;
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

    /// Whether any row of the chunk may hold a code of the key column at
    /// `col` that satisfies `pred`. Run-length key columns answer exactly
    /// (see [`crate::CodeStore::may_match`]); every other layout answers
    /// `true` for a non-empty chunk.
    pub fn may_match(&self, col: usize, pred: impl Fn(u32) -> bool) -> bool {
        match self.column(col) {
            Some((Column { data: ColumnData::Key(k), .. }, lo, hi)) => {
                k.codes.may_match(lo, hi, pred)
            }
            _ => !self.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::table::Table;

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
    fn morsels_cover_the_table_exactly_once() {
        let t = table();
        let chunks: Vec<_> = t.morsels(4).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(
            chunks.iter().map(|c| (c.offset(), c.len())).collect::<Vec<_>>(),
            vec![(0, 4), (4, 4), (8, 2)]
        );
        assert_eq!(chunks.iter().map(DataChunk::len).sum::<usize>(), t.n_rows());
        // Chunk-local lanes line up with the global offsets.
        let last = &chunks[2];
        assert_eq!(last.key_lane(0, &mut Vec::new()).unwrap(), &[8, 9]);
        assert_eq!(last.f64_lane(1, &mut Vec::new()).unwrap(), &[4.0, 4.5]);
        assert!(last.f64_lane(2, &mut Vec::new()).is_none(), "dict column is not numeric");
    }

    #[test]
    fn zero_chunk_rows_is_clamped_and_empty_tables_yield_nothing() {
        let t = table();
        assert_eq!(t.morsels(0).count(), 10, "chunk_rows clamps to 1");
        let empty = Table::new("e", vec![Column::i64("k", vec![])]).unwrap();
        assert_eq!(empty.morsels(4).count(), 0);
    }

    #[test]
    fn lanes_decode_into_scratch_regardless_of_encoding() {
        let plain = table();
        let encoded = Table::new(
            "t2",
            vec![
                plain.column("k").unwrap().encode_key(10).unwrap(),
                plain.column("m").unwrap().into_owned(),
                Column::i64("im", (0..10).collect()),
            ],
        )
        .unwrap();
        let mut keys = Vec::new();
        let mut vals = Vec::new();
        // Key lanes: identical flat u32 codes from either representation.
        let chunk = plain.chunks(4, 3).next().unwrap();
        assert_eq!(chunk.key_lane(0, &mut keys).unwrap(), &[4, 5, 6]);
        let chunk = encoded.chunks(4, 3).next().unwrap();
        assert_eq!(chunk.key_lane(0, &mut keys).unwrap(), &[4, 5, 6]);
        assert!(chunk.key_lane(1, &mut keys).is_none(), "f64 column has no key lane");
        // Measure lanes: f64 borrows zero-copy, i64 converts into scratch.
        assert_eq!(chunk.f64_lane(1, &mut vals).unwrap(), &[2.0, 2.5, 3.0]);
        assert_eq!(chunk.f64_lane(2, &mut vals).unwrap(), &[4.0, 5.0, 6.0]);
        assert!(chunk.f64_lane(0, &mut vals).is_none(), "encoded keys are not measures");
    }
}
