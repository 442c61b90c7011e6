//! Typed columnar storage.

use std::sync::Arc;

use crate::dictionary::Dictionary;
use crate::encode::{CodeStore, KeyColumn};

/// The physical data of one column.
///
/// * `I64` — integer measures and plain surrogate/foreign keys;
/// * `F64` — floating-point measures;
/// * `Dict` — dictionary-encoded strings (dimension attributes), with the
///   codes bit-packed or run-length encoded;
/// * `Key` — encoded dimension keys: narrow codes packed at a width chosen
///   from the domain cardinality (see [`crate::encode`]).
///
/// `I64` and `Key` are the same *logical* type (integer keys); `Key` is
/// the compressed physical layout produced by [`Column::encode_key`].
#[derive(Debug, Clone)]
pub enum ColumnData {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Dict { codes: CodeStore, dict: Arc<Dictionary> },
    Key(KeyColumn),
}

impl ColumnData {
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Dict { codes, .. } => codes.len(),
            ColumnData::Key(k) => k.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            ColumnData::I64(_) => "i64",
            ColumnData::F64(_) => "f64",
            ColumnData::Dict { .. } => "dict",
            ColumnData::Key(_) => "key",
        }
    }

    /// Physical encoding name for storage statistics (distinguishes the
    /// packed layouts the type name alone does not).
    pub fn encoding_name(&self) -> &'static str {
        match self {
            ColumnData::I64(_) => "i64",
            ColumnData::F64(_) => "f64",
            ColumnData::Dict { codes, .. } => match codes {
                CodeStore::BitPacked { .. } => "dict-bitpack",
                CodeStore::Rle { .. } => "dict-rle",
            },
            ColumnData::Key(k) => match &k.codes {
                CodeStore::BitPacked { .. } => "key-bitpack",
                CodeStore::Rle { .. } => "key-rle",
            },
        }
    }

    /// True heap footprint in bytes of the physical representation (used
    /// by the catalog to report storage statistics).
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnData::I64(v) => v.len() * 8,
            ColumnData::F64(v) => v.len() * 8,
            ColumnData::Dict { codes, dict } => {
                codes.byte_size() + dict.values().iter().map(|s| s.len() + 24).sum::<usize>()
            }
            ColumnData::Key(k) => k.byte_size(),
        }
    }

    /// What the column would occupy stored plain (keys and integer codes
    /// as `i64`, strings as unpacked `u32` codes plus the dictionary) —
    /// the denominator of the per-column compression ratio in `stats`.
    pub fn plain_byte_size(&self) -> usize {
        match self {
            ColumnData::I64(v) => v.len() * 8,
            ColumnData::F64(v) => v.len() * 8,
            ColumnData::Dict { codes, dict } => {
                codes.len() * 4 + dict.values().iter().map(|s| s.len() + 24).sum::<usize>()
            }
            ColumnData::Key(k) => k.len() * 8,
        }
    }
}

/// A named column.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: String,
    pub data: ColumnData,
}

impl Column {
    pub fn i64(name: impl Into<String>, data: Vec<i64>) -> Self {
        Column { name: name.into(), data: ColumnData::I64(data) }
    }

    pub fn f64(name: impl Into<String>, data: Vec<f64>) -> Self {
        Column { name: name.into(), data: ColumnData::F64(data) }
    }

    pub fn dict(name: impl Into<String>, codes: Vec<u32>, dict: Arc<Dictionary>) -> Self {
        let domain = (dict.len() as u32).max(1);
        Column {
            name: name.into(),
            data: ColumnData::Dict { codes: CodeStore::from_codes(&codes, domain), dict },
        }
    }

    /// Builds an encoded key column from plain codes over `0 .. domain`.
    pub fn key(name: impl Into<String>, codes: &[u32], domain: u32) -> Self {
        Column { name: name.into(), data: ColumnData::Key(KeyColumn::new(codes, domain)) }
    }

    /// Builds a dictionary-encoded column from raw strings.
    pub fn from_strings<I, S>(name: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut dict = Dictionary::new();
        let codes: Vec<u32> = values.into_iter().map(|v| dict.intern(v.as_ref())).collect();
        Column::dict(name, codes, Arc::new(dict))
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The `i64` values, if this is a *plain* integer column. Encoded key
    /// columns do not expose a borrowed slice — use [`Column::i64_iter`]
    /// for representation-independent reads.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::I64(v) => Some(v),
            _ => None,
        }
    }

    /// The `f64` values, if this is a float column.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The dictionary codes, if this is an encoded string column.
    pub fn as_dict(&self) -> Option<(&CodeStore, &Arc<Dictionary>)> {
        match &self.data {
            ColumnData::Dict { codes, dict } => Some((codes, dict)),
            _ => None,
        }
    }

    /// The encoded key column, if this is one.
    pub fn as_key(&self) -> Option<&KeyColumn> {
        match &self.data {
            ColumnData::Key(k) => Some(k),
            _ => None,
        }
    }

    /// Whether this column holds integer keys in either physical layout
    /// (plain `i64` or encoded codes).
    pub fn is_key_like(&self) -> bool {
        matches!(self.data, ColumnData::I64(_) | ColumnData::Key(_))
    }

    /// Iterates the values of a key-like column as `i64`, decoding encoded
    /// keys row by row — the one row-at-a-time key reader (appends, shard
    /// partitioning, binding validation); `None` for non-key columns.
    pub fn i64_iter(&self) -> Option<impl Iterator<Item = i64> + '_> {
        let (plain, encoded): (&[i64], _) = match &self.data {
            ColumnData::I64(v) => (v, None),
            ColumnData::Key(k) => (&[], Some(k)),
            _ => return None,
        };
        Some((0..self.len()).map(move |row| match encoded {
            Some(k) => k.get(row) as i64,
            None => plain[row],
        }))
    }

    /// Encodes a plain `i64` key column into narrow codes over
    /// `0 .. domain` (growing the domain to cover the observed maximum).
    /// Returns `None` when the column holds negative or non-integer data —
    /// only validated key columns are encodable. Already-encoded columns
    /// pass through unchanged.
    pub fn encode_key(&self, domain: u32) -> Option<Column> {
        match &self.data {
            ColumnData::Key(_) => Some(self.clone()),
            ColumnData::I64(v) => {
                let mut codes = Vec::with_capacity(v.len());
                for &x in v {
                    codes.push(u32::try_from(x).ok()?);
                }
                Some(Column::key(self.name.clone(), &codes, domain))
            }
            _ => None,
        }
    }

    /// The plain-`i64` equivalent of this column (decoding `Key`); other
    /// types pass through unchanged. Used to build uncompressed baselines.
    pub fn decode_key(&self) -> Column {
        match &self.data {
            ColumnData::Key(k) => Column::i64(
                self.name.clone(),
                k.codes.to_vec().into_iter().map(|c| c as i64).collect(),
            ),
            _ => self.clone(),
        }
    }

    /// Concatenates the pieces of one column (same name and physical type,
    /// in row order) into a single column: what a segmented table's column
    /// is as a whole. Dictionary pieces share codes — each later dictionary
    /// extends the earlier ones — so the last piece's dictionary decodes
    /// every code; key pieces take the widest domain.
    ///
    /// # Panics
    /// When `parts` is empty or mixes physical types.
    pub fn concat(parts: &[&Column]) -> Column {
        let last = parts.last().expect("a column has at least one piece");
        let data = match &last.data {
            ColumnData::I64(_) => ColumnData::I64(
                parts.iter().flat_map(|c| c.as_i64().expect("i64 piece")).copied().collect(),
            ),
            ColumnData::F64(_) => ColumnData::F64(
                parts.iter().flat_map(|c| c.as_f64().expect("f64 piece")).copied().collect(),
            ),
            ColumnData::Dict { dict, .. } => {
                let codes: Vec<u32> = parts
                    .iter()
                    .flat_map(|c| c.as_dict().expect("dict piece").0.to_vec())
                    .collect();
                let domain = (dict.len() as u32).max(1);
                ColumnData::Dict {
                    codes: CodeStore::from_codes(&codes, domain),
                    dict: dict.clone(),
                }
            }
            ColumnData::Key(_) => {
                let keys: Vec<&KeyColumn> =
                    parts.iter().map(|c| c.as_key().expect("key piece")).collect();
                let codes: Vec<u32> = keys.iter().flat_map(|k| k.codes.to_vec()).collect();
                let domain = keys.iter().map(|k| k.domain).max().unwrap_or(1);
                ColumnData::Key(KeyColumn::new(&codes, domain))
            }
        };
        Column { name: last.name.clone(), data }
    }

    /// The string at `row`, if this is a dictionary column.
    pub fn string_at(&self, row: usize) -> Option<&str> {
        match &self.data {
            ColumnData::Dict { codes, dict } => {
                (row < codes.len()).then(|| codes.get(row)).and_then(|c| dict.value(c))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_accessors() {
        let c = Column::i64("k", vec![1, 2, 3]);
        assert_eq!(c.as_i64(), Some(&[1i64, 2, 3][..]));
        assert!(c.as_f64().is_none());
        assert!(c.is_key_like());
    }

    #[test]
    fn string_columns_dictionary_encode() {
        let c = Column::from_strings("region", ["ASIA", "EUROPE", "ASIA"]);
        let (codes, dict) = c.as_dict().unwrap();
        assert_eq!(codes.to_vec(), vec![0, 1, 0]);
        assert_eq!(dict.len(), 2);
        assert_eq!(c.string_at(2), Some("ASIA"));
        assert_eq!(c.string_at(3), None);
        assert!(!c.is_key_like());
    }

    #[test]
    fn key_columns_encode_and_decode() {
        let plain = Column::i64("ckey", vec![3, 0, 24, 3]);
        let encoded = plain.encode_key(25).unwrap();
        assert_eq!(encoded.data.type_name(), "key");
        assert!(encoded.is_key_like());
        assert_eq!(encoded.as_key().unwrap().domain, 25);
        assert_eq!(encoded.i64_iter().unwrap().collect::<Vec<_>>(), vec![3, 0, 24, 3]);
        let back = encoded.decode_key();
        assert_eq!(back.as_i64(), Some(&[3i64, 0, 24, 3][..]));
        // Negative values are not encodable keys.
        assert!(Column::i64("bad", vec![-1, 0]).encode_key(4).is_none());
        // Encoding is idempotent.
        assert!(encoded.encode_key(25).is_some());
    }

    #[test]
    fn i64_iter_reads_both_representations() {
        let plain = Column::i64("k", vec![2, 6, 3]);
        let encoded = plain.encode_key(8).unwrap();
        assert_eq!(plain.i64_iter().unwrap().collect::<Vec<_>>(), vec![2, 6, 3]);
        assert_eq!(encoded.i64_iter().unwrap().collect::<Vec<_>>(), vec![2, 6, 3]);
        assert!(Column::f64("m", vec![1.0]).i64_iter().is_none());
        assert!(Column::from_strings("s", ["a"]).i64_iter().is_none());
    }

    #[test]
    fn byte_size_is_sane() {
        let c = Column::f64("m", vec![0.0; 100]);
        assert_eq!(c.data.byte_size(), 800);
        assert_eq!(c.data.type_name(), "f64");
        // An encoded 25-member key column packs 5 bits per row: far below
        // its 8-byte-per-row plain footprint.
        let k = Column::i64("k", (0..1000).map(|i| i % 25).collect()).encode_key(25).unwrap();
        assert!(k.data.byte_size() < 1000);
        assert_eq!(k.data.plain_byte_size(), 8000);
        assert_eq!(k.data.encoding_name(), "key-bitpack");
    }
}
