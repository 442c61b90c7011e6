//! Compact binary persistence for tables.
//!
//! Generated benchmark data is expensive to rebuild at the largest scale
//! factor, so the experiment harness caches tables on disk. The format is a
//! simple length-prefixed columnar layout:
//!
//! ```text
//! magic "OLAPTBL1" | table name | n_columns |
//!   per column: name | type tag | payload
//! ```
//!
//! Strings are `u32`-length-prefixed UTF-8; numeric payloads are row counts
//! followed by little-endian values; dictionary payloads are the code vector
//! followed by the dictionary strings; encoded-key payloads are the domain,
//! a flag byte, and the plain code vector. The flag byte is always 0: it
//! once announced a null mask, and key columns hold no nulls, so a file
//! with the flag set is refused as corrupt.
//!
//! Code sequences (dictionary and key columns) are stored *unpacked* on
//! disk: bit-packing vs run-length is an in-memory layout choice re-derived
//! deterministically on load, so the file format stays independent of the
//! encoder's current selection heuristic.

use std::sync::Arc;

use crate::column::{Column, ColumnData};
use crate::dictionary::Dictionary;
use crate::encode::{CodeStore, KeyColumn};
use crate::error::StorageError;
use crate::table::Table;

const MAGIC: &[u8; 8] = b"OLAPTBL1";

const TAG_I64: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_DICT: u8 = 3;
const TAG_KEY: u8 = 4;

/// A bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StorageError> {
        if self.remaining() < n {
            return Err(StorageError::Corrupt(format!("truncated {what}")));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn get_u8(&mut self, what: &str) -> Result<u8, StorageError> {
        Ok(self.take(1, what)?[0])
    }

    fn get_u32_le(&mut self, what: &str) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn get_u64_le(&mut self, what: &str) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn get_i64_le(&mut self, what: &str) -> Result<i64, StorageError> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn get_f64_le(&mut self, what: &str) -> Result<f64, StorageError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut Reader<'_>) -> Result<String, StorageError> {
    let len = r.get_u32_le("string length")? as usize;
    let bytes = r.take(len, "string payload")?;
    String::from_utf8(bytes.to_vec()).map_err(|_| StorageError::Corrupt("invalid UTF-8".into()))
}

/// Serializes a table to its binary representation.
pub fn write_table(table: &Table) -> Vec<u8> {
    let mut buf = Vec::with_capacity(table.byte_size() + 1024);
    buf.extend_from_slice(MAGIC);
    put_str(&mut buf, table.name());
    // A segmented table is written whole: the format has no segments.
    let columns = table.columns();
    buf.extend_from_slice(&(columns.len() as u32).to_le_bytes());
    for col in columns.iter() {
        put_str(&mut buf, &col.name);
        match &col.data {
            ColumnData::I64(v) => {
                buf.push(TAG_I64);
                buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for x in v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::F64(v) => {
                buf.push(TAG_F64);
                buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for x in v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Dict { codes, dict } => {
                buf.push(TAG_DICT);
                buf.extend_from_slice(&(codes.len() as u64).to_le_bytes());
                for c in codes.to_vec() {
                    buf.extend_from_slice(&c.to_le_bytes());
                }
                buf.extend_from_slice(&(dict.len() as u32).to_le_bytes());
                for value in dict.values() {
                    put_str(&mut buf, value);
                }
            }
            ColumnData::Key(k) => {
                buf.push(TAG_KEY);
                buf.extend_from_slice(&(k.len() as u64).to_le_bytes());
                buf.extend_from_slice(&k.domain.to_le_bytes());
                buf.push(0);
                for c in k.codes.to_vec() {
                    buf.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
    }
    buf
}

/// Deserializes a table from its binary representation.
pub fn read_table(buf: impl AsRef<[u8]>) -> Result<Table, StorageError> {
    let mut r = Reader::new(buf.as_ref());
    if r.take(MAGIC.len(), "magic").ok() != Some(&MAGIC[..]) {
        return Err(StorageError::Corrupt("bad magic".into()));
    }
    let name = get_str(&mut r)?;
    let n_cols = r.get_u32_le("column count")? as usize;
    let mut columns = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let col_name = get_str(&mut r)?;
        let tag = r.get_u8("column tag")?;
        let data = match tag {
            TAG_I64 => {
                let n = read_len(&mut r)?;
                ensure(&r, n * 8)?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(r.get_i64_le("i64 payload")?);
                }
                ColumnData::I64(v)
            }
            TAG_F64 => {
                let n = read_len(&mut r)?;
                ensure(&r, n * 8)?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(r.get_f64_le("f64 payload")?);
                }
                ColumnData::F64(v)
            }
            TAG_DICT => {
                let n = read_len(&mut r)?;
                ensure(&r, n * 4)?;
                let mut codes = Vec::with_capacity(n);
                for _ in 0..n {
                    codes.push(r.get_u32_le("code payload")?);
                }
                let dict_len = r.get_u32_le("dictionary size")? as usize;
                let mut dict = Dictionary::new();
                for _ in 0..dict_len {
                    dict.intern(get_str(&mut r)?);
                }
                if let Some(&bad) = codes.iter().find(|&&c| c as usize >= dict.len()) {
                    return Err(StorageError::Corrupt(format!(
                        "dictionary code {bad} out of range in column `{col_name}`"
                    )));
                }
                ColumnData::Dict {
                    codes: CodeStore::from_codes(&codes, (dict.len() as u32).max(1)),
                    dict: Arc::new(dict),
                }
            }
            TAG_KEY => {
                let n = read_len(&mut r)?;
                let domain = r.get_u32_le("key domain")?;
                let flag = r.get_u8("key flag")?;
                if flag != 0 {
                    return Err(StorageError::Corrupt(format!(
                        "key column `{col_name}` flags a null mask ({flag})"
                    )));
                }
                ensure(&r, n * 4)?;
                let mut codes = Vec::with_capacity(n);
                for _ in 0..n {
                    codes.push(r.get_u32_le("key code payload")?);
                }
                if let Some(&bad) = codes.iter().find(|&&c| c >= domain.max(1)) {
                    return Err(StorageError::Corrupt(format!(
                        "key code {bad} out of domain {domain} in column `{col_name}`"
                    )));
                }
                ColumnData::Key(KeyColumn::new(&codes, domain))
            }
            other => return Err(StorageError::Corrupt(format!("unknown column tag {other}"))),
        };
        columns.push(Column { name: col_name, data });
    }
    Table::new(name, columns)
}

fn read_len(r: &mut Reader<'_>) -> Result<usize, StorageError> {
    Ok(r.get_u64_le("length")? as usize)
}

fn ensure(r: &Reader<'_>, bytes: usize) -> Result<(), StorageError> {
    if r.remaining() < bytes {
        Err(StorageError::Corrupt("truncated payload".into()))
    } else {
        Ok(())
    }
}

/// Writes a table to a file.
pub fn save_table(table: &Table, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, write_table(table))
}

/// Reads a table from a file.
pub fn load_table(path: &std::path::Path) -> Result<Table, StorageError> {
    let data = std::fs::read(path)
        .map_err(|e| StorageError::Corrupt(format!("cannot read {}: {e}", path.display())))?;
    read_table(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(table: &Table) -> Table {
        read_table(write_table(table)).unwrap()
    }

    #[test]
    fn mixed_table_round_trips() {
        let t = Table::new(
            "lineorder",
            vec![
                Column::i64("custkey", vec![3, 1, 4, 1, 5]),
                Column::f64("revenue", vec![0.5, -1.25, 3.0, f64::MAX, 0.0]),
                Column::from_strings("priority", ["HIGH", "LOW", "HIGH", "MEDIUM", "LOW"]),
            ],
        )
        .unwrap();
        let back = round_trip(&t);
        assert_eq!(back.name(), "lineorder");
        let custkey: Vec<i64> = back.column("custkey").unwrap().i64_iter().unwrap().collect();
        assert_eq!(custkey, [3, 1, 4, 1, 5]);
        assert_eq!(back.column("revenue").unwrap().as_f64().unwrap()[3], f64::MAX);
        assert_eq!(back.column("priority").unwrap().string_at(3), Some("MEDIUM"));
    }

    #[test]
    fn empty_table_round_trips() {
        let t = Table::new("empty", vec![]).unwrap();
        assert_eq!(round_trip(&t).n_rows(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_table(b"NOTATBL0xxxxx").unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    #[test]
    fn truncation_rejected() {
        let t = Table::new("t", vec![Column::i64("k", vec![1, 2, 3])]).unwrap();
        let full = write_table(&t);
        for cut in [4, 10, full.len() - 3] {
            assert!(read_table(&full[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn encoded_key_columns_round_trip() {
        let clustered: Vec<i64> = (0..6).flat_map(|v| std::iter::repeat_n(v, 50)).collect();
        let t = Table::new(
            "fact",
            vec![
                Column::i64("ckey", (0..300).map(|i| i % 25).collect()).encode_key(25).unwrap(),
                Column::i64("dkey", clustered.clone()).encode_key(6).unwrap(),
            ],
        )
        .unwrap();
        let back = round_trip(&t);
        let ckey = back.column("ckey").unwrap();
        let ckey = ckey.as_key().unwrap();
        assert_eq!(ckey.domain, 25);
        assert_eq!(ckey.codes, t.column("ckey").unwrap().as_key().unwrap().codes);
        let dkey = back.column("dkey").unwrap();
        let dkey = dkey.as_key().unwrap();
        assert_eq!(dkey.codes.encoding_name(), "rle", "clustered column re-chooses RLE");
        let plain = back.decode_keys();
        assert_eq!(plain.column("dkey").unwrap().as_i64().unwrap(), &clustered[..]);
    }

    #[test]
    fn out_of_domain_key_codes_rejected() {
        let t = Table::new("fact", vec![Column::i64("k", vec![0, 1, 2]).encode_key(3).unwrap()])
            .unwrap();
        let mut buf = write_table(&t);
        // Shrink the domain field below the stored codes. Offset: magic(8)
        // + "fact"(4+4) + n_cols(4) + "k"(4+1) + tag(1) + row count(8).
        let pos = 8 + 8 + 4 + 5 + 1 + 8;
        assert_eq!(&buf[pos..pos + 4], &3u32.to_le_bytes(), "domain field moved");
        buf[pos..pos + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(read_table(&buf).is_err());
    }

    #[test]
    fn null_mask_flag_rejected() {
        let t = Table::new("fact", vec![Column::i64("k", vec![0, 1, 2]).encode_key(3).unwrap()])
            .unwrap();
        let mut buf = write_table(&t);
        // The flag byte follows the domain field (see above).
        let pos = 8 + 8 + 4 + 5 + 1 + 8 + 4;
        assert_eq!(buf[pos], 0, "flag byte moved");
        buf[pos] = 1;
        match read_table(&buf) {
            Err(StorageError::Corrupt(message)) => assert!(message.contains("null mask")),
            other => panic!("a set null-mask flag must be refused, got {other:?}"),
        }
    }

    #[test]
    fn segmented_table_writes_like_the_built_one() {
        let n = crate::TAIL_ROWS + 5;
        let columns = |rows: std::ops::Range<usize>| {
            vec![
                Column::i64("k", rows.clone().map(|i| (i % 11) as i64).collect()),
                Column::f64("m", rows.clone().map(|i| i as f64 * 0.5).collect()),
                Column::from_strings("s", rows.map(|i| format!("v{}", i / 30_000))),
            ]
        };
        let seed = Table::new("t", columns(0..crate::TAIL_ROWS)).unwrap();
        let seed = seed.encode_keys(&[("k", 11)]).unwrap();
        let appended = seed.append_batch(&columns(crate::TAIL_ROWS..n)).unwrap();
        assert_eq!(appended.segments().len(), 2);
        let built = Table::new("t", columns(0..n)).unwrap().encode_keys(&[("k", 11)]).unwrap();
        assert_eq!(write_table(&appended), write_table(&built));
        let back = round_trip(&appended);
        assert_eq!(back.segments().len(), 1, "a loaded table is one segment");
        assert_eq!(write_table(&back), write_table(&built));
    }

    #[test]
    fn unicode_strings_survive() {
        let t = Table::new("t", vec![Column::from_strings("city", ["Łódź", "北京", "São Paulo"])])
            .unwrap();
        let back = round_trip(&t);
        assert_eq!(back.column("city").unwrap().string_at(1), Some("北京"));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("assess_olap_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.olap");
        let t = Table::new("t", vec![Column::i64("k", (0..100).collect())]).unwrap();
        save_table(&t, &path).unwrap();
        let back = load_table(&path).unwrap();
        assert_eq!(back.column("k").unwrap().as_i64().unwrap().len(), 100);
        std::fs::remove_file(&path).ok();
    }
}
