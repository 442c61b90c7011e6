//! Packed group-by keys.
//!
//! Aggregation resolves one key per qualifying fact row, so key construction
//! dominates the inner loop. When the combined bit width of all group-by
//! components fits a machine word the engine packs the member ids into a
//! single `u64`; otherwise the same fact-scan plan is folded with boxed wide
//! keys (`wide.rs`). The layout also unpacks keys back into member ids when
//! materializing result coordinates.
//!
//! Component 0 occupies the **most-significant** bits, so ascending `u64`
//! key order is lexicographic coordinate order: sorting packed keys sorts
//! cells into the canonical order cubes and views are materialized in.

use olap_model::{CubeSchema, GroupBySet, MemberId};

/// Bit layout of a packed group-by key.
#[derive(Debug, Clone)]
pub struct KeyLayout {
    bits: Vec<u32>,
    shifts: Vec<u32>,
    total_bits: u32,
}

impl KeyLayout {
    /// Computes the layout for components with the given domain
    /// cardinalities. Every component gets `ceil(log2(cardinality))` bits
    /// (minimum 1).
    pub fn for_cardinalities(cardinalities: &[usize]) -> Self {
        let bits: Vec<u32> = cardinalities
            .iter()
            .map(|&c| (usize::BITS - c.max(2).saturating_sub(1).leading_zeros()).max(1))
            .collect();
        let total_bits: u32 = bits.iter().sum();
        let mut below = total_bits;
        let shifts = bits
            .iter()
            .map(|b| {
                below -= b;
                below
            })
            .collect();
        KeyLayout { bits, shifts, total_bits }
    }

    /// The layout every `get` of `group_by` packs its cells with: one
    /// component per included hierarchy, sized by its level's domain.
    pub fn for_group_by(schema: &CubeSchema, group_by: &GroupBySet) -> Self {
        let cardinalities: Vec<usize> = group_by
            .included_hierarchies()
            .map(|(hi, li)| {
                schema.hierarchy(hi).and_then(|h| h.level(li)).map_or(0, |l| l.cardinality())
            })
            .collect();
        Self::for_cardinalities(&cardinalities)
    }

    /// Bit width of every component.
    pub fn component_bits(&self) -> &[u32] {
        &self.bits
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.bits.len()
    }

    /// Whether keys fit in a `u64`.
    pub fn fits_u64(&self) -> bool {
        self.total_bits <= 64
    }

    /// Total bit width.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Whether `key` lies inside this layout's key space.
    pub fn contains(&self, key: u64) -> bool {
        self.total_bits >= 64 || key >> self.total_bits == 0
    }

    /// Packs member ids into a `u64` key. Caller must have checked
    /// [`KeyLayout::fits_u64`]; ids must be within the declared domains.
    #[inline]
    pub fn pack(&self, members: &[MemberId]) -> u64 {
        debug_assert_eq!(members.len(), self.bits.len());
        let mut key = 0u64;
        for (i, m) in members.iter().enumerate() {
            key |= (m.0 as u64) << self.shifts[i];
        }
        key
    }

    /// Packs from raw component values (avoids building a slice first).
    #[inline]
    pub fn pack_component(&self, key: &mut u64, component: usize, member: MemberId) {
        *key |= (member.0 as u64) << self.shifts[component];
    }

    /// Packs a raw `u32` member code — the flat-lane scan kernels carry
    /// member ids as plain codes; identical to [`KeyLayout::pack_component`]
    /// without the newtype.
    #[inline]
    pub fn pack_code(&self, key: &mut u64, component: usize, code: u32) {
        *key |= (code as u64) << self.shifts[component];
    }

    /// Unpacks a key back into member ids.
    pub fn unpack(&self, key: u64) -> Vec<MemberId> {
        self.bits
            .iter()
            .zip(self.shifts.iter())
            .map(|(&b, &s)| {
                let mask = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
                MemberId(((key >> s) & mask) as u32)
            })
            .collect()
    }

    /// Unpacks one component of a key.
    #[inline]
    pub fn unpack_component(&self, key: u64, component: usize) -> MemberId {
        let b = self.bits[component];
        let mask = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
        MemberId(((key >> self.shifts[component]) & mask) as u32)
    }

    /// A key with component `component` cleared — used by pivot to group
    /// rows by "all coordinates but the sliced level" (`γ|G\l`).
    #[inline]
    pub fn clear_component(&self, key: u64, component: usize) -> u64 {
        let b = self.bits[component];
        let mask = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
        key & !(mask << self.shifts[component])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        let layout = KeyLayout::for_cardinalities(&[1000, 5, 365]);
        assert!(layout.fits_u64());
        let members = vec![MemberId(999), MemberId(4), MemberId(364)];
        let key = layout.pack(&members);
        assert_eq!(layout.unpack(key), members);
        assert_eq!(layout.unpack_component(key, 1), MemberId(4));
    }

    #[test]
    fn bit_widths_are_minimal_but_sufficient() {
        let layout = KeyLayout::for_cardinalities(&[2, 3, 4, 5]);
        // 2→1 bit, 3→2 bits, 4→2 bits, 5→3 bits.
        assert_eq!(layout.total_bits(), 1 + 2 + 2 + 3);
        // Largest valid ids survive.
        let members = vec![MemberId(1), MemberId(2), MemberId(3), MemberId(4)];
        assert_eq!(layout.unpack(layout.pack(&members)), members);
    }

    #[test]
    fn singleton_domains_get_one_bit() {
        let layout = KeyLayout::for_cardinalities(&[1]);
        assert_eq!(layout.total_bits(), 1);
        assert_eq!(layout.unpack(layout.pack(&[MemberId(0)])), vec![MemberId(0)]);
    }

    #[test]
    fn wide_layouts_are_detected() {
        let layout = KeyLayout::for_cardinalities(&[1 << 30, 1 << 30, 1 << 30]);
        assert!(!layout.fits_u64());
    }

    #[test]
    fn clear_component_zeroes_only_that_field() {
        let layout = KeyLayout::for_cardinalities(&[100, 100, 100]);
        let members = vec![MemberId(42), MemberId(17), MemberId(99)];
        let key = layout.pack(&members);
        let cleared = layout.clear_component(key, 1);
        assert_eq!(layout.unpack_component(cleared, 0), MemberId(42));
        assert_eq!(layout.unpack_component(cleared, 1), MemberId(0));
        assert_eq!(layout.unpack_component(cleared, 2), MemberId(99));
    }

    #[test]
    fn pack_component_is_incremental_pack() {
        let layout = KeyLayout::for_cardinalities(&[10, 20, 30]);
        let members = vec![MemberId(9), MemberId(19), MemberId(29)];
        let mut key = 0;
        for (i, m) in members.iter().enumerate() {
            layout.pack_component(&mut key, i, *m);
        }
        assert_eq!(key, layout.pack(&members));
    }

    #[test]
    fn key_order_is_coordinate_order() {
        let layout = KeyLayout::for_cardinalities(&[3, 100, 7]);
        let mut tuples: Vec<Vec<MemberId>> = Vec::new();
        for a in 0..3 {
            for b in [0, 1, 50, 99] {
                for c in 0..7 {
                    tuples.push(vec![MemberId(a), MemberId(b), MemberId(c)]);
                }
            }
        }
        let mut by_key = tuples.clone();
        by_key.sort_by_key(|t| layout.pack(t));
        tuples.sort();
        assert_eq!(by_key, tuples);
    }

    #[test]
    fn empty_layout_packs_to_zero() {
        let layout = KeyLayout::for_cardinalities(&[]);
        assert_eq!(layout.arity(), 0);
        assert_eq!(layout.pack(&[]), 0);
        assert!(layout.unpack(0).is_empty());
    }
}
