//! Predicate compilation: selection predicates become dense membership
//! bitmaps over the member domain the data actually carries.
//!
//! A predicate `type = 'Fresh Fruit'` must be evaluated against fact rows
//! that only carry `product`-level foreign keys. Instead of joining the
//! dimension table per row, the engine rolls every member of the carrier
//! level up to the predicate level **once**, producing a boolean mask over
//! the carrier domain; the scan then tests `mask[fk]`. This is the bitmap
//! join-index strategy of columnar OLAP engines and stands in for the
//! B-tree-indexed star joins of the paper's Oracle setup.

use std::sync::Arc;

use olap_model::{CubeSchema, Predicate};

use crate::error::EngineError;

/// One compiled mask: which members of the carrier level of a hierarchy
/// satisfy all predicates on that hierarchy.
///
/// The mask is shared (`Arc`) so a parallel scan context can hold it
/// without copying the domain bitmap per worker.
#[derive(Debug, Clone)]
pub struct HierarchyMask {
    /// Hierarchy index within the schema.
    pub hierarchy: usize,
    /// Allowed members of the carrier level (indexed by member id).
    pub mask: Arc<[bool]>,
}

/// The conjunction of all compiled predicate masks of a query.
#[derive(Debug, Clone, Default)]
pub struct CompiledFilter {
    masks: Vec<HierarchyMask>,
}

impl CompiledFilter {
    /// Compiles `predicates` against data that carries each hierarchy at
    /// `carrier_levels[hierarchy]` (`Some(0)` for fact tables; the view's
    /// group-by slot for materialized views; `None` when the hierarchy was
    /// aggregated away, which makes any predicate on it uncompilable).
    pub fn compile(
        schema: &CubeSchema,
        predicates: &[Predicate],
        carrier_levels: &[Option<usize>],
    ) -> Result<Self, EngineError> {
        // Build with plain vectors (same-hierarchy predicates AND into an
        // existing mask), then freeze into shared slices.
        let mut building: Vec<(usize, Vec<bool>)> = Vec::new();
        for pred in predicates {
            let carrier =
                carrier_levels.get(pred.hierarchy).copied().flatten().ok_or_else(|| {
                    EngineError::Unsupported(format!(
                        "predicate on hierarchy #{} cannot be evaluated: data does not carry it",
                        pred.hierarchy
                    ))
                })?;
            let h = schema.hierarchy(pred.hierarchy).ok_or_else(|| {
                EngineError::Model(olap_model::ModelError::UnknownHierarchy(format!(
                    "#{}",
                    pred.hierarchy
                )))
            })?;
            if carrier > pred.level {
                return Err(EngineError::Unsupported(format!(
                    "predicate at level #{} of hierarchy `{}` is finer than the carried level #{}",
                    pred.level,
                    h.name(),
                    carrier
                )));
            }
            let rollmap = h.composed_map(carrier, pred.level)?;
            let mask: Vec<bool> = rollmap.iter().map(|parent| pred.matches(*parent)).collect();
            // AND with an existing mask on the same hierarchy, if any.
            if let Some((_, existing)) = building.iter_mut().find(|(h, _)| *h == pred.hierarchy) {
                for (slot, allowed) in existing.iter_mut().zip(mask.iter()) {
                    *slot = *slot && *allowed;
                }
            } else {
                building.push((pred.hierarchy, mask));
            }
        }
        let masks = building
            .into_iter()
            .map(|(hierarchy, mask)| HierarchyMask { hierarchy, mask: mask.into() })
            .collect();
        Ok(CompiledFilter { masks })
    }

    /// The compiled per-hierarchy masks.
    pub fn masks(&self) -> &[HierarchyMask] {
        &self.masks
    }

    /// Whether the filter accepts everything (no predicates).
    pub fn is_trivial(&self) -> bool {
        self.masks.is_empty()
    }

    /// Selectivity estimate: the product of per-mask allowed fractions.
    pub fn estimated_selectivity(&self) -> f64 {
        self.masks
            .iter()
            .map(|m| {
                let allowed = m.mask.iter().filter(|b| **b).count();
                if m.mask.is_empty() {
                    1.0
                } else {
                    allowed as f64 / m.mask.len() as f64
                }
            })
            .product()
    }
}

/// The predicate kernel: evaluates the conjunction of `masks` over the
/// `len` rows of a chunk, filling `sel` with the chunk-local ids of the
/// rows that pass.
///
/// Each mask is paired with the flat `u32` lane of member codes the chunk
/// layer decoded for its hierarchy (see `DataChunk::key_lane`) — the loop
/// body is the same whether the storage was plain or encoded. The kernel is
/// branch-free: the first mask *generates* the selection vector with the
/// unconditional-store idiom (`sel[k] = row; k += pass`), each further mask
/// *refines* it in place. No data-dependent branch means the loops
/// auto-vectorize and never stall the predictor on selectivity.
///
/// `sel` is reset first so callers can reuse one buffer across morsels.
pub fn select_into<'a>(
    sel: &mut Vec<u32>,
    len: usize,
    masks: impl IntoIterator<Item = (&'a [u32], &'a [bool])>,
) {
    sel.clear();
    let mut rest = masks.into_iter();
    let Some((first_ids, first_mask)) = rest.next() else {
        sel.extend(0..len as u32);
        return;
    };
    sel.resize(len, 0);
    let ids = &first_ids[..len];
    let mut k = 0usize;
    for (row, &id) in ids.iter().enumerate() {
        sel[k] = row as u32;
        k += first_mask[id as usize] as usize;
    }
    sel.truncate(k);
    for (ids, mask) in rest {
        let mut k = 0usize;
        for i in 0..sel.len() {
            let row = sel[i];
            sel[k] = row;
            k += mask[ids[row as usize] as usize] as usize;
        }
        sel.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_model::{AggOp, HierarchyBuilder, MeasureDef, Predicate};

    fn schema() -> CubeSchema {
        let mut product = HierarchyBuilder::new("Product", ["product", "type"]);
        product.add_member_chain(&["Apple", "Fresh Fruit"]).unwrap();
        product.add_member_chain(&["Pear", "Fresh Fruit"]).unwrap();
        product.add_member_chain(&["Milk", "Dairy"]).unwrap();
        let mut store = HierarchyBuilder::new("Store", ["store", "country"]);
        store.add_member_chain(&["SmartMart", "Italy"]).unwrap();
        store.add_member_chain(&["HyperChoice", "France"]).unwrap();
        CubeSchema::new(
            "SALES",
            vec![product.build().unwrap(), store.build().unwrap()],
            vec![MeasureDef::new("quantity", AggOp::Sum)],
        )
    }

    #[test]
    fn mask_rolls_carrier_to_predicate_level() {
        let s = schema();
        let p = Predicate::eq(&s, "type", "Fresh Fruit").unwrap();
        let f = CompiledFilter::compile(&s, &[p], &[Some(0), Some(0)]).unwrap();
        assert_eq!(f.masks().len(), 1);
        assert_eq!(f.masks()[0].hierarchy, 0);
        assert_eq!(&*f.masks()[0].mask, [true, true, false]);
    }

    #[test]
    fn predicates_on_same_hierarchy_conjoin() {
        let s = schema();
        let p1 = Predicate::is_in(&s, "product", &["Apple", "Milk"]).unwrap();
        let p2 = Predicate::eq(&s, "type", "Fresh Fruit").unwrap();
        let f = CompiledFilter::compile(&s, &[p1, p2], &[Some(0), Some(0)]).unwrap();
        assert_eq!(f.masks().len(), 1);
        assert_eq!(&*f.masks()[0].mask, [true, false, false]);
    }

    #[test]
    fn carrier_coarser_than_predicate_fails() {
        let s = schema();
        let p = Predicate::eq(&s, "product", "Apple").unwrap();
        // Carrier is `type` (level 1): cannot evaluate a product-level predicate.
        assert!(CompiledFilter::compile(&s, &[p], &[Some(1), Some(0)]).is_err());
    }

    #[test]
    fn aggregated_away_hierarchy_fails() {
        let s = schema();
        let p = Predicate::eq(&s, "country", "Italy").unwrap();
        assert!(CompiledFilter::compile(&s, &[p], &[Some(0), None]).is_err());
    }

    #[test]
    fn trivial_filter_and_selectivity() {
        let s = schema();
        let f = CompiledFilter::compile(&s, &[], &[Some(0), Some(0)]).unwrap();
        assert!(f.is_trivial());
        assert_eq!(f.estimated_selectivity(), 1.0);
        let p = Predicate::eq(&s, "country", "Italy").unwrap();
        let f = CompiledFilter::compile(&s, &[p], &[Some(0), Some(0)]).unwrap();
        assert!((f.estimated_selectivity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn carrier_at_predicate_level_is_direct() {
        let s = schema();
        let p = Predicate::eq(&s, "country", "France").unwrap();
        let f = CompiledFilter::compile(&s, &[p], &[Some(0), Some(1)]).unwrap();
        assert_eq!(&*f.masks()[0].mask, [false, true]);
    }

    #[test]
    fn select_kernel_matches_per_row_evaluation() {
        let ids: Vec<u32> = vec![0, 1, 2, 0, 2, 1];
        let product_mask = [true, false, true]; // members 0 and 2 pass
        let mut sel = Vec::new();
        select_into(&mut sel, ids.len(), [(&ids[..], &product_mask[..])]);
        assert_eq!(sel, vec![0, 2, 3, 4]);
        // Conjunction of two masks: the second refines in place.
        let second = [false, true, true];
        select_into(&mut sel, ids.len(), [(&ids[..], &product_mask[..]), (&ids[..], &second[..])]);
        assert_eq!(sel, vec![2, 4]);
        // No masks → everything passes; buffer reuse clears stale content.
        select_into(&mut sel, 3, []);
        assert_eq!(sel, vec![0, 1, 2]);
        // All-false and all-true masks hit the truncate extremes.
        select_into(&mut sel, ids.len(), [(&ids[..], &[false, false, false][..])]);
        assert!(sel.is_empty());
        select_into(&mut sel, ids.len(), [(&ids[..], &[true, true, true][..])]);
        assert_eq!(sel, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn select_kernel_agrees_with_a_branchy_reference() {
        // Pseudo-random lanes and masks: the branch-free kernel must match
        // the obvious nested-loop evaluation exactly.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let lane_a: Vec<u32> = (0..257).map(|_| (next() % 11) as u32).collect();
        let lane_b: Vec<u32> = (0..257).map(|_| (next() % 5) as u32).collect();
        let mask_a: Vec<bool> = (0..11).map(|_| next() % 3 != 0).collect();
        let mask_b: Vec<bool> = (0..5).map(|_| next() % 2 == 0).collect();
        let expected: Vec<u32> = (0..257u32)
            .filter(|&r| mask_a[lane_a[r as usize] as usize] && mask_b[lane_b[r as usize] as usize])
            .collect();
        let mut sel = vec![99u32; 4]; // stale content must not leak
        select_into(&mut sel, 257, [(&lane_a[..], &mask_a[..]), (&lane_b[..], &mask_b[..])]);
        assert_eq!(sel, expected);
    }
}
