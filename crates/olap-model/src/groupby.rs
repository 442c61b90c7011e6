//! Group-by sets and their `⪰_H` partial order (Definition 2.3).

use crate::error::ModelError;
use crate::schema::CubeSchema;

/// A group-by set of a cube schema: at most one level per hierarchy.
///
/// Internally one slot per hierarchy of the schema, in schema order:
/// `Some(level_index)` when the hierarchy appears in the group-by set,
/// `None` for complete aggregation along that hierarchy (the conventional
/// "ALL" interpretation the paper adopts).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupBySet {
    slots: Vec<Option<usize>>,
}

impl GroupBySet {
    /// The fully aggregated group-by set (ALL on every hierarchy).
    pub fn all(schema: &CubeSchema) -> Self {
        GroupBySet { slots: vec![None; schema.hierarchies().len()] }
    }

    /// The top (finest) group-by set `G0`: level 0 of every hierarchy.
    pub fn top(schema: &CubeSchema) -> Self {
        GroupBySet { slots: vec![Some(0); schema.hierarchies().len()] }
    }

    /// Builds a group-by set from level names, e.g. `["month", "category"]`.
    pub fn from_level_names<S: AsRef<str>>(
        schema: &CubeSchema,
        levels: &[S],
    ) -> Result<Self, ModelError> {
        let mut slots = vec![None; schema.hierarchies().len()];
        for level in levels {
            let (hi, li) = schema.locate_level(level.as_ref())?;
            if let Some(existing) = slots[hi] {
                if existing != li {
                    return Err(ModelError::Invariant(format!(
                        "group-by set names two levels of hierarchy `{}`",
                        schema.hierarchies()[hi].name()
                    )));
                }
            }
            slots[hi] = Some(li);
        }
        Ok(GroupBySet { slots })
    }

    /// Builds from raw slots (one per hierarchy).
    pub fn from_slots(slots: Vec<Option<usize>>) -> Self {
        GroupBySet { slots }
    }

    /// One slot per hierarchy: the level index, or `None` for ALL.
    pub fn slots(&self) -> &[Option<usize>] {
        &self.slots
    }

    /// Number of hierarchies that actually appear in the group-by set.
    pub fn arity(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Indices of the hierarchies appearing in the group-by set, in order.
    pub fn included_hierarchies(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.slots.iter().enumerate().filter_map(|(hi, s)| s.map(|li| (hi, li)))
    }

    /// Position, among the included hierarchies, of hierarchy `hi`
    /// (i.e. the coordinate component index for that hierarchy).
    pub fn component_of(&self, hi: usize) -> Option<usize> {
        self.slots.get(hi).copied().flatten()?;
        Some(self.slots[..hi].iter().filter(|s| s.is_some()).count())
    }

    /// Whether `self ⪰_H other`: every hierarchy of `self` is at a level
    /// finer than or equal to the corresponding level of `other` (with ALL
    /// coarser than every level). When true, every coordinate of `self`
    /// rolls up to exactly one coordinate of `other`.
    pub fn rolls_up_to(&self, other: &GroupBySet) -> bool {
        if self.slots.len() != other.slots.len() {
            return false;
        }
        self.slots.iter().zip(other.slots.iter()).all(|(fine, coarse)| match (fine, coarse) {
            (_, None) => true,
            (Some(f), Some(c)) => f <= c,
            (None, Some(_)) => false,
        })
    }

    /// Renders the group-by set as level names for diagnostics/SQL.
    pub fn level_names<'a>(&self, schema: &'a CubeSchema) -> Vec<&'a str> {
        self.included_hierarchies()
            .filter_map(|(hi, li)| schema.hierarchy(hi).and_then(|h| h.level(li)).map(|l| l.name()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyBuilder;
    use crate::schema::{AggOp, MeasureDef};

    fn schema() -> CubeSchema {
        let mut date = HierarchyBuilder::new("Date", ["date", "month", "year"]);
        date.add_member_chain(&["1997-04-15", "1997-04", "1997"]).unwrap();
        let mut product = HierarchyBuilder::new("Product", ["product", "type", "category"]);
        product.add_member_chain(&["Lemon", "Fresh Fruit", "Fruit"]).unwrap();
        let mut store = HierarchyBuilder::new("Store", ["store", "city", "country"]);
        store.add_member_chain(&["SmartMart", "Rome", "Italy"]).unwrap();
        CubeSchema::new(
            "SALES",
            vec![date.build().unwrap(), product.build().unwrap(), store.build().unwrap()],
            vec![MeasureDef::new("quantity", AggOp::Sum)],
        )
    }

    #[test]
    fn from_names_assigns_slots_in_schema_order() {
        let s = schema();
        let g = GroupBySet::from_level_names(&s, &["category", "month"]).unwrap();
        assert_eq!(g.slots(), &[Some(1), Some(2), None]);
        assert_eq!(g.arity(), 2);
        assert_eq!(g.level_names(&s), vec!["month", "category"]);
    }

    #[test]
    fn example_2_5_partial_order() {
        // G0 = ⟨date, product, store⟩, G1 = ⟨date, type, country⟩, G2 = ⟨month, category⟩
        let s = schema();
        let g0 = GroupBySet::top(&s);
        let g1 = GroupBySet::from_level_names(&s, &["date", "type", "country"]).unwrap();
        let g2 = GroupBySet::from_level_names(&s, &["month", "category"]).unwrap();
        assert!(g0.rolls_up_to(&g1));
        assert!(g1.rolls_up_to(&g2));
        assert!(g0.rolls_up_to(&g2));
        assert!(!g2.rolls_up_to(&g1));
        assert!(!g2.rolls_up_to(&g0), "G0 is strictly finer than G2");
    }

    #[test]
    fn incomparable_group_bys() {
        let s = schema();
        let a = GroupBySet::from_level_names(&s, &["date"]).unwrap();
        let b = GroupBySet::from_level_names(&s, &["product"]).unwrap();
        assert!(!a.rolls_up_to(&b));
        assert!(!b.rolls_up_to(&a));
    }

    #[test]
    fn all_is_bottom() {
        let s = schema();
        let all = GroupBySet::all(&s);
        let g = GroupBySet::from_level_names(&s, &["year"]).unwrap();
        assert!(g.rolls_up_to(&all));
        assert!(!all.rolls_up_to(&g));
        assert_eq!(all.arity(), 0);
    }

    #[test]
    fn component_of_skips_all_slots() {
        let s = schema();
        let g = GroupBySet::from_level_names(&s, &["month", "country"]).unwrap();
        assert_eq!(g.component_of(0), Some(0));
        assert_eq!(g.component_of(1), None);
        assert_eq!(g.component_of(2), Some(1));
    }

    #[test]
    fn duplicate_hierarchy_in_group_by_rejected() {
        let s = schema();
        assert!(GroupBySet::from_level_names(&s, &["date", "month"]).is_err());
        // Naming the same level twice is idempotent, not an error.
        assert!(GroupBySet::from_level_names(&s, &["date", "date"]).is_ok());
    }
}
