//! Coordinates of group-by sets and roll-up between them.

use crate::error::ModelError;
use crate::groupby::GroupBySet;
use crate::level::MemberId;
use crate::schema::CubeSchema;

/// A coordinate of a group-by set (Definition 2.3): one member per level of
/// the group-by set, in the order of the included hierarchies.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coordinate(pub Vec<MemberId>);

impl Coordinate {
    /// Builds a coordinate from member ids.
    pub fn new(members: Vec<MemberId>) -> Self {
        Coordinate(members)
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The member ids.
    pub fn members(&self) -> &[MemberId] {
        &self.0
    }

    /// Resolves a coordinate from member *names* against a schema and
    /// group-by set, in the group-by set's hierarchy order.
    pub fn from_names<S: AsRef<str>>(
        schema: &CubeSchema,
        group_by: &GroupBySet,
        names: &[S],
    ) -> Result<Self, ModelError> {
        let expected = group_by.arity();
        if names.len() != expected {
            return Err(ModelError::CoordinateArity { expected, got: names.len() });
        }
        let mut members = Vec::with_capacity(expected);
        for ((hi, li), name) in group_by.included_hierarchies().zip(names.iter()) {
            let level = schema
                .hierarchy(hi)
                .and_then(|h| h.level(li))
                .ok_or_else(|| ModelError::Invariant("group-by set out of schema range".into()))?;
            members.push(level.require_member(name.as_ref())?);
        }
        Ok(Coordinate(members))
    }

    /// Renders the coordinate back to member names.
    pub fn names<'a>(
        &self,
        schema: &'a CubeSchema,
        group_by: &GroupBySet,
    ) -> Result<Vec<&'a str>, ModelError> {
        if self.arity() != group_by.arity() {
            return Err(ModelError::CoordinateArity {
                expected: group_by.arity(),
                got: self.arity(),
            });
        }
        group_by
            .included_hierarchies()
            .zip(self.0.iter())
            .map(|((hi, li), m)| {
                schema
                    .hierarchy(hi)
                    .and_then(|h| h.level(li))
                    .and_then(|l| l.member_name(*m))
                    .ok_or_else(|| ModelError::Invariant(format!("member {m} out of domain")))
            })
            .collect()
    }

    /// Rolls this coordinate of `fine` up to the coordinate of `coarse`
    /// (`rup_{G'}(γ)` in the paper). Requires `fine ⪰_H coarse`. Hierarchies
    /// dropped to ALL simply lose their component.
    pub fn roll_up(
        &self,
        schema: &CubeSchema,
        fine: &GroupBySet,
        coarse: &GroupBySet,
    ) -> Result<Coordinate, ModelError> {
        if !fine.rolls_up_to(coarse) {
            return Err(ModelError::Invariant(
                "roll-up requested between incomparable group-by sets".into(),
            ));
        }
        if self.arity() != fine.arity() {
            return Err(ModelError::CoordinateArity { expected: fine.arity(), got: self.arity() });
        }
        let mut out = Vec::with_capacity(coarse.arity());
        for (hi, coarse_li) in coarse.included_hierarchies() {
            let fine_li = fine.slots()[hi].ok_or_else(|| {
                ModelError::Invariant(
                    "coarse group-by includes a hierarchy absent from the fine one".into(),
                )
            })?;
            let component = fine
                .component_of(hi)
                .ok_or_else(|| ModelError::Invariant("component lookup failed".into()))?;
            let h = schema
                .hierarchy(hi)
                .ok_or_else(|| ModelError::Invariant("hierarchy index out of range".into()))?;
            out.push(h.roll_member(fine_li, coarse_li, self.0[component])?);
        }
        Ok(Coordinate(out))
    }

    /// Projection of the coordinate on the components *other than* `idx`
    /// (`γ|G\l` in the pivot/partial-join definitions).
    pub fn without_component(&self, idx: usize) -> Coordinate {
        let members =
            self.0.iter().enumerate().filter(|(i, _)| *i != idx).map(|(_, m)| *m).collect();
        Coordinate(members)
    }
}

impl std::fmt::Display for Coordinate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "⟩")
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
        date.add_member_chain(&["1998-02-01", "1998-02", "1998"]).unwrap();
        let mut product = HierarchyBuilder::new("Product", ["product", "type", "category"]);
        product.add_member_chain(&["Lemon", "Fresh Fruit", "Fruit"]).unwrap();
        product.add_member_chain(&["Apple", "Fresh Fruit", "Fruit"]).unwrap();
        CubeSchema::new(
            "SALES",
            vec![date.build().unwrap(), product.build().unwrap()],
            vec![MeasureDef::new("quantity", AggOp::Sum)],
        )
    }

    #[test]
    fn from_names_and_back() {
        let s = schema();
        let g = GroupBySet::from_level_names(&s, &["date", "type"]).unwrap();
        let c = Coordinate::from_names(&s, &g, &["1997-04-15", "Fresh Fruit"]).unwrap();
        assert_eq!(c.names(&s, &g).unwrap(), vec!["1997-04-15", "Fresh Fruit"]);
    }

    #[test]
    fn example_2_5_rollup() {
        // γ1 = ⟨1997-04-15, Fresh Fruit⟩ rolls up to γ2 = ⟨1997-04, Fruit⟩.
        let s = schema();
        let g1 = GroupBySet::from_level_names(&s, &["date", "type"]).unwrap();
        let g2 = GroupBySet::from_level_names(&s, &["month", "category"]).unwrap();
        let c1 = Coordinate::from_names(&s, &g1, &["1997-04-15", "Fresh Fruit"]).unwrap();
        let c2 = c1.roll_up(&s, &g1, &g2).unwrap();
        assert_eq!(c2.names(&s, &g2).unwrap(), vec!["1997-04", "Fruit"]);
    }

    #[test]
    fn rollup_to_same_group_by_is_identity() {
        let s = schema();
        let g = GroupBySet::from_level_names(&s, &["month", "product"]).unwrap();
        let c = Coordinate::from_names(&s, &g, &["1998-02", "Apple"]).unwrap();
        assert_eq!(c.roll_up(&s, &g, &g).unwrap(), c);
    }

    #[test]
    fn rollup_drops_all_hierarchies() {
        let s = schema();
        let fine = GroupBySet::from_level_names(&s, &["date", "product"]).unwrap();
        let coarse = GroupBySet::from_level_names(&s, &["year"]).unwrap();
        let c = Coordinate::from_names(&s, &fine, &["1998-02-01", "Lemon"]).unwrap();
        let rolled = c.roll_up(&s, &fine, &coarse).unwrap();
        assert_eq!(rolled.names(&s, &coarse).unwrap(), vec!["1998"]);
    }

    #[test]
    fn rollup_between_incomparable_fails() {
        let s = schema();
        let a = GroupBySet::from_level_names(&s, &["date"]).unwrap();
        let b = GroupBySet::from_level_names(&s, &["product"]).unwrap();
        let c = Coordinate::from_names(&s, &a, &["1997-04-15"]).unwrap();
        assert!(c.roll_up(&s, &a, &b).is_err());
    }

    #[test]
    fn without_component_projects_the_rest() {
        let s = schema();
        let g = GroupBySet::from_level_names(&s, &["date", "product"]).unwrap();
        let c = Coordinate::from_names(&s, &g, &["1997-04-15", "Lemon"]).unwrap();
        assert_eq!(c.without_component(0).arity(), 1);
        assert_eq!(c.without_component(0).members()[0], c.members()[1]);
    }

    #[test]
    fn arity_mismatch_detected() {
        let s = schema();
        let g = GroupBySet::from_level_names(&s, &["date", "product"]).unwrap();
        assert!(matches!(
            Coordinate::from_names(&s, &g, &["1997-04-15"]),
            Err(ModelError::CoordinateArity { expected: 2, got: 1 })
        ));
    }
}
