//! Cube queries: group-by set, selection predicates, requested measures.

use crate::error::ModelError;
use crate::groupby::GroupBySet;
use crate::level::MemberId;
use crate::schema::CubeSchema;

/// Comparison operator of a selection predicate. Each predicate is expressed
/// over **one level** of one hierarchy (Definition 2.6); set membership is
/// what sibling/past rewrites (P2/P3) produce when they widen a slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredicateOp {
    /// `level = member`
    Eq(MemberId),
    /// `level ∈ {members…}` — kept in the user-specified order because past
    /// benchmarks rely on the temporal order of the slices.
    In(Vec<MemberId>),
}

/// A selection predicate over one level of one hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    /// Hierarchy index within the schema.
    pub hierarchy: usize,
    /// Level index within the hierarchy.
    pub level: usize,
    pub op: PredicateOp,
}

impl Predicate {
    /// `level = member` predicate from names.
    pub fn eq(schema: &CubeSchema, level: &str, member: &str) -> Result<Self, ModelError> {
        let (hierarchy, li) = schema.locate_level(level)?;
        let m = schema
            .hierarchy(hierarchy)
            .and_then(|h| h.level(li))
            .ok_or_else(|| ModelError::UnknownLevel(level.to_string()))?
            .require_member(member)?;
        Ok(Predicate { hierarchy, level: li, op: PredicateOp::Eq(m) })
    }

    /// `level ∈ {members…}` predicate from names (order preserved).
    pub fn is_in<S: AsRef<str>>(
        schema: &CubeSchema,
        level: &str,
        members: &[S],
    ) -> Result<Self, ModelError> {
        let (hierarchy, li) = schema.locate_level(level)?;
        let lvl = schema
            .hierarchy(hierarchy)
            .and_then(|h| h.level(li))
            .ok_or_else(|| ModelError::UnknownLevel(level.to_string()))?;
        let ids = members
            .iter()
            .map(|m| lvl.require_member(m.as_ref()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Predicate { hierarchy, level: li, op: PredicateOp::In(ids) })
    }

    /// The member set selected by the predicate, in specification order.
    pub fn members(&self) -> &[MemberId] {
        match &self.op {
            PredicateOp::Eq(m) => std::slice::from_ref(m),
            PredicateOp::In(ms) => ms,
        }
    }

    /// Whether a member of the predicate's level satisfies the predicate.
    pub fn matches(&self, member: MemberId) -> bool {
        match &self.op {
            PredicateOp::Eq(m) => *m == member,
            PredicateOp::In(ms) => ms.contains(&member),
        }
    }

    /// Renders the predicate as `level = 'member'` / `level in (…)` text.
    pub fn render(&self, schema: &CubeSchema) -> String {
        let level = schema.hierarchy(self.hierarchy).and_then(|h| h.level(self.level));
        let level_name = level.map(|l| l.name()).unwrap_or("?");
        let name_of =
            |m: &MemberId| level.and_then(|l| l.member_name(*m)).unwrap_or("?").to_string();
        match &self.op {
            PredicateOp::Eq(m) => format!("{} = '{}'", level_name, name_of(m)),
            PredicateOp::In(ms) => {
                let list: Vec<String> = ms.iter().map(|m| format!("'{}'", name_of(m))).collect();
                format!("{} in ({})", level_name, list.join(", "))
            }
        }
    }
}

/// A cube query `q = (C0, Gq, Pq, Mq)` (Definition 2.6).
#[derive(Debug, Clone)]
pub struct CubeQuery {
    /// Name of the detailed cube the query runs over.
    pub cube: String,
    pub group_by: GroupBySet,
    pub predicates: Vec<Predicate>,
    /// Requested measure names (`Mq ⊆ M`).
    pub measures: Vec<String>,
}

impl CubeQuery {
    pub fn new(
        cube: impl Into<String>,
        group_by: GroupBySet,
        predicates: Vec<Predicate>,
        measures: Vec<String>,
    ) -> Self {
        CubeQuery { cube: cube.into(), group_by, predicates, measures }
    }

    /// Validates the query against a schema: measures exist, predicate
    /// hierarchies/levels are in range.
    pub fn validate(&self, schema: &CubeSchema) -> Result<(), ModelError> {
        for m in &self.measures {
            schema.require_measure(m)?;
        }
        for p in &self.predicates {
            let h = schema
                .hierarchy(p.hierarchy)
                .ok_or_else(|| ModelError::UnknownHierarchy(format!("#{}", p.hierarchy)))?;
            if h.level(p.level).is_none() {
                return Err(ModelError::UnknownLevel(format!(
                    "level #{} of hierarchy `{}`",
                    p.level,
                    h.name()
                )));
            }
        }
        if self.group_by.slots().len() != schema.hierarchies().len() {
            return Err(ModelError::IncompatibleGroupBy);
        }
        Ok(())
    }

    /// The containment relation of the cube algebra, read as "can `self`
    /// answer `other`". The outcomes are decided in this order:
    ///
    /// * [`Relation::Disjoint`]: both queries restrict one hierarchy, and
    ///   the finer predicate's members, rolled up to the coarser predicate's
    ///   level, share none with it — no fact satisfies both selections;
    /// * [`Relation::Usable`]: same cube, `self`'s group-by rolls up to
    ///   `other`'s, `self`'s measures include `other`'s, every `self`
    ///   predicate is implied by an `other` predicate on its hierarchy at
    ///   the same or a finer level, and every `other` predicate not among
    ///   `self`'s (the residual) is on a hierarchy `self` groups at that
    ///   level or finer, so it can be evaluated on `self`'s cells;
    /// * [`Relation::Equal`]: usable with no roll-up, no residual and
    ///   equal measures — the two answers are identical;
    /// * [`Relation::Overlaps`]: everything else, including queries on
    ///   different cubes and any roll-up that errors.
    ///
    /// Allocates nothing; with no `self` predicates it reads no member.
    pub fn relate(&self, other: &CubeQuery, schema: &CubeSchema) -> Relation {
        if self.cube != other.cube {
            return Relation::Overlaps;
        }
        let mut implied = true;
        for p in &self.predicates {
            let mut implied_here = false;
            for q in other.predicates.iter().filter(|q| q.hierarchy == p.hierarchy) {
                let (fine, coarse) = if q.level <= p.level { (q, p) } else { (p, q) };
                let Some(hits) = rolled_hits(schema, fine, coarse) else {
                    return Relation::Overlaps;
                };
                if hits == 0 {
                    return Relation::Disjoint;
                }
                implied_here |= q.level <= p.level && hits == q.members().len();
            }
            implied &= implied_here;
        }
        if !implied
            || !self.group_by.rolls_up_to(&other.group_by)
            || !other.measures.iter().all(|m| self.measures.contains(m))
        {
            return Relation::Overlaps;
        }
        let mut residual = false;
        for q in &other.predicates {
            if self.predicates.iter().any(|p| p.same_selection(q)) {
                continue;
            }
            match self.group_by.slots().get(q.hierarchy) {
                Some(Some(level)) if *level <= q.level => residual = true,
                _ => return Relation::Overlaps,
            }
        }
        let rollup = self.group_by != other.group_by;
        if !rollup && !residual && self.measures == other.measures {
            Relation::Equal
        } else {
            Relation::Usable { rollup, residual }
        }
    }
}

/// How one cube query stands to another; see [`CubeQuery::relate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// The two queries have the same answer.
    Equal,
    /// `self`'s answer yields `other`'s: roll its cells up to `other`'s
    /// group-by (`rollup`) after filtering them by the predicates `other`
    /// adds (`residual`).
    Usable { rollup: bool, residual: bool },
    /// Neither usable nor provably disjoint.
    Overlaps,
    /// No fact satisfies both selections.
    Disjoint,
}

impl Predicate {
    /// The same level and the same member set, in any order.
    fn same_selection(&self, other: &Predicate) -> bool {
        let (a, b) = (self.members(), other.members());
        self.hierarchy == other.hierarchy
            && self.level == other.level
            && a.iter().all(|m| b.contains(m))
            && b.iter().all(|m| a.contains(m))
    }
}

/// How many of `fine`'s members, rolled up to `coarse`'s level (on the same
/// hierarchy, at the same or a coarser level), `coarse` selects; `None`
/// when a member does not roll up.
fn rolled_hits(schema: &CubeSchema, fine: &Predicate, coarse: &Predicate) -> Option<usize> {
    let h = schema.hierarchy(fine.hierarchy)?;
    fine.members().iter().try_fold(0, |hits, &m| {
        let rolled = h.roll_member(fine.level, coarse.level, m).ok()?;
        Some(hits + usize::from(coarse.matches(rolled)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyBuilder;
    use crate::schema::{AggOp, MeasureDef};

    fn schema() -> CubeSchema {
        let mut product = HierarchyBuilder::new("Product", ["product", "type"]);
        product.add_member_chain(&["Apple", "Fresh Fruit"]).unwrap();
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
    fn eq_predicate_resolves_names() {
        let s = schema();
        let p = Predicate::eq(&s, "country", "Italy").unwrap();
        assert_eq!(p.hierarchy, 1);
        assert_eq!(p.level, 1);
        assert!(p.matches(MemberId(0)));
        assert!(!p.matches(MemberId(1)));
        assert_eq!(p.render(&s), "country = 'Italy'");
    }

    #[test]
    fn in_predicate_preserves_order() {
        let s = schema();
        let p = Predicate::is_in(&s, "country", &["France", "Italy"]).unwrap();
        assert_eq!(p.members(), [MemberId(1), MemberId(0)]);
        assert_eq!(p.render(&s), "country in ('France', 'Italy')");
    }

    #[test]
    fn unknown_member_errors() {
        let s = schema();
        assert!(Predicate::eq(&s, "country", "Spain").is_err());
        assert!(Predicate::eq(&s, "planet", "Earth").is_err());
    }

    #[test]
    fn query_validation() {
        let s = schema();
        let g = GroupBySet::from_level_names(&s, &["product", "country"]).unwrap();
        let q = CubeQuery::new(
            "SALES",
            g.clone(),
            vec![Predicate::eq(&s, "type", "Fresh Fruit").unwrap()],
            vec!["quantity".into()],
        );
        assert!(q.validate(&s).is_ok());
        let bad = CubeQuery::new("SALES", g, vec![], vec!["profit".into()]);
        assert!(matches!(bad.validate(&s), Err(ModelError::UnknownMeasure(_))));
    }

    /// `date ⪰ month ⪰ year` over three days, and `store ⪰ country`.
    fn dated() -> CubeSchema {
        let mut date = HierarchyBuilder::new("Date", ["date", "month", "year"]);
        date.add_member_chain(&["1997-04-15", "1997-04", "1997"]).unwrap();
        date.add_member_chain(&["1997-05-01", "1997-05", "1997"]).unwrap();
        date.add_member_chain(&["1998-01-02", "1998-01", "1998"]).unwrap();
        let mut store = HierarchyBuilder::new("Store", ["store", "country"]);
        store.add_member_chain(&["SmartMart", "Italy"]).unwrap();
        store.add_member_chain(&["HyperChoice", "France"]).unwrap();
        CubeSchema::new(
            "SALES",
            vec![date.build().unwrap(), store.build().unwrap()],
            vec![MeasureDef::new("quantity", AggOp::Sum), MeasureDef::new("price", AggOp::Max)],
        )
    }

    /// `for <predicates> by <levels> measure <measures>` over `SALES`.
    fn q(s: &CubeSchema, by: &[&str], predicates: Vec<Predicate>, measures: &[&str]) -> CubeQuery {
        let g = GroupBySet::from_level_names(s, by).unwrap();
        CubeQuery::new("SALES", g, predicates, measures.iter().map(|m| m.to_string()).collect())
    }

    #[test]
    fn relate_equal_and_pure_rollup() {
        let s = dated();
        let years = |order: [&str; 2]| Predicate::is_in(&s, "year", &order).unwrap();
        let a = q(&s, &["year"], vec![years(["1997", "1998"])], &["quantity"]);
        let b = q(&s, &["year"], vec![years(["1998", "1997"])], &["quantity"]);
        assert_eq!(a.relate(&b, &s), Relation::Equal, "`in` matching has set semantics");
        // A finer group-by answers a coarser one; never the other way round.
        let fine = q(&s, &["date", "store"], vec![], &["quantity"]);
        let coarse = q(&s, &["year"], vec![], &["quantity"]);
        let pure = Relation::Usable { rollup: true, residual: false };
        assert_eq!(fine.relate(&coarse, &s), pure);
        assert_eq!(coarse.relate(&fine, &s), Relation::Overlaps);
        // Incomparable group-bys answer neither way.
        let by_date = q(&s, &["date"], vec![], &["quantity"]);
        let by_store = q(&s, &["store"], vec![], &["quantity"]);
        assert_eq!(by_date.relate(&by_store, &s), Relation::Overlaps);
        assert_eq!(by_store.relate(&by_date, &s), Relation::Overlaps);
    }

    #[test]
    fn relate_measures_and_cubes() {
        let s = dated();
        let both = q(&s, &["year"], vec![], &["quantity", "price"]);
        let one = q(&s, &["year"], vec![], &["quantity"]);
        let extra = Relation::Usable { rollup: false, residual: false };
        assert_eq!(both.relate(&one, &s), extra, "extra measures are not equal answers");
        assert_eq!(one.relate(&both, &s), Relation::Overlaps, "a missing measure");
        let returns = CubeQuery { cube: "RETURNS".into(), ..one.clone() };
        assert_eq!(one.relate(&returns, &s), Relation::Overlaps);
    }

    #[test]
    fn relate_residual_predicates_need_a_carried_level() {
        let s = dated();
        let month = Predicate::eq(&s, "month", "1997-04").unwrap();
        // The residual `month = '1997-04'` is evaluable on daily cells…
        let daily = q(&s, &["date", "store"], vec![], &["quantity"]);
        let sliced = q(&s, &["year"], vec![month.clone()], &["quantity"]);
        let both = Relation::Usable { rollup: true, residual: true };
        assert_eq!(daily.relate(&sliced, &s), both);
        // …but not on yearly cells, nor where the hierarchy is aggregated away.
        let yearly = q(&s, &["year", "store"], vec![], &["quantity"]);
        assert_eq!(yearly.relate(&sliced, &s), Relation::Overlaps);
        let stores = q(&s, &["store"], vec![], &["quantity"]);
        let by_store = q(&s, &["store"], vec![month], &["quantity"]);
        assert_eq!(stores.relate(&by_store, &s), Relation::Overlaps);
    }

    #[test]
    fn relate_predicate_implication() {
        let s = dated();
        let y97 = Predicate::eq(&s, "year", "1997").unwrap();
        let y9798 = Predicate::is_in(&s, "year", &["1997", "1998"]).unwrap();
        let wide = q(&s, &["year"], vec![y9798.clone()], &["quantity"]);
        let narrow = q(&s, &["year"], vec![y97.clone()], &["quantity"]);
        let slice = Relation::Usable { rollup: false, residual: true };
        assert_eq!(wide.relate(&narrow, &s), slice);
        assert_eq!(narrow.relate(&wide, &s), Relation::Overlaps, "1998 is outside the slice");
        // A finer predicate implies the coarser one its members roll up into.
        let monthly = q(&s, &["month"], vec![y97.clone()], &["quantity"]);
        let april = Predicate::eq(&s, "month", "1997-04").unwrap();
        assert_eq!(monthly.relate(&q(&s, &["month"], vec![april], &["quantity"]), &s), slice);
        // A predicate on a hierarchy the wider query neither restricts nor
        // groups by cannot be evaluated on its cells: `for year = '1997' by
        // year` sums every store, so it does not answer one country's year.
        let italy = Predicate::eq(&s, "country", "Italy").unwrap();
        let italian = q(&s, &["year"], vec![y97, italy], &["quantity"]);
        assert_eq!(narrow.relate(&italian, &s), Relation::Overlaps);
    }

    #[test]
    fn relate_disjoint_selections() {
        let s = dated();
        let y97 = Predicate::eq(&s, "year", "1997").unwrap();
        let jan98 = Predicate::eq(&s, "month", "1998-01").unwrap();
        let a = q(&s, &["month"], vec![y97], &["quantity"]);
        let b = q(&s, &["year"], vec![jan98], &["quantity"]);
        assert_eq!(a.relate(&b, &s), Relation::Disjoint);
        assert_eq!(b.relate(&a, &s), Relation::Disjoint);
        let country = |c: &str| Predicate::eq(&s, "country", c).unwrap();
        let italy = q(&s, &["year"], vec![country("Italy")], &["quantity"]);
        let france = q(&s, &["date"], vec![country("France")], &["price"]);
        assert_eq!(italy.relate(&france, &s), Relation::Disjoint, "whatever else differs");
        // A member outside its level's domain cannot be rolled up.
        let ghost = Predicate { hierarchy: 0, level: 0, op: PredicateOp::Eq(MemberId(99)) };
        let haunted = q(&s, &["year"], vec![ghost], &["quantity"]);
        assert_eq!(a.relate(&haunted, &s), Relation::Overlaps);
    }

    #[test]
    fn relate_treats_an_out_of_domain_member_alike_at_every_level() {
        let s = dated();
        let ghost = Predicate { hierarchy: 0, level: 0, op: PredicateOp::Eq(MemberId(99)) };
        let haunted = q(&s, &["date"], vec![ghost], &["quantity"]);
        let day = Predicate::eq(&s, "date", "1997-04-15").unwrap();
        let month = Predicate::eq(&s, "month", "1997-04").unwrap();
        let at_own_level = q(&s, &["date"], vec![day], &["quantity"]).relate(&haunted, &s);
        let at_coarser = q(&s, &["date"], vec![month], &["quantity"]).relate(&haunted, &s);
        assert_eq!(at_own_level, at_coarser);
        assert_eq!(at_own_level, Relation::Overlaps, "the member does not roll up");
    }
}
