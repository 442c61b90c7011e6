//! Linear hierarchies: levels, roll-up total order, part-of partial order.

use crate::error::ModelError;
use crate::level::{Level, MemberId};

/// A linear hierarchy `h = (L, ⪰, ≥)` (Definition 2.1).
///
/// Levels are stored **finest first**: `levels[0]` is the top of the roll-up
/// order (e.g. `date`), `levels[last]` the coarsest (e.g. `year`). The
/// part-of partial order `≥` is stored as one dense parent vector per
/// adjacent level pair: `part_of[i][m]` is the id, at level `i + 1`, of the
/// parent of member `m` of level `i`. Functionality of `≥` (exactly one
/// parent per member, Definition 2.1) is enforced at build time.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    name: String,
    levels: Vec<Level>,
    part_of: Vec<Vec<MemberId>>,
}

impl Hierarchy {
    /// The hierarchy name (conventionally the finest level's dimension name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of levels in the hierarchy.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The levels, finest first.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// The level at `index` (0 = finest).
    pub fn level(&self, index: usize) -> Option<&Level> {
        self.levels.get(index)
    }

    /// Mutable access to a level, for attaching descriptive properties
    /// after the hierarchy is built (and before it is shared in a schema).
    pub fn level_mut(&mut self, index: usize) -> Option<&mut Level> {
        self.levels.get_mut(index)
    }

    /// Finds the index of a level by name.
    pub fn level_index(&self, name: &str) -> Option<usize> {
        self.levels.iter().position(|l| l.name() == name)
    }

    /// Whether `coarse` is reachable from `fine` in the roll-up order,
    /// i.e. `levels[fine] ⪰ levels[coarse]`.
    pub fn rolls_up(&self, fine: usize, coarse: usize) -> bool {
        fine <= coarse && coarse < self.levels.len()
    }

    /// Rolls a member of level `from` up to level `to` along the part-of
    /// chain (`rup` in the paper). `from == to` is the identity. A member
    /// outside level `from`'s domain errors, whatever the step count.
    pub fn roll_member(
        &self,
        from: usize,
        to: usize,
        member: MemberId,
    ) -> Result<MemberId, ModelError> {
        if !self.rolls_up(from, to) {
            return Err(ModelError::InvalidRollup {
                from: self
                    .levels
                    .get(from)
                    .map(|l| l.name().to_string())
                    .unwrap_or_else(|| format!("level {from}")),
                to: self
                    .levels
                    .get(to)
                    .map(|l| l.name().to_string())
                    .unwrap_or_else(|| format!("level {to}")),
            });
        }
        if member.index() >= self.levels[from].cardinality() {
            return Err(ModelError::Invariant(format!(
                "member {} out of range for level `{}` of hierarchy `{}`",
                member,
                self.levels[from].name(),
                self.name
            )));
        }
        let mut m = member;
        for step in from..to {
            m = *self.part_of[step].get(m.index()).ok_or_else(|| {
                ModelError::Invariant(format!(
                    "member {} out of range for part-of step {} of hierarchy `{}`",
                    m, step, self.name
                ))
            })?;
        }
        Ok(m)
    }

    /// Builds the **composed** roll-up map from level `from` to level `to`:
    /// a dense vector `v` with `v[m] = rup(m)` for every member `m` of
    /// `levels[from]`. This is the join-index representation the execution
    /// engine uses to turn roll-ups into single array lookups.
    pub fn composed_map(&self, from: usize, to: usize) -> Result<Vec<MemberId>, ModelError> {
        if !self.rolls_up(from, to) {
            return Err(ModelError::InvalidRollup {
                from: self
                    .levels
                    .get(from)
                    .map(|l| l.name().to_string())
                    .unwrap_or_else(|| format!("level {from}")),
                to: self
                    .levels
                    .get(to)
                    .map(|l| l.name().to_string())
                    .unwrap_or_else(|| format!("level {to}")),
            });
        }
        let n = self.levels[from].cardinality();
        let mut map: Vec<MemberId> = (0..n as u32).map(MemberId).collect();
        for step in from..to {
            let parents = &self.part_of[step];
            for slot in map.iter_mut() {
                *slot = parents[slot.index()];
            }
        }
        Ok(map)
    }

    /// The set of members of level `fine` that roll up into `member` of
    /// level `coarse` (the "descendants" used by predicate pushdown).
    pub fn members_under(
        &self,
        fine: usize,
        coarse: usize,
        member: MemberId,
    ) -> Result<Vec<MemberId>, ModelError> {
        let map = self.composed_map(fine, coarse)?;
        Ok(map
            .iter()
            .enumerate()
            .filter(|(_, parent)| **parent == member)
            .map(|(i, _)| MemberId(i as u32))
            .collect())
    }
}

/// Builder assembling a [`Hierarchy`] one level at a time, finest first.
///
/// Members are registered through [`HierarchyBuilder::add_member_chain`],
/// which takes a full path from the finest member to the coarsest and interns
/// every segment, wiring the part-of links. Conflicting parents for an
/// already-registered member are rejected, which enforces functionality of
/// the part-of order.
#[derive(Debug)]
pub struct HierarchyBuilder {
    name: String,
    levels: Vec<Level>,
    part_of: Vec<Vec<Option<MemberId>>>,
}

impl HierarchyBuilder {
    /// Starts a hierarchy with the given level names, finest first.
    pub fn new<I, S>(name: impl Into<String>, level_names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let levels: Vec<Level> = level_names.into_iter().map(|n| Level::new(n.into())).collect();
        let part_of = (0..levels.len().saturating_sub(1)).map(|_| Vec::new()).collect();
        HierarchyBuilder { name: name.into(), levels, part_of }
    }

    /// Registers a full member chain, finest member first, e.g.
    /// `["1997-04-15", "1997-04", "1997"]` for `date ⪰ month ⪰ year`.
    ///
    /// Returns the [`MemberId`] of the finest member. Re-registering a chain
    /// is idempotent; registering a finest member with a *different* parent
    /// chain is an error (the part-of order must stay functional).
    pub fn add_member_chain<S: AsRef<str>>(&mut self, chain: &[S]) -> Result<MemberId, ModelError> {
        if chain.len() != self.levels.len() {
            return Err(ModelError::Invariant(format!(
                "member chain for hierarchy `{}` must have {} segments, got {}",
                self.name,
                self.levels.len(),
                chain.len()
            )));
        }
        let ids: Vec<MemberId> = chain
            .iter()
            .zip(self.levels.iter_mut())
            .map(|(name, level)| level.intern(name.as_ref()))
            .collect();
        for step in 0..ids.len().saturating_sub(1) {
            let child = ids[step];
            let parent = ids[step + 1];
            let links = &mut self.part_of[step];
            if links.len() <= child.index() {
                links.resize(child.index() + 1, None);
            }
            match links[child.index()] {
                None => links[child.index()] = Some(parent),
                Some(existing) if existing == parent => {}
                Some(_) => {
                    return Err(ModelError::NonFunctionalPartOf {
                        from: self.levels[step].name().to_string(),
                        to: self.levels[step + 1].name().to_string(),
                        member: chain[step].as_ref().to_string(),
                    })
                }
            }
        }
        Ok(ids[0])
    }

    /// Finalizes the hierarchy, verifying every member has exactly one parent.
    pub fn build(self) -> Result<Hierarchy, ModelError> {
        let mut part_of = Vec::with_capacity(self.part_of.len());
        for (step, links) in self.part_of.into_iter().enumerate() {
            let expected = self.levels[step].cardinality();
            if links.len() != expected {
                let member = self.levels[step]
                    .member_name(MemberId(links.len() as u32))
                    .unwrap_or("<unknown>")
                    .to_string();
                return Err(ModelError::NonFunctionalPartOf {
                    from: self.levels[step].name().to_string(),
                    to: self.levels[step + 1].name().to_string(),
                    member,
                });
            }
            let mut dense = Vec::with_capacity(links.len());
            for (i, link) in links.into_iter().enumerate() {
                match link {
                    Some(parent) => dense.push(parent),
                    None => {
                        return Err(ModelError::NonFunctionalPartOf {
                            from: self.levels[step].name().to_string(),
                            to: self.levels[step + 1].name().to_string(),
                            member: self.levels[step]
                                .member_name(MemberId(i as u32))
                                .unwrap_or("<unknown>")
                                .to_string(),
                        })
                    }
                }
            }
            part_of.push(dense);
        }
        Ok(Hierarchy { name: self.name, levels: self.levels, part_of })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn date_hierarchy() -> Hierarchy {
        let mut b = HierarchyBuilder::new("Date", ["date", "month", "year"]);
        b.add_member_chain(&["1997-04-15", "1997-04", "1997"]).unwrap();
        b.add_member_chain(&["1997-04-16", "1997-04", "1997"]).unwrap();
        b.add_member_chain(&["1997-05-01", "1997-05", "1997"]).unwrap();
        b.add_member_chain(&["1998-01-01", "1998-01", "1998"]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn roll_member_follows_part_of_chain() {
        let h = date_hierarchy();
        let date = h.level(0).unwrap().member_id("1997-04-15").unwrap();
        let month = h.roll_member(0, 1, date).unwrap();
        assert_eq!(h.level(1).unwrap().member_name(month), Some("1997-04"));
        let year = h.roll_member(0, 2, date).unwrap();
        assert_eq!(h.level(2).unwrap().member_name(year), Some("1997"));
    }

    #[test]
    fn roll_member_identity() {
        let h = date_hierarchy();
        let date = h.level(0).unwrap().member_id("1997-05-01").unwrap();
        assert_eq!(h.roll_member(0, 0, date).unwrap(), date);
    }

    #[test]
    fn identity_roll_checks_the_domain() {
        let mut b = HierarchyBuilder::new("Store", ["store"]);
        b.add_member_chain(&["SmartMart"]).unwrap();
        let h = b.build().unwrap();
        assert!(matches!(h.roll_member(0, 0, MemberId(99)), Err(ModelError::Invariant(_))));
        assert_eq!(h.roll_member(0, 0, MemberId(0)).unwrap(), MemberId(0));
    }

    #[test]
    fn rolling_down_is_rejected() {
        let h = date_hierarchy();
        let year = h.level(2).unwrap().member_id("1997").unwrap();
        assert!(matches!(h.roll_member(2, 0, year), Err(ModelError::InvalidRollup { .. })));
    }

    #[test]
    fn composed_map_matches_stepwise_rollup() {
        let h = date_hierarchy();
        let map = h.composed_map(0, 2).unwrap();
        for (id, _) in h.level(0).unwrap().members() {
            assert_eq!(map[id.index()], h.roll_member(0, 2, id).unwrap());
        }
    }

    #[test]
    fn conflicting_parent_is_rejected() {
        let mut b = HierarchyBuilder::new("Date", ["date", "month", "year"]);
        b.add_member_chain(&["d1", "1997-04", "1997"]).unwrap();
        let err = b.add_member_chain(&["d1", "1997-05", "1997"]).unwrap_err();
        assert!(matches!(err, ModelError::NonFunctionalPartOf { .. }));
    }

    #[test]
    fn members_under_collects_descendants() {
        let h = date_hierarchy();
        let y1997 = h.level(2).unwrap().member_id("1997").unwrap();
        let under = h.members_under(0, 2, y1997).unwrap();
        let names: Vec<&str> =
            under.iter().map(|m| h.level(0).unwrap().member_name(*m).unwrap()).collect();
        assert_eq!(names, vec!["1997-04-15", "1997-04-16", "1997-05-01"]);
    }

    #[test]
    fn wrong_chain_arity_is_rejected() {
        let mut b = HierarchyBuilder::new("Date", ["date", "month", "year"]);
        assert!(b.add_member_chain(&["1997-04-15", "1997-04"]).is_err());
    }

    #[test]
    fn single_level_hierarchy_builds() {
        let mut b = HierarchyBuilder::new("Flag", ["flag"]);
        b.add_member_chain(&["on"]).unwrap();
        b.add_member_chain(&["off"]).unwrap();
        let h = b.build().unwrap();
        assert_eq!(h.depth(), 1);
        assert_eq!(h.level(0).unwrap().cardinality(), 2);
    }
}
