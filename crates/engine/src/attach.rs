//! `attach`: the one join/pivot operator, on packed keys.
//!
//! The paper defines one operator family, not four. The partial join
//! `C ⋈_{G\l} B` of Section 4.2 generalises the natural join, the roll-up
//! join of ancestor benchmarks pairs a cell with its ancestor's cell, and
//! property P3 (Section 5.1) proves a join of slices equals a pivot of the
//! widened get. Each of them is: *for every target cell, rewrite one
//! component of its coordinate, find the benchmark cell there, attach its
//! measure* — one output column per rewrite. [`attach`] is that operator,
//! stated once over packed keys; the fused engine operators run it on two
//! partial aggregates, the client runs it on two materialized cubes after
//! re-packing their coordinates ([`pack_cells`]), and either side only
//! gathers values through the row numbers it returns.

use olap_model::{DerivedCube, GroupBySet, MemberId};

use crate::aggregate::Grouper;
use crate::engine::JoinKind;
use crate::error::EngineError;
use crate::governor::{ResourceGovernor, CHECK_INTERVAL};
use crate::key::KeyLayout;

/// How one output column rewrites the probed component of a target cell's
/// coordinate before the benchmark cell is looked up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rewrite {
    /// The cell's own member: the natural join.
    Same,
    /// A fixed member: one slice of a partial join, one neighbour of a pivot.
    Member(MemberId),
    /// The member's ancestor at the benchmark's coarser level,
    /// `map[member]`: the roll-up join.
    Roll(Vec<MemberId>),
}

impl Rewrite {
    /// One [`Rewrite::Member`] per slice member.
    pub fn members(members: &[MemberId]) -> Vec<Rewrite> {
        members.iter().copied().map(Rewrite::Member).collect()
    }
}

/// Which target cells survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// Cells with a benchmark cell under at least one rewrite (`assess`).
    Matched,
    /// Every cell, unmatched ones completed with nulls (`assess*`).
    All,
    /// The cells of one slice of the rewritten component: the pivot's
    /// reference slice, whose benchmark is the target cube itself.
    Slice(MemberId),
}

impl From<JoinKind> for Keep {
    fn from(kind: JoinKind) -> Self {
        match kind {
            JoinKind::Inner => Keep::Matched,
            JoinKind::LeftOuter => Keep::All,
        }
    }
}

/// What to attach: the planner lowers every join and pivot to one of these.
#[derive(Debug, Clone)]
pub struct AttachSpec<'a> {
    /// The hierarchy whose coordinate component the rewrites replace;
    /// `None` when cells pair on their whole coordinate.
    pub on: Option<usize>,
    /// One rewrite per output column.
    pub rewrites: Vec<Rewrite>,
    pub keep: Keep,
    /// The benchmark measure the output columns hold.
    pub measure: &'a str,
    /// The output column names, parallel to `rewrites`.
    pub names: &'a [String],
}

impl AttachSpec<'_> {
    /// The error for a request this spec cannot serve.
    pub(crate) fn refuse(&self, msg: String) -> EngineError {
        match self.keep {
            Keep::Slice(_) => EngineError::InvalidPivot(msg),
            Keep::Matched | Keep::All => EngineError::NotJoinable(msg),
        }
    }
}

/// One side of an [`attach`]: the cube's group-by set, the layout its keys
/// are packed with, and the keys (the target's in output order).
#[derive(Debug, Clone, Copy)]
pub struct Side<'a> {
    pub group_by: &'a GroupBySet,
    pub layout: &'a KeyLayout,
    pub keys: &'a [u64],
}

/// The result of an [`attach`], as row numbers into the two key lists.
#[derive(Debug, PartialEq, Eq)]
pub struct Attached {
    /// The surviving target rows, ascending.
    pub kept: Vec<u32>,
    /// Per rewrite, per kept row: the benchmark row found, if any.
    pub matched: Vec<Vec<Option<u32>>>,
}

impl Attached {
    /// The output columns: under each name, per kept row, the `value` of
    /// the benchmark row found (null where none was).
    pub fn columns<'a>(
        &'a self,
        names: &'a [String],
        value: impl Fn(u32) -> f64 + 'a,
    ) -> impl Iterator<Item = (String, Vec<Option<f64>>)> + 'a {
        names
            .iter()
            .zip(&self.matched)
            .map(move |(name, rows)| (name.clone(), rows.iter().map(|r| r.map(&value)).collect()))
    }
}

/// Attaches benchmark cells to target cells (see the module docs).
///
/// Validates the request once for every tier: at least one rewrite and a
/// name for each, the rewritten hierarchy in both group-by sets, equal
/// group-by sets (up to the rolled level) and reconciled member domains
/// (Definition 3.1). `governor` is checked every [`CHECK_INTERVAL`] cells.
pub fn attach(
    target: Side<'_>,
    bench: Side<'_>,
    spec: &AttachSpec<'_>,
    governor: Option<&ResourceGovernor>,
) -> Result<Attached, EngineError> {
    if spec.rewrites.is_empty() || spec.rewrites.len() != spec.names.len() {
        return Err(spec.refuse(format!(
            "{} benchmark slices for {} column names",
            spec.rewrites.len(),
            spec.names.len()
        )));
    }
    let component = match spec.on {
        Some(h) => Some(target.group_by.component_of(h).ok_or_else(|| {
            spec.refuse(format!("hierarchy #{h} is not in the target's group-by set"))
        })?),
        None if spec.rewrites.iter().all(|r| *r == Rewrite::Same)
            && !matches!(spec.keep, Keep::Slice(_)) =>
        {
            None
        }
        None => return Err(spec.refuse("no hierarchy named for the rewrite to apply to".into())),
    };
    let rolled = spec.rewrites.iter().any(|r| matches!(r, Rewrite::Roll(_)));
    let (t_slots, b_slots) = (target.group_by.slots(), bench.group_by.slots());
    let same_shape = t_slots.len() == b_slots.len()
        && t_slots.iter().zip(b_slots).enumerate().all(|(h, (t, b))| {
            t == b || (rolled && spec.on == Some(h) && t.is_some() && b.is_some())
        });
    if !same_shape {
        return Err(
            spec.refuse("the target cube and the benchmark have different group-by sets".into())
        );
    }
    let (t_bits, b_bits) = (target.layout.component_bits(), bench.layout.component_bits());
    let reconciled = t_bits.len() == b_bits.len()
        && t_bits
            .iter()
            .zip(b_bits)
            .enumerate()
            .all(|(c, (t, b))| t == b || (rolled && component == Some(c)));
    if !reconciled {
        return Err(spec.refuse("the two cubes have unreconciled member domains".into()));
    }
    // Equal layouts: a target key is a benchmark key as it stands.
    let aligned = t_bits == b_bits;

    let index = Grouper::over(bench.layout, bench.keys);
    let mut kept: Vec<u32> = Vec::new();
    let mut matched: Vec<Vec<Option<u32>>> = vec![Vec::new(); spec.rewrites.len()];
    let mut found: Vec<Option<u32>> = Vec::with_capacity(spec.rewrites.len());
    for (chunk, row0) in target.keys.chunks(CHECK_INTERVAL).zip((0u32..).step_by(CHECK_INTERVAL)) {
        if let Some(g) = governor {
            g.check()?;
        }
        for (&key, row) in chunk.iter().zip(row0..) {
            let own = component.map(|c| (c, target.layout.unpack_component(key, c)));
            if let Keep::Slice(reference) = spec.keep {
                if own.map(|(_, member)| member) != Some(reference) {
                    continue;
                }
            }
            // The key in the benchmark's layout, rewritten component zeroed.
            let base = match own {
                None if aligned => key,
                Some((c, _)) if aligned => target.layout.clear_component(key, c),
                _ => (0..t_bits.len()).filter(|&c| Some(c) != component).fold(0, |mut k, c| {
                    bench.layout.pack_component(&mut k, c, target.layout.unpack_component(key, c));
                    k
                }),
            };
            found.clear();
            found.extend(spec.rewrites.iter().map(|rewrite| {
                let mut probe = base;
                if let Some((c, own)) = own {
                    let member = match rewrite {
                        Rewrite::Same => own,
                        Rewrite::Member(m) => *m,
                        Rewrite::Roll(map) => *map.get(own.index())?,
                    };
                    bench.layout.pack_component(&mut probe, c, member);
                }
                index.lookup(probe).map(|r| r as u32)
            }));
            if spec.keep == Keep::Matched && found.iter().all(Option::is_none) {
                continue;
            }
            kept.push(row);
            for (col, m) in matched.iter_mut().zip(&found) {
                col.push(*m);
            }
        }
    }
    Ok(Attached { kept, matched })
}

/// Packs the coordinates of `rows` of a materialized cube with the layout
/// `get` used for its group-by set — how the client re-enters [`attach`].
/// Group-by sets wider than a machine word have no packed form.
pub fn pack_cells(
    cube: &DerivedCube,
    rows: impl ExactSizeIterator<Item = usize> + Clone,
) -> Result<(KeyLayout, Vec<u64>), EngineError> {
    let layout = KeyLayout::for_group_by(cube.schema(), cube.group_by());
    if !layout.fits_u64() {
        return Err(EngineError::WideKey { bits: layout.total_bits() });
    }
    let mut keys = vec![0u64; rows.len()];
    for (c, col) in cube.coord_cols().iter().enumerate() {
        for (key, row) in keys.iter_mut().zip(rows.clone()) {
            layout.pack_component(key, c, col[row]);
        }
    }
    Ok((layout, keys))
}
