//! Labeling functions (Section 3.3): explicit ranges and labelings based on
//! the overall value distribution.
//!
//! A labeling is applied by [`codes`], a column kernel: it reads the
//! comparison column's `data` and `validity` and writes one code per cell
//! into the labeling's label table — the rule index for ranges, the bin for
//! equi-width, the clamped rounded score for z-scores, the group for
//! quantiles. No label string is copied per cell; strings are read back from
//! the table only when a result is rendered. Quantile groups come from `k−1`
//! cut-point selections instead of a sort: ordering cells by (value, row)
//! is exactly the order a stable sort by value leaves, so every cell lands
//! in the group the sorted positions give it, ties included.

use olap_model::{LabelColumn, NumericColumn};

use crate::ast::{Bound, LabelingSpec, RangeRule};
use crate::error::AssessError;

/// A labeling ready to apply to comparison values.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedLabeling {
    /// Explicit ranges (Section 3.3.1), validated non-overlapping.
    Ranges(Vec<RangeRule>),
    /// Equi-depth split into `k` groups labeled by rank position
    /// (Section 3.3.2): the highest comparison values get `labels[0]`.
    Quantiles { k: usize, labels: Vec<String> },
    /// Equi-width split of `[min, max]` into `k` bins; `labels[0]` is the
    /// lowest bin.
    EquiWidth { k: usize, labels: Vec<String> },
    /// The "more simplistic scheme" of Section 3.3.2: label each cell by its
    /// **rounded z-score**, clamped to `±clamp` (e.g. `z-2 … z+2`). Adapts
    /// to the distribution without predefining ranges or a group count.
    ZScoreRound { clamp: i32 },
}

/// Problems found while validating a range-based labeling. Each variant
/// carries the indices of the offending rules (in statement order) so
/// diagnostics can point at the exact range.
#[derive(Debug, Clone, PartialEq)]
pub enum RangeIssue {
    /// `lo > hi`, or `lo == hi` with an open endpoint.
    Empty { rule: usize },
    /// Two rules both contain some value.
    Overlap { first: usize, second: usize },
    /// Uncovered gap between consecutive rules (cells falling there stay
    /// unlabeled — the paper leaves completeness to the user).
    Gap { before: usize, after: usize },
}

/// Validates a set of range rules: reports empty ranges, overlaps and gaps.
pub fn validate_ranges(rules: &[RangeRule]) -> Vec<RangeIssue> {
    let mut issues = Vec::new();
    for (i, r) in rules.iter().enumerate() {
        let empty = r.lo.value > r.hi.value
            || (r.lo.value == r.hi.value && !(r.lo.inclusive && r.hi.inclusive));
        if empty {
            issues.push(RangeIssue::Empty { rule: i });
        }
    }
    let mut order: Vec<usize> = (0..rules.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        rules[a]
            .lo
            .value
            .partial_cmp(&rules[b].lo.value)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| rules[b].lo.inclusive.cmp(&rules[a].lo.inclusive))
            .then(a.cmp(&b))
    });
    for w in order.windows(2) {
        let (a, b) = (&rules[w[0]], &rules[w[1]]);
        // a precedes b by lower bound; overlap iff a's upper passes b's lower.
        let overlap = a.hi.value > b.lo.value
            || (a.hi.value == b.lo.value && a.hi.inclusive && b.lo.inclusive);
        if overlap {
            issues.push(RangeIssue::Overlap { first: w[0], second: w[1] });
        } else {
            let touching = a.hi.value == b.lo.value && (a.hi.inclusive || b.lo.inclusive);
            if !touching {
                issues.push(RangeIssue::Gap { before: w[0], after: w[1] });
            }
        }
    }
    issues
}

/// The names the labeling library knows (for suggestions in diagnostics).
pub fn known_labelings() -> &'static [&'static str] {
    &["quartiles", "quintiles", "terciles", "deciles", "5stars", "5star", "zscore", "zround"]
}

/// The named labelings of the library, as a `(name, constructor)` list.
fn named(name: &str) -> Option<ResolvedLabeling> {
    let top_labels = |k: usize| (1..=k).map(|i| format!("top-{i}")).collect::<Vec<_>>();
    match name.to_ascii_lowercase().as_str() {
        "quartiles" => Some(ResolvedLabeling::Quantiles { k: 4, labels: top_labels(4) }),
        "quintiles" => Some(ResolvedLabeling::Quantiles { k: 5, labels: top_labels(5) }),
        "terciles" => Some(ResolvedLabeling::Quantiles { k: 3, labels: top_labels(3) }),
        "deciles" => Some(ResolvedLabeling::Quantiles { k: 10, labels: top_labels(10) }),
        // Example 3.3: five equal-width star ratings over the min-max
        // normalized comparison value.
        "5stars" | "5star" => Some(ResolvedLabeling::EquiWidth {
            k: 5,
            labels: vec!["*".into(), "**".into(), "***".into(), "****".into(), "*****".into()],
        }),
        "zscore" | "zround" => Some(ResolvedLabeling::ZScoreRound { clamp: 2 }),
        _ => None,
    }
}

/// Resolves a labeling spec, validating range sets (empty ranges and
/// overlaps are errors; gaps are permitted and leave cells unlabeled).
pub fn resolve(spec: &LabelingSpec) -> Result<ResolvedLabeling, AssessError> {
    match spec {
        LabelingSpec::Named(name) => {
            named(name).ok_or_else(|| AssessError::UnknownLabeling(name.clone()))
        }
        LabelingSpec::Ranges(rules) => {
            if rules.is_empty() {
                return Err(AssessError::InvalidLabeling("no ranges given".into()));
            }
            // Collect *every* hard issue (empties and overlaps; gaps are
            // allowed) instead of bailing at the first one, so the error
            // message — and the diagnostics built from these issues — name
            // all offending rules at once.
            let problems: Vec<String> = validate_ranges(rules)
                .iter()
                .filter_map(|issue| match issue {
                    RangeIssue::Empty { rule } => {
                        rules.get(*rule).map(|r| format!("range {rule} (`{r}`) is empty"))
                    }
                    RangeIssue::Overlap { first, second } => {
                        match (rules.get(*first), rules.get(*second)) {
                            (Some(a), Some(b)) => Some(format!("ranges `{a}` and `{b}` overlap")),
                            _ => None,
                        }
                    }
                    RangeIssue::Gap { .. } => None,
                })
                .collect();
            if !problems.is_empty() {
                return Err(AssessError::InvalidLabeling(problems.join("; ")));
            }
            Ok(ResolvedLabeling::Ranges(rules.clone()))
        }
    }
}

/// Applies a labeling to comparison values, as strings: [`codes`] read back
/// through the label table. Null values — and values no range covers —
/// label as `None`.
pub fn apply(labeling: &ResolvedLabeling, values: &[Option<f64>]) -> Vec<Option<String>> {
    let column = codes(labeling, &NumericColumn::nullable("values", values.to_vec()));
    (0..column.len()).map(|row| column.get(row).map(str::to_string)).collect()
}

/// Labels every cell of `values`: the `label` column, one code per cell
/// into the labeling's table. Null values — and values no range covers —
/// get a null code.
pub fn codes(labeling: &ResolvedLabeling, values: &NumericColumn) -> LabelColumn {
    let valid = |row: usize| values.validity[row].then(|| values.data[row]);
    let n = values.len();
    let (table, codes): (Vec<String>, Vec<Option<u32>>) = match labeling {
        ResolvedLabeling::Ranges(rules) => (
            rules.iter().map(|r| r.label.clone()).collect(),
            (0..n)
                .map(|row| {
                    let rule = valid(row).and_then(|x| rules.iter().position(|r| r.contains(x)));
                    rule.map(|r| r as u32)
                })
                .collect(),
        ),
        ResolvedLabeling::Quantiles { k, labels } => (labels.clone(), quantile_codes(*k, values)),
        ResolvedLabeling::ZScoreRound { clamp } => {
            let table = (-clamp..=*clamp)
                .map(|z| if z >= 0 { format!("z+{z}") } else { format!("z{z}") })
                .collect();
            // With no valid cell there is nothing to standardise or code.
            let count = values.valid_values().count() as f64;
            let mean = values.valid_values().sum::<f64>() / count;
            let sd = (values.valid_values().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count)
                .sqrt();
            let codes = (0..n)
                .map(|row| {
                    valid(row).map(|x| {
                        let z = if sd == 0.0 { 0.0 } else { (x - mean) / sd };
                        ((z.round() as i32).clamp(-clamp, *clamp) + clamp) as u32
                    })
                })
                .collect();
            (table, codes)
        }
        ResolvedLabeling::EquiWidth { k, labels } => {
            let (Some(min), Some(max)) =
                (values.valid_values().reduce(f64::min), values.valid_values().reduce(f64::max))
            else {
                return LabelColumn::from_codes("label", labels.clone(), vec![None; n]);
            };
            let width = (max - min) / *k as f64;
            let codes = (0..n)
                .map(|row| {
                    valid(row).map(|x| {
                        if width == 0.0 {
                            0
                        } else {
                            (((x - min) / width) as usize).min(k - 1) as u32
                        }
                    })
                })
                .collect();
            (labels.clone(), codes)
        }
    };
    LabelColumn::from_codes("label", table, codes)
}

/// Equi-depth groups by rank position: with the `n` valid cells ordered by
/// (value, row), position `p` falls in group `⌊p·k/(n−1)⌋` (capped at
/// `k−1`) counted from the bottom, and the top group gets code 0. Group `g`
/// ends where `p·k ≥ (g+1)(n−1)` starts, so `k−1` selections at those
/// positions split the cells without sorting them.
fn quantile_codes(k: usize, values: &NumericColumn) -> Vec<Option<u32>> {
    let mut cells: Vec<(f64, u32)> = (0..values.len())
        .filter(|&row| values.validity[row])
        .map(|row| (values.data[row], row as u32))
        .collect();
    // Value order as the comparison sees it (±0.0 tie, NaN last), then row.
    let order = |a: &(f64, u32), b: &(f64, u32)| {
        a.0.partial_cmp(&b.0).unwrap_or_else(|| a.0.is_nan().cmp(&b.0.is_nan())).then(a.1.cmp(&b.1))
    };
    let n = cells.len();
    let mut codes = vec![None; values.len()];
    let mut start = 0;
    for group in 0..k {
        let end = if group + 1 == k { n } else { ((group + 1) * n.saturating_sub(1)).div_ceil(k) };
        if start < end && end < n {
            cells[start..].select_nth_unstable_by(end - start, order);
        }
        for &(_, row) in &cells[start..end] {
            codes[row as usize] = Some((k - 1 - group) as u32);
        }
        start = end;
    }
    codes
}

/// A convenience constructor for the `{[lo, hi): label, …}` style used by
/// the examples and benches: `(lo, lo_inclusive, hi, hi_inclusive, label)`.
pub fn ranges(rules: &[(f64, bool, f64, bool, &str)]) -> Vec<RangeRule> {
    rules
        .iter()
        .map(|(lo, loi, hi, hii, label)| {
            RangeRule::new(
                Bound { value: *lo, inclusive: *loi },
                Bound { value: *hi, inclusive: *hii },
                *label,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::LabelingSpec;

    fn good_bad_ok() -> Vec<RangeRule> {
        ranges(&[
            (f64::NEG_INFINITY, true, -0.2, false, "bad"),
            (-0.2, true, 0.2, true, "ok"),
            (0.2, false, f64::INFINITY, true, "good"),
        ])
    }

    #[test]
    fn range_labeling_covers_the_line() {
        let labeling = resolve(&LabelingSpec::Ranges(good_bad_ok())).unwrap();
        let out = apply(&labeling, &[Some(-1.0), Some(0.0), Some(0.2), Some(0.3), None]);
        assert_eq!(
            out,
            vec![
                Some("bad".to_string()),
                Some("ok".to_string()),
                Some("ok".to_string()),
                Some("good".to_string()),
                None
            ]
        );
    }

    #[test]
    fn overlapping_ranges_are_rejected() {
        let rules = ranges(&[(0.0, true, 1.0, true, "a"), (1.0, true, 2.0, true, "b")]);
        assert!(matches!(
            resolve(&LabelingSpec::Ranges(rules)),
            Err(AssessError::InvalidLabeling(_))
        ));
    }

    #[test]
    fn touching_halfopen_ranges_are_fine() {
        let rules = ranges(&[(0.0, true, 1.0, false, "a"), (1.0, true, 2.0, true, "b")]);
        assert!(resolve(&LabelingSpec::Ranges(rules)).is_ok());
    }

    #[test]
    fn gaps_are_allowed_but_leave_cells_unlabeled() {
        let rules = ranges(&[(0.0, true, 1.0, true, "a"), (2.0, true, 3.0, true, "b")]);
        let issues = validate_ranges(&rules);
        assert!(issues.iter().any(|i| matches!(i, RangeIssue::Gap { .. })));
        let labeling = resolve(&LabelingSpec::Ranges(rules)).unwrap();
        assert_eq!(apply(&labeling, &[Some(1.5)]), vec![None]);
    }

    #[test]
    fn empty_ranges_are_rejected() {
        let rules = ranges(&[(1.0, true, 0.0, true, "x")]);
        assert!(matches!(
            resolve(&LabelingSpec::Ranges(rules)),
            Err(AssessError::InvalidLabeling(_))
        ));
        let point_open = ranges(&[(1.0, true, 1.0, false, "x")]);
        assert_eq!(validate_ranges(&point_open), vec![RangeIssue::Empty { rule: 0 }]);
        // A closed point range is legal.
        let point = ranges(&[(1.0, true, 1.0, true, "x")]);
        assert!(validate_ranges(&point).is_empty());
    }

    #[test]
    fn resolve_reports_all_issues_at_once() {
        let rules = ranges(&[
            (1.0, true, 0.0, true, "inverted"),
            (0.0, true, 2.0, true, "a"),
            (1.5, true, 3.0, true, "b"),
        ]);
        let err = resolve(&LabelingSpec::Ranges(rules)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("is empty"), "missing empty-range report: {msg}");
        assert!(msg.contains("overlap"), "missing overlap report: {msg}");
    }

    #[test]
    fn named_lookup_is_total_over_known_names() {
        for name in known_labelings() {
            assert!(named(name).is_some(), "known labeling `{name}` must resolve");
        }
        assert!(named("septiles").is_none());
    }

    #[test]
    fn quartiles_label_top_group_first() {
        let labeling = resolve(&LabelingSpec::Named("quartiles".into())).unwrap();
        let values: Vec<Option<f64>> = (1..=8).map(|i| Some(i as f64)).collect();
        let out = apply(&labeling, &values);
        assert_eq!(out[7], Some("top-1".to_string()));
        assert_eq!(out[6], Some("top-1".to_string()));
        assert_eq!(out[0], Some("top-4".to_string()));
        assert_eq!(out[1], Some("top-4".to_string()));
        assert_eq!(out[3], Some("top-3".to_string()));
    }

    #[test]
    fn quantiles_handle_nulls_and_small_n() {
        let labeling = resolve(&LabelingSpec::Named("quartiles".into())).unwrap();
        let out = apply(&labeling, &[Some(1.0), None, Some(2.0)]);
        assert_eq!(out[1], None);
        assert_eq!(out[2], Some("top-1".to_string()));
        assert_eq!(out[0], Some("top-4".to_string()));
    }

    #[test]
    fn five_stars_is_equi_width() {
        let labeling = resolve(&LabelingSpec::Named("5stars".into())).unwrap();
        let out = apply(&labeling, &[Some(0.0), Some(0.5), Some(1.0)]);
        assert_eq!(
            out,
            vec![Some("*".to_string()), Some("***".to_string()), Some("*****".to_string())]
        );
        // All-equal values land in the first bin rather than erroring.
        let flat = apply(&labeling, &[Some(2.0), Some(2.0)]);
        assert_eq!(flat, vec![Some("*".to_string()), Some("*".to_string())]);
    }

    #[test]
    fn zscore_round_labels_by_standardized_distance() {
        let labeling = resolve(&LabelingSpec::Named("zscore".into())).unwrap();
        // Mean 0, values at ±1σ and a far outlier clamped to ±2.
        let out =
            apply(&labeling, &[Some(-10.0), Some(-1.0), Some(0.0), Some(1.0), Some(10.0), None]);
        assert_eq!(out[2], Some("z+0".to_string()));
        assert_eq!(out[0], Some("z-2".to_string())); // clamped
        assert_eq!(out[4], Some("z+2".to_string()));
        assert_eq!(out[5], None);
        // Constant distribution: everything is z+0.
        let flat = apply(&labeling, &[Some(3.0), Some(3.0)]);
        assert_eq!(flat, vec![Some("z+0".to_string()), Some("z+0".to_string())]);
    }

    #[test]
    fn unknown_named_labeling_errors() {
        assert!(matches!(
            resolve(&LabelingSpec::Named("septiles".into())),
            Err(AssessError::UnknownLabeling(_))
        ));
    }

    #[test]
    fn equi_width_of_all_nulls_is_all_nulls() {
        let labeling = resolve(&LabelingSpec::Named("5stars".into())).unwrap();
        assert_eq!(apply(&labeling, &[None, None]), vec![None, None]);
    }

    #[test]
    fn quantile_partition_is_total_on_valid_values() {
        let labeling = resolve(&LabelingSpec::Named("deciles".into())).unwrap();
        let values: Vec<Option<f64>> = (0..97).map(|i| Some((i * 7 % 97) as f64)).collect();
        let out = apply(&labeling, &values);
        assert!(out.iter().all(|l| l.is_some()));
        // Every group is used.
        let distinct: std::collections::HashSet<_> = out.iter().flatten().collect();
        assert_eq!(distinct.len(), 10);
    }
}
