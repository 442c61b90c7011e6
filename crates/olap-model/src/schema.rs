//! Cube schemas: hierarchies plus measures with aggregation operators.

use crate::error::ModelError;
use crate::hierarchy::Hierarchy;

/// Aggregation operator attached to a measure (Definition 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AggOp {
    Sum,
    Avg,
    Min,
    Max,
    Count,
}

impl AggOp {
    /// Whether partial aggregates of this operator can be further combined
    /// without auxiliary state (distributive operators). `Avg` is algebraic
    /// and needs a paired count, so it is not distributive on its own.
    pub fn is_distributive(self) -> bool {
        !matches!(self, AggOp::Avg)
    }

    /// Canonical lower-case name used by the SQL generator.
    pub fn name(self) -> &'static str {
        match self {
            AggOp::Sum => "sum",
            AggOp::Avg => "avg",
            AggOp::Min => "min",
            AggOp::Max => "max",
            AggOp::Count => "count",
        }
    }
}

impl std::fmt::Display for AggOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A numerical measure coupled with its aggregation operator.
#[derive(Debug, Clone)]
pub struct MeasureDef {
    name: String,
    agg: AggOp,
}

impl MeasureDef {
    pub fn new(name: impl Into<String>, agg: AggOp) -> Self {
        MeasureDef { name: name.into(), agg }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn agg(&self) -> AggOp {
        self.agg
    }
}

/// A cube schema `C = (H, M)` (Definition 2.1): a set of hierarchies and a
/// tuple of measures, each with an aggregation operator.
#[derive(Debug, Clone)]
pub struct CubeSchema {
    name: String,
    hierarchies: Vec<Hierarchy>,
    measures: Vec<MeasureDef>,
}

impl CubeSchema {
    pub fn new(
        name: impl Into<String>,
        hierarchies: Vec<Hierarchy>,
        measures: Vec<MeasureDef>,
    ) -> Self {
        CubeSchema { name: name.into(), hierarchies, measures }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn hierarchies(&self) -> &[Hierarchy] {
        &self.hierarchies
    }

    pub fn measures(&self) -> &[MeasureDef] {
        &self.measures
    }

    /// The hierarchy at `index`.
    pub fn hierarchy(&self, index: usize) -> Option<&Hierarchy> {
        self.hierarchies.get(index)
    }

    /// Index of a measure by name.
    pub fn measure_index(&self, name: &str) -> Option<usize> {
        self.measures.iter().position(|m| m.name() == name)
    }

    /// Looks a measure up by name, erroring when absent.
    pub fn require_measure(&self, name: &str) -> Result<&MeasureDef, ModelError> {
        self.measures
            .iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| ModelError::UnknownMeasure(name.to_string()))
    }

    /// Locates a level by name across all hierarchies, returning
    /// `(hierarchy index, level index)`. Level names are assumed unique
    /// across the schema, as is conventional in multidimensional design.
    pub fn locate_level(&self, level: &str) -> Result<(usize, usize), ModelError> {
        for (hi, h) in self.hierarchies.iter().enumerate() {
            if let Some(li) = h.level_index(level) {
                return Ok((hi, li));
            }
        }
        Err(ModelError::UnknownLevel(level.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyBuilder;

    fn sales_schema() -> CubeSchema {
        let mut date = HierarchyBuilder::new("Date", ["date", "month", "year"]);
        date.add_member_chain(&["1997-04-15", "1997-04", "1997"]).unwrap();
        let mut product = HierarchyBuilder::new("Product", ["product", "type", "category"]);
        product.add_member_chain(&["Lemon", "Fresh Fruit", "Fruit"]).unwrap();
        CubeSchema::new(
            "SALES",
            vec![date.build().unwrap(), product.build().unwrap()],
            vec![
                MeasureDef::new("quantity", AggOp::Sum),
                MeasureDef::new("storeSales", AggOp::Sum),
            ],
        )
    }

    #[test]
    fn locate_level_across_hierarchies() {
        let schema = sales_schema();
        assert_eq!(schema.locate_level("month").unwrap(), (0, 1));
        assert_eq!(schema.locate_level("category").unwrap(), (1, 2));
        assert!(schema.locate_level("nope").is_err());
    }

    #[test]
    fn measure_lookup() {
        let schema = sales_schema();
        assert_eq!(schema.measure_index("storeSales"), Some(1));
        assert!(schema.require_measure("profit").is_err());
        assert_eq!(schema.require_measure("quantity").unwrap().agg(), AggOp::Sum);
    }

    #[test]
    fn agg_op_distributivity() {
        assert!(AggOp::Sum.is_distributive());
        assert!(AggOp::Min.is_distributive());
        assert!(!AggOp::Avg.is_distributive());
    }
}
