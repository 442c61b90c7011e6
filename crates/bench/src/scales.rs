//! Scale factors and experiment environment setup.

use std::sync::Arc;

use assess_core::exec::AssessRunner;
use olap_engine::{Engine, EngineConfig};
use olap_storage::Catalog;
use ssb_data::{SsbConfig, SsbDataset};

/// One evaluated scale.
#[derive(Debug, Clone, Copy)]
pub struct ScaleSpec {
    pub sf: f64,
}

impl ScaleSpec {
    /// Display label, e.g. `SSB(SF=0.1)`.
    pub fn label(&self) -> String {
        format!("SSB(SF={})", self.sf)
    }
}

/// The default ×100 span. The paper uses SF ∈ {1, 10, 100}; the reproduction
/// shifts the same span down two decades (see DESIGN.md).
pub fn default_scales() -> Vec<ScaleSpec> {
    vec![ScaleSpec { sf: 0.01 }, ScaleSpec { sf: 0.1 }, ScaleSpec { sf: 1.0 }]
}

/// Parses scales from a `--scales 0.01,0.1,1` style CLI argument list;
/// also understands `--reps N` and `--no-views` (ablation: run without the
/// materialized views of the default setup). Returns
/// `(scales, reps, with_views)`.
pub fn parse_cli(args: &[String]) -> (Vec<ScaleSpec>, usize, bool) {
    let mut scales = default_scales();
    let mut reps = 3usize;
    let mut with_views = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scales" if i + 1 < args.len() => {
                scales = args[i + 1]
                    .split(',')
                    .filter_map(|s| s.trim().parse::<f64>().ok())
                    .map(|sf| ScaleSpec { sf })
                    .collect();
                i += 2;
            }
            "--reps" if i + 1 < args.len() => {
                reps = args[i + 1].parse().unwrap_or(reps);
                i += 2;
            }
            "--no-views" => {
                with_views = false;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (scales, reps, with_views)
}

/// [`parse_cli`] over this process's arguments.
pub fn cli() -> (Vec<ScaleSpec>, usize, bool) {
    parse_cli(&std::env::args().skip(1).collect::<Vec<_>>())
}

/// A generated dataset plus the runner executing statements over it.
pub struct ExperimentEnv {
    pub dataset: SsbDataset,
    pub runner: AssessRunner,
}

/// The engine every experiment runs on: the default configuration over
/// `catalog`.
pub(crate) fn engine(catalog: Arc<Catalog>) -> Engine {
    Engine::with_config(catalog, EngineConfig::default())
}

/// Generates the SSB dataset at `sf` (reusing the on-disk cache under the
/// workspace's `target/ssb_cache` across runs), optionally materializes the
/// default views (the paper's setup does), and builds the runner.
pub fn setup(sf: f64, with_views: bool) -> ExperimentEnv {
    let cache_root = crate::report::target_dir().join("ssb_cache");
    let (dataset, cache_hit) =
        ssb_data::cache::generate_cached(&cache_root, SsbConfig::with_scale(sf));
    if cache_hit {
        eprintln!("[setup] reused cached tables for SF={sf}");
    }
    if with_views {
        ssb_data::views::register_default_views(&dataset.catalog, &dataset.schema)
            .expect("default views materialize");
    }
    let runner = AssessRunner::new(engine(Arc::clone(&dataset.catalog)));
    ExperimentEnv { dataset, runner }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_parsing() {
        let args: Vec<String> = ["--scales", "0.002,0.004", "--reps", "5", "--no-views"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (scales, reps, with_views) = parse_cli(&args);
        assert_eq!(scales.len(), 2);
        assert_eq!(scales[1].sf, 0.004);
        assert_eq!(reps, 5);
        assert!(!with_views);
        let (scales, reps, with_views) = parse_cli(&[]);
        assert_eq!(scales.len(), 3);
        assert_eq!(reps, 3);
        assert!(with_views);
    }

    #[test]
    fn setup_builds_a_working_runner() {
        let env = setup(0.001, true);
        let all = crate::workloads::intentions();
        let resolved = env.runner.resolve(&all[0].statement).unwrap();
        assert_eq!(resolved.benchmark.kind(), "Constant");
    }
}
