//! Set-up: the dataset generated in memory, the views, the server, and one
//! untimed warm-up round. Every workload gets the same rig, so `setup_s`
//! means the same thing on all of them and the traced run can probe the
//! serving layer on the in-process workloads too.

use std::sync::Arc;
use std::time::Instant;

use assess_core::exec::AssessRunner;
use assess_serve::{serve, LineClient, ServerConfig, ServerHandle};
use olap_engine::{Engine, EngineConfig};
use olap_storage::Table;
use serde::Value;
use ssb_data::generate::{generate, SsbDataset};
use ssb_data::{views, SsbConfig};

use crate::spec::Workload;
use crate::stmts::{Domains, Plan};
use crate::sys;

/// Name of the SSB fact table in the generated catalog.
pub const FACT_TABLE: &str = "lineorder";

/// Where set-up time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub views_s: f64,
    pub boot_s: f64,
    pub warmup_s: f64,
    pub total_s: f64,
}

pub struct Rig {
    pub dataset: SsbDataset,
    /// The in-process caller: `EngineConfig::default()` threads.
    pub runner: AssessRunner,
    pub server: ServerHandle,
    pub workers: usize,
    pub times: SetupTimes,
}

/// Whether a response carries `"ok": true`.
pub fn is_ok(response: &Value) -> bool {
    response.get("ok").and_then(Value::as_bool) == Some(true)
}

impl Rig {
    /// Generates SSB at `sf` from `seed` (never the disk cache, so first
    /// and later runs agree), builds the default views when the workload
    /// uses them, boots the server with one worker per core, and plays one
    /// warm-up round of `plan`.
    pub fn build(workload: &Workload, sf: f64, seed: u64, plan: &Plan) -> Result<Rig, String> {
        let t0 = Instant::now();
        let mut config = SsbConfig::with_scale(sf);
        config.seed = seed;
        let dataset = generate(config);
        let generate_s = t0.elapsed().as_secs_f64();

        let t = Instant::now();
        if workload.views {
            views::register_default_views(&dataset.catalog, &dataset.schema)
                .map_err(|e| format!("views: {e}"))?;
        }
        let views_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let engine = Engine::with_config(
            Arc::clone(&dataset.catalog),
            EngineConfig { use_views: workload.views, ..EngineConfig::default() },
        );
        let workers = sys::cores();
        let server = serve(engine.clone(), ServerConfig { workers, ..ServerConfig::default() })
            .map_err(|e| format!("server boot: {e}"))?;
        let runner = AssessRunner::new(engine);
        let boot_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut rig = Rig { dataset, runner, server, workers, times: SetupTimes::default() };
        rig.warm_up(plan)?;
        let warmup_s = t.elapsed().as_secs_f64();
        rig.times = SetupTimes {
            generate_s,
            views_s,
            boot_s,
            warmup_s,
            total_s: t0.elapsed().as_secs_f64(),
        };
        Ok(rig)
    }

    /// One round of the workload's ops through the path it will be timed on.
    fn warm_up(&self, plan: &Plan) -> Result<(), String> {
        match plan {
            Plan::Rounds(rounds) => {
                for statement in rounds.round(0) {
                    let parsed = assess_sql::parse(&statement.text)
                        .map_err(|e| format!("warm-up parse: {e}"))?;
                    self.runner.run_auto(&parsed).map_err(|e| format!("warm-up run: {e}"))?;
                }
                Ok(())
            }
            Plan::Hot(_) | Plan::Churn(_) => {
                // serve_hot's warm-up fills the cache with its whole working
                // set; serve_churn's takes as many statements and leaves the
                // rest cold, as its reads will find them.
                let mut client = self.connect()?;
                for statement in plan.statements().iter().take(crate::stmts::HOT_STATEMENTS) {
                    let response =
                        client.run(&statement.text).map_err(|e| format!("warm-up run: {e}"))?;
                    if !is_ok(&response) {
                        return Err(format!("warm-up run refused: {response:?}"));
                    }
                }
                Ok(())
            }
        }
    }

    pub fn connect(&self) -> Result<LineClient, String> {
        LineClient::connect(self.server.addr()).map_err(|e| format!("connect: {e}"))
    }

    /// `[hits, misses, evictions, patches]` of the server's result cache. An
    /// entry dropped because an append could affect it counts as evicted,
    /// like one dropped for room.
    pub fn cache_counters(&self) -> [u64; 4] {
        let stats = self.server.cache_stats();
        [stats.hits, stats.misses, stats.evictions + stats.invalidations, stats.patches]
    }

    pub fn fact_table(&self) -> Arc<Table> {
        self.dataset.catalog.table(FACT_TABLE).expect("the generator registers lineorder")
    }

    pub fn fact_rows(&self) -> usize {
        self.fact_table().n_rows()
    }

    pub fn fact_bytes_per_row(&self) -> f64 {
        let table = self.fact_table();
        table.byte_size() as f64 / table.n_rows() as f64
    }

    pub fn domains(&self) -> Domains {
        let counts = self.dataset.counts;
        Domains {
            customers: counts.customers as u64,
            suppliers: counts.suppliers as u64,
            parts: counts.parts as u64,
            dates: counts.dates as u64,
        }
    }
}
