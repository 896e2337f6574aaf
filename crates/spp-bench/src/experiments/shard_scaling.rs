//! E14 — sharded batch execution: equivalence and scaling.
//!
//! The sharded executor's contract is that splitting an instance-file
//! batch into shards changes *nothing* about the result — the merged
//! report is cell-for-cell identical to the single-process run — while
//! letting the work spread over processes or machines. This experiment
//! checks the equivalence on a real suite at several shard counts and
//! reports the wall time of each in-process configuration (shards run
//! one after another, each spreading its cells over every core, so 1
//! shard is the baseline and more shards mainly measure the overhead of
//! the split on one machine).

use crate::table::{f2, Table};
use spp_engine::{run_sharded, Registry, ShardPlan, SolveConfig};

pub fn run() -> String {
    let dir = std::env::temp_dir().join("spp_bench_shard_scaling");
    let _ = std::fs::remove_dir_all(&dir);
    spp_gen::suite::write_suite(&dir, crate::experiments::SEED, 24, 24)
        .expect("suite generation is infallible on a writable tmpdir");

    let registry = Registry::builtin();
    let solvers: Vec<_> = ["nfdh", "ffdh", "greedy", "dc-nfdh"]
        .iter()
        .map(|n| registry.get(n).expect("registry entry exists"))
        .collect();
    let config = SolveConfig::default();

    let reference = {
        let plan = ShardPlan::from_dir(&dir, 1).expect("suite dir is non-empty");
        run_sharded(&plan, &solvers, &config, None, None).expect("shard run succeeds")
    };

    let mut t = Table::new(&["shards", "cells", "identical to 1-shard", "wall s"]);
    for shards in [1usize, 2, 4, 8] {
        let plan = ShardPlan::from_dir(&dir, shards).expect("suite dir is non-empty");
        let t0 = std::time::Instant::now();
        let merged = run_sharded(&plan, &solvers, &config, None, None).expect("shard run succeeds");
        let wall = t0.elapsed().as_secs_f64();
        let identical = merged.cells == reference.cells;
        assert!(identical, "{shards}-shard run diverged from the reference");
        t.row(&[
            shards.to_string(),
            merged.cells.len().to_string(),
            identical.to_string(),
            f2(wall),
        ]);
    }

    let _ = std::fs::remove_dir_all(&dir);
    format!(
        "## E14 — sharded batch: equivalence and scaling\n\n\
         24-instance suite (8 scenario families) × 4 solvers, split into\n\
         1/2/4/8 contiguous shards and merged. Identity of the merged cell\n\
         list with the 1-shard reference is asserted, not just reported.\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_asserts_equivalence() {
        let md = super::run();
        assert!(md.contains("E14"));
        // one row per shard count, all identical
        assert_eq!(md.matches("true").count(), 4, "{md}");
    }
}
