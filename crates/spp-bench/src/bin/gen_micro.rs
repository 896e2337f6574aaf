//! Regenerate the checked-in E17 microbench instance
//! (`crates/spp-bench/data/micro_n512.json`).
//!
//! Narrow items are deliberate: with ~10–100 items per level the skyline
//! carries ~40 segments (about 60 at most), which is the regime where the
//! pre-PR-10 quadratic position scan actually bites (wide-item instances
//! keep the contour a handful of segments and hide the asymptotics).
//!
//! ```text
//! cargo run --release -p spp-bench --bin gen_micro
//! ```

use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2006);
    let inst = spp_gen::rects::uniform(&mut rng, 512, (0.005, 0.06), (0.02, 0.2));
    let prec = spp_dag::PrecInstance::unconstrained(inst);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/micro_n512.json");
    std::fs::write(path, spp_gen::fileio::to_json(&prec)).expect("write micro_n512.json");
    eprintln!("wrote {path}");
}
