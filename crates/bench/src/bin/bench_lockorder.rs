//! Lock-order / schedule-invariance audit binary.
//!
//! Thin binary over [`pstack_bench::lockorder`]: explores all four tuning
//! drivers across the standard 16-seed × {1, 2, 4, 8}-worker adversarial
//! schedule grid, writes the `results/lockorder.{json,txt}` artifacts, and
//! exits nonzero unless every driver reproduced its baseline byte-for-byte
//! with an inversion-free, cycle-free, smell-free lock-order graph. The CI
//! `conc` stage runs this binary.

use pstack_bench::lockorder;
use pstack_sync::SeedGrid;

fn main() {
    pstack_analyze::startup_gate();

    let grid = SeedGrid::standard();
    let r = pstack_bench::traced("lockorder", |_tc| lockorder::run(&grid));
    pstack_bench::emit("lockorder", &lockorder::render(&r), &r);

    assert!(
        r.clean,
        "schedule explorer found a divergence, inversion, smell, cycle, or \
         undeclared site; see {}",
        pstack_bench::results_dir().join("lockorder.json").display()
    );
}
