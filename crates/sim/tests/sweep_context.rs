//! One `Experiment` builds its sweep context once, however many of its
//! sweeps over its own grid and `M` run.
//!
//! The file holds exactly one test: `kernel_build_count` is a
//! process-wide counter, so the count is only exact in a test binary
//! that builds nothing else while it reads it.

use decluster_grid::GridSpace;
use decluster_methods::kernel_build_count;
use decluster_sim::workload::{ShapeSweep, SizeSweep};
use decluster_sim::Experiment;

#[test]
fn size_then_shape_sweep_build_the_four_kernels_once() {
    let exp = Experiment::new(GridSpace::new_2d(64, 64).unwrap(), 16).with_queries_per_point(50);
    let before = kernel_build_count();
    exp.run_size_sweep(&SizeSweep::explicit(vec![1, 16, 256]))
        .unwrap();
    assert_eq!(
        kernel_build_count() - before,
        4,
        "the first sweep builds the four paper kernels"
    );
    exp.run_shape_sweep(&ShapeSweep::new(64, 6)).unwrap();
    assert_eq!(
        kernel_build_count() - before,
        4,
        "the second sweep reuses them"
    );
    exp.with_seed(5)
        .run_shape_sweep(&ShapeSweep::new(64, 6))
        .unwrap();
    assert_eq!(
        kernel_build_count() - before,
        8,
        "a new seed builds a fresh context"
    );
}
