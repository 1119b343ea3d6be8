//! Automatic tuning of (threads/task, box thickness, GPU block) — the
//! paper's Section VI calls for exactly this. Coordinate descent with
//! multi-start finds the exhaustive optimum at a fraction of the
//! evaluations, on both GPU clusters and across scales.
//!
//! ```text
//! cargo run --release -p tuner --example autotune
//! ```

use machine::{lens, yona};
use perfmodel::GpuImpl;
use tuner::{exhaustive, multistart_descent, Objective, SearchSpace};

fn main() {
    for (m, node_counts) in [(yona(), vec![1usize, 4, 16]), (lens(), vec![1usize, 8, 31])] {
        println!(
            "== {} — tuning the CPU+GPU full-overlap implementation ==",
            m.name
        );
        let space = SearchSpace::for_machine(&m);
        println!("search space: {} configurations", space.len());
        println!(
            "{:>6} {:>30} {:>10} {:>12} {:>30} {:>10} {:>12}",
            "nodes", "exhaustive best", "GF", "evals", "descent best", "GF", "evals"
        );
        for nodes in node_counts {
            let cores = nodes * m.cores_per_node();
            let obj_ex = Objective::new(&m, GpuImpl::HybridOverlap, cores);
            let truth = exhaustive(&obj_ex, &space);
            let obj_cd = Objective::new(&m, GpuImpl::HybridOverlap, cores);
            let found = multistart_descent(&obj_cd, &space);
            let fmt = |c: tuner::Config| {
                format!(
                    "T={} t={} block {}x{}",
                    c.threads, c.thickness, c.block.0, c.block.1
                )
            };
            println!(
                "{nodes:>6} {:>30} {:>10.1} {:>12} {:>30} {:>10.1} {:>12}",
                fmt(truth.config),
                truth.gf,
                truth.evaluations,
                fmt(found.config),
                found.gf,
                found.evaluations
            );
        }
        println!();
    }
    println!(
        "observations matching the paper: the tuned thickness is a thin veneer that\n\
         shrinks with scale; the tuned block is 32-wide (32x8 on the C2050, 32x11 on\n\
         the C1060); and the thickness optimum depends on the thread count — the\n\
         interaction Section VI warns auto-tuners about."
    );
}
