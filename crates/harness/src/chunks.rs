//! Extension experiment: the schedbench chunk-size sweep.
//!
//! The paper runs schedbench "with three different schedules ... and
//! various different chunk sizes" but only presents chunk size 1. This
//! experiment reports the full sweep: per-iteration dispatch overhead for
//! static/dynamic/guided at chunk sizes 1–128, on both platforms.
//!
//! Expected shapes: dynamic dispatch overhead falls roughly as `1/chunk`
//! (one shared-counter RMW amortized over `chunk` iterations); static is
//! flat and near zero; guided sits near static (its chunks start large).

use crate::common::{Check, ExpOptions, ExpReport, Platform};
use crate::sweep::Sweep;
use ompvar_bench_epcc::{schedbench, EpccConfig};
use ompvar_core::Table;
use ompvar_rt::region::Schedule;

/// Chunk sizes swept.
pub const CHUNKS: [u64; 5] = [1, 4, 16, 64, 128];

fn cfg(opts: &ExpOptions) -> EpccConfig {
    let mut cfg = EpccConfig::schedbench_default().fast(opts.outer_reps().min(10));
    cfg.iters_per_thr = if opts.fast { 512 } else { 2048 };
    cfg
}

/// The schedule kinds swept, by chunk size, in table column order.
const KINDS: [fn(u64) -> Schedule; 3] = [
    |chunk| Schedule::Static { chunk },
    |chunk| Schedule::Dynamic { chunk },
    |min_chunk| Schedule::Guided { min_chunk },
];

/// Per-iteration dispatch overhead (µs) at every chunk size: one
/// `[static, dynamic, guided]` row per entry of [`CHUNKS`].
pub fn overheads(opts: &ExpOptions, platform: Platform, n_threads: usize) -> Vec<[f64; 3]> {
    let cfg = cfg(opts);
    let rt = platform.pinned_rt(n_threads);
    let mut sweep = Sweep::new(opts);
    for &chunk in &CHUNKS {
        for make in KINDS {
            sweep.push(&rt, schedbench::region(&cfg, make(chunk), n_threads), 1, opts.seed);
        }
    }
    let per_iter = sweep.run(|_, res| {
        let mean = res.reps().iter().sum::<f64>() / res.reps().len() as f64;
        schedbench::per_iter_overhead_us(&cfg, mean)
    });
    per_iter
        .chunks(KINDS.len())
        .map(|row| [row[0][0], row[1][0], row[2][0]])
        .collect()
}

/// Execute and report.
pub fn run(opts: &ExpOptions) -> ExpReport {
    let mut tables = Vec::new();
    let mut checks = Vec::new();
    for (platform, n) in [(Platform::Dardel, 64usize), (Platform::Vera, 16)] {
        let rows = overheads(opts, platform, n);
        let mut t = Table::new(
            &format!(
                "Chunk sweep: per-iteration overhead (µs), {} threads, {}",
                n,
                platform.label()
            ),
            &["chunk", "static", "dynamic", "guided"],
        );
        for (chunk, [stat, dyn_, gui]) in CHUNKS.iter().zip(&rows) {
            t.row(&[
                chunk.to_string(),
                format!("{stat:.4}"),
                format!("{dyn_:.4}"),
                format!("{gui:.4}"),
            ]);
        }
        tables.push(t);

        // The absolute overhead includes the all-core frequency droop,
        // which hits every schedule equally; the *dispatch* component is
        // the delta above static at the same chunk size.
        let dispatch = |[stat, dyn_, _]: [f64; 3]| dyn_ - stat;
        let disp1 = dispatch(rows[0]);
        let disp128 = dispatch(rows[CHUNKS.len() - 1]);
        checks.push(Check::new(
            &format!(
                "{}: dynamic dispatch amortizes with chunk size",
                platform.label()
            ),
            disp128 < disp1 / 4.0,
            format!(
                "dispatch = dynamic − static: {disp1:.4} µs/iter @ chunk 1 vs {disp128:.4} @ 128"
            ),
        ));
        checks.push(Check::new(
            &format!("{}: dynamic_1 dispatch is substantial", platform.label()),
            disp1 > 0.05,
            format!("{disp1:.4} µs/iter"),
        ));
    }
    ExpReport {
        name: "chunks".into(),
        tables,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_shapes_hold() {
        let rep = run(&ExpOptions { jobs: 2, ..ExpOptions::fast() });
        assert!(rep.all_passed(), "chunks checks failed:\n{}", rep.render());
    }
}
