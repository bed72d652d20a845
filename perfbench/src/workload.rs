//! What every workload provides to the measuring loop in `main.rs`.

use crate::metrics::Metrics;
use crate::trace::{Span, Tracer};
use crate::util::Pace;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Units a checked pass attempted and how many of them failed a check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Units attempted.
    pub attempted: u64,
    /// Units whose output failed a check.
    pub failed: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// One benchmark workload. The loop calls `setup`, then the timed
/// `pass`, then the untimed `check`, as often as the run lasts; the
/// traced run repeats the cycle once with a recording tracer and then
/// asks for the per-layer metrics.
pub trait Workload {
    /// Build the inputs of one pass (timed as `setup_s`).
    fn setup(&mut self, tr: &Arc<Tracer>) -> Result<(), String>;

    /// Run one timed pass over the inputs of the last `setup`. `pace`
    /// adds the sensitivity test's delay to each unit.
    fn pass(&mut self, tr: &Arc<Tracer>, pace: Pace) -> Result<(), String>;

    /// Check the last pass's outputs against the workload's rules and
    /// against the first pass (untimed).
    fn check(&mut self, tr: &Arc<Tracer>) -> Tally;

    /// Digest of the checked outputs, stable for a seed.
    fn digest(&self) -> u64;

    /// Extra layer measurements after the traced pass, recorded in `tr`.
    fn probe(&mut self, _tr: &Arc<Tracer>) {}

    /// Per-layer metrics of the traced pass and probes.
    fn layers(&self, spans: &[Span], m: &mut Metrics);
}

/// A scratch directory inside the checkout, removed on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create `dir` (and parents), emptying it first.
    pub fn new(dir: &Path) -> Result<Scratch, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir.to_path_buf()))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size of the regular files directly in `dir` whose names start
/// with `prefix`.
pub fn bytes_in(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
