//! # nadmm-metrics
//!
//! Experiment harness shared by the Newton-ADMM driver, the baselines and
//! the figure examples: per-iteration run records, relative-objective (θ)
//! computations, and plain-text / CSV table emitters that print the same rows
//! and series the paper's tables and figures report.

pub mod record;
pub mod relative;
pub mod table;

pub use record::{IterationRecord, RunHistory};
pub use relative::{relative_objective, time_to_relative_objective};
pub use table::TextTable;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_work_together() {
        let mut h = RunHistory::new("newton-admm", "mnist-like", 8);
        h.push(IterationRecord::new(0, 0.0, 0.0, 2.3));
        h.push(IterationRecord::new(1, 0.5, 0.4, 0.3));
        assert_eq!(h.len(), 2);
        assert!(relative_objective(0.3, 0.25) > 0.0);
    }
}
