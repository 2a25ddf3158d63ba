//! The experiment registry: every figure, table, ablation, and study,
//! resolvable by registry name (`fig11`).

use crate::exp::ExperimentSpec;
use crate::experiments::{
    ablations, compare, crashfuzz, endurance, fig04, fig11, fig12, fig13, fig14, fig15, fuzz,
    latency, motivation, profile, studies, tables,
};

/// Every registered experiment, in the order `evaluate all` runs them:
/// figures, tables, ablations, studies, then the utilities.
pub fn all() -> Vec<ExperimentSpec> {
    vec![
        fig04::spec(),
        fig11::spec(),
        fig12::spec(),
        fig13::spec(),
        fig14::spec(),
        fig15::spec(),
        tables::table1(),
        tables::table2(),
        tables::table4(),
        ablations::batch_size(),
        ablations::coalescing(),
        ablations::flushbit(),
        ablations::log_reduction(),
        studies::buffer_capacity(),
        studies::multi_mc(),
        studies::onpm_buffer(),
        studies::recovery(),
        motivation::spec(),
        endurance::spec(),
        compare::spec(),
        profile::spec(),
        latency::spec(),
        crashfuzz::spec(),
        fuzz::spec(),
    ]
}

/// Resolves a spec by registry name, case-insensitively.
pub fn find(name: &str) -> Option<ExperimentSpec> {
    all()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_twenty_four_unique_experiments() {
        let specs = all();
        assert_eq!(specs.len(), 24);
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 24, "registry names must be unique");
        // Lookup ignores case, so this probes every spelling of the retired
        // engine microbenchmark's name.
        assert!(
            find("Bench-Engine").is_none(),
            "the engine microbenchmark is retired"
        );
    }

    #[test]
    fn find_matches_spec_name_and_is_case_insensitive() {
        assert_eq!(find("fig11").expect("by name").name, "fig11");
        assert_eq!(find("FIG11").expect("case-insensitive").name, "fig11");
        assert!(find("fig11_write_traffic").is_none(), "no legacy aliases");
        assert!(find("nonexistent").is_none());
    }
}
