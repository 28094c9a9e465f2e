//! Workload lists in the paper's presentation order.

use dice_sim::WorkloadSet;
use dice_workloads::{mix_table, nonmem_table, spec_table, WorkloadSpec};

/// Grouping used for the paper's summary columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// 16 SPEC rate workloads.
    Rate,
    /// 4 mixed workloads.
    Mix,
    /// 6 GAP workloads.
    Gap,
}

/// The 26 memory-intensive workload sets (16 RATE, 4 MIX, 6 GAP) in the
/// order the figures present them, with their group labels.
#[must_use]
pub fn all26(seed: u64) -> Vec<(Group, WorkloadSet)> {
    let table = spec_table();
    let by_name = |n: &str| -> WorkloadSpec {
        table
            .iter()
            .find(|w| w.name == n)
            .expect("known workload")
            .clone()
    };

    let mut out = Vec::with_capacity(26);
    for w in table
        .iter()
        .filter(|w| w.suite == dice_workloads::Suite::SpecRate)
    {
        out.push((Group::Rate, WorkloadSet::rate(w.clone(), seed)));
    }
    for (name, members) in mix_table() {
        let specs = members.iter().map(|m| by_name(m)).collect();
        out.push((Group::Mix, WorkloadSet::mix(name, specs, seed)));
    }
    for w in table
        .iter()
        .filter(|w| w.suite == dice_workloads::Suite::Gap)
    {
        out.push((Group::Gap, WorkloadSet::rate(w.clone(), seed)));
    }
    out
}

/// The 13 non-memory-intensive workloads (Figure 13).
#[must_use]
pub fn nonmem(seed: u64) -> Vec<WorkloadSet> {
    nonmem_table()
        .into_iter()
        .map(|w| WorkloadSet::rate(w, seed))
        .collect()
}

/// Group-wise and overall geometric means in the paper's reporting order:
/// `[RATE, MIX, GAP, ALL26]`.
#[must_use]
pub fn group_geomeans(groups: &[Group], values: &[f64]) -> [f64; 4] {
    let pick = |g: Group| -> Vec<f64> {
        groups
            .iter()
            .zip(values)
            .filter(|(gg, _)| **gg == g)
            .map(|(_, v)| *v)
            .collect()
    };
    let gm = dice_sim::geomean;
    [
        gm(&pick(Group::Rate)),
        gm(&pick(Group::Mix)),
        gm(&pick(Group::Gap)),
        gm(values),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all26_has_26_entries_in_order() {
        let w = all26(1);
        assert_eq!(w.len(), 26);
        assert_eq!(w.iter().filter(|(g, _)| *g == Group::Rate).count(), 16);
        assert_eq!(w.iter().filter(|(g, _)| *g == Group::Mix).count(), 4);
        assert_eq!(w.iter().filter(|(g, _)| *g == Group::Gap).count(), 6);
        assert_eq!(w[0].1.name, "mcf");
        assert_eq!(w[16].1.name, "mix1");
        assert_eq!(w[20].1.name, "bc_twi");
        assert_eq!(w[21].1.name, "bc_web");
    }

    #[test]
    fn nonmem_has_13() {
        assert_eq!(nonmem(1).len(), 13);
    }

    #[test]
    fn geomeans_group_correctly() {
        let groups = [Group::Rate, Group::Mix, Group::Gap, Group::Gap];
        let vals = [2.0, 3.0, 4.0, 1.0];
        let [r, m, g, all] = group_geomeans(&groups, &vals);
        assert!((r - 2.0).abs() < 1e-12);
        assert!((m - 3.0).abs() < 1e-12);
        assert!((g - 2.0).abs() < 1e-12);
        assert!((all - (24.0f64).powf(0.25)).abs() < 1e-12);
    }
}
