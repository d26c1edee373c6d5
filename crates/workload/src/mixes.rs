//! The multithreaded workload mixes of Table 2.

use std::fmt;

use crate::profile::{Benchmark, ALL_BENCHMARKS};

/// The six workload groups of Table 2, named by thread type and count,
/// plus the single-thread reference runs behind Eq. 2 fairness.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum WorkloadGroup {
    /// Two high-ILP threads.
    Ilp2,
    /// One ILP plus one MEM thread (mixtures).
    Mix2,
    /// Two memory-bound threads.
    Mem2,
    /// Four high-ILP threads.
    Ilp4,
    /// Mixed four-thread workloads.
    Mix4,
    /// Four memory-bound threads.
    Mem4,
    /// One benchmark alone: the single-thread reference run whose IPC
    /// is a denominator of Eq. 2 fairness. Not a Table 2 group, so
    /// [`ALL_GROUPS`] leaves it out.
    St,
}

/// All Table 2 groups in Table 2 order.
pub const ALL_GROUPS: &[WorkloadGroup] = &[
    WorkloadGroup::Ilp2,
    WorkloadGroup::Mix2,
    WorkloadGroup::Mem2,
    WorkloadGroup::Ilp4,
    WorkloadGroup::Mix4,
    WorkloadGroup::Mem4,
];

impl WorkloadGroup {
    /// The group's Table 2 column header.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadGroup::Ilp2 => "ILP2",
            WorkloadGroup::Mix2 => "MIX2",
            WorkloadGroup::Mem2 => "MEM2",
            WorkloadGroup::Ilp4 => "ILP4",
            WorkloadGroup::Mix4 => "MIX4",
            WorkloadGroup::Mem4 => "MEM4",
            WorkloadGroup::St => "ST",
        }
    }

    /// Parses a group name (as printed by [`Self::name`],
    /// case-insensitive) — the inverse needed to rebuild a mix from a
    /// persisted result-store record.
    pub fn from_name(name: &str) -> Option<WorkloadGroup> {
        ALL_GROUPS
            .iter()
            .chain(&[WorkloadGroup::St])
            .copied()
            .find(|g| g.name().eq_ignore_ascii_case(name))
    }

    /// Number of threads in each mix of this group.
    pub fn thread_count(self) -> usize {
        match self {
            WorkloadGroup::St => 1,
            WorkloadGroup::Ilp2 | WorkloadGroup::Mix2 | WorkloadGroup::Mem2 => 2,
            WorkloadGroup::Ilp4 | WorkloadGroup::Mix4 | WorkloadGroup::Mem4 => 4,
        }
    }
}

impl fmt::Display for WorkloadGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One multithreaded workload: a named set of benchmarks co-scheduled on
/// the SMT core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mix {
    /// The Table 2 group this mix belongs to.
    pub group: WorkloadGroup,
    /// The co-scheduled benchmarks, one per hardware thread.
    pub benchmarks: Vec<Benchmark>,
}

impl Mix {
    /// `bench` alone: the [`WorkloadGroup::St`] mix of its
    /// single-thread reference run.
    pub fn single_thread(bench: Benchmark) -> Mix {
        Mix {
            group: WorkloadGroup::St,
            benchmarks: vec![bench],
        }
    }

    /// A short label like `"art+mcf"`.
    pub fn label(&self) -> String {
        self.benchmarks
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join("+")
    }
}

impl fmt::Display for Mix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.group, self.label())
    }
}

macro_rules! mix_list {
    ($group:expr, $( [$($b:ident),+] ),+ $(,)?) => {
        vec![
            $(Mix {
                group: $group,
                benchmarks: vec![$(Benchmark::$b),+],
            }),+
        ]
    };
}

/// The exact Table 2 mixes for `group` (for [`WorkloadGroup::St`],
/// every benchmark alone).
pub fn mixes_for_group(group: WorkloadGroup) -> Vec<Mix> {
    use WorkloadGroup as G;
    match group {
        G::St => ALL_BENCHMARKS
            .iter()
            .map(|&b| Mix::single_thread(b))
            .collect(),
        G::Ilp2 => mix_list!(
            G::Ilp2,
            [Apsi, Eon],
            [Apsi, Gcc],
            [Bzip2, Vortex],
            [Fma3d, Gcc],
            [Fma3d, Mesa],
            [Gcc, Mgrid],
            [Gzip, Bzip2],
            [Gzip, Vortex],
            [Mgrid, Galgel],
            [Wupwise, Gcc],
        ),
        G::Mix2 => mix_list!(
            G::Mix2,
            [Applu, Vortex],
            [Art, Gzip],
            [Bzip2, Mcf],
            [Equake, Bzip2],
            [Galgel, Equake],
            [Lucas, Crafty],
            [Mcf, Eon],
            [Swim, Mgrid],
            [Twolf, Apsi],
            [Wupwise, Twolf],
        ),
        G::Mem2 => mix_list!(
            G::Mem2,
            [Applu, Art],
            [Art, Mcf],
            [Art, Twolf],
            [Art, Vpr],
            [Equake, Swim],
            [Mcf, Twolf],
            [Parser, Mcf],
            [Swim, Mcf],
            [Swim, Vpr],
            [Twolf, Swim],
        ),
        G::Ilp4 => mix_list!(
            G::Ilp4,
            [Apsi, Eon, Fma3d, Gcc],
            [Apsi, Eon, Gzip, Vortex],
            [Apsi, Gap, Wupwise, Perl],
            [Crafty, Fma3d, Apsi, Vortex],
            [Fma3d, Gcc, Gzip, Vortex],
            [Gzip, Bzip2, Eon, Gcc],
            [Mesa, Gzip, Fma3d, Bzip2],
            [Wupwise, Gcc, Mgrid, Galgel],
        ),
        G::Mix4 => mix_list!(
            G::Mix4,
            [Ammp, Applu, Apsi, Eon],
            [Art, Gap, Twolf, Crafty],
            [Art, Mcf, Fma3d, Gcc],
            [Gzip, Twolf, Bzip2, Mcf],
            [Lucas, Crafty, Equake, Bzip2],
            [Mcf, Mesa, Lucas, Gzip],
            [Swim, Fma3d, Vpr, Bzip2],
            [Swim, Twolf, Gzip, Vortex],
        ),
        G::Mem4 => mix_list!(
            G::Mem4,
            [Art, Mcf, Swim, Twolf],
            [Art, Mcf, Vpr, Swim],
            [Art, Twolf, Equake, Mcf],
            [Equake, Parser, Mcf, Lucas],
            [Equake, Vpr, Applu, Twolf],
            [Mcf, Twolf, Vpr, Parser],
            [Parser, Applu, Swim, Twolf],
            [Swim, Applu, Art, Mcf],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ThreadClass;
    use std::collections::HashSet;

    #[test]
    fn thread_counts_match_group() {
        for &g in ALL_GROUPS.iter().chain(&[WorkloadGroup::St]) {
            for mix in mixes_for_group(g) {
                assert_eq!(mix.benchmarks.len(), g.thread_count(), "{mix}");
            }
        }
    }

    #[test]
    fn table2_mix_counts() {
        assert_eq!(mixes_for_group(WorkloadGroup::Ilp2).len(), 10);
        assert_eq!(mixes_for_group(WorkloadGroup::Mix2).len(), 10);
        assert_eq!(mixes_for_group(WorkloadGroup::Mem2).len(), 10);
        assert_eq!(mixes_for_group(WorkloadGroup::Ilp4).len(), 8);
        assert_eq!(mixes_for_group(WorkloadGroup::Mix4).len(), 8);
        assert_eq!(mixes_for_group(WorkloadGroup::Mem4).len(), 8);
    }

    #[test]
    fn ilp_groups_contain_only_ilp_threads() {
        for g in [WorkloadGroup::Ilp2, WorkloadGroup::Ilp4] {
            for mix in mixes_for_group(g) {
                for b in &mix.benchmarks {
                    assert_eq!(b.class(), ThreadClass::Ilp, "{b} in {mix}");
                }
            }
        }
    }

    #[test]
    fn mem_groups_contain_only_mem_threads() {
        for g in [WorkloadGroup::Mem2, WorkloadGroup::Mem4] {
            for mix in mixes_for_group(g) {
                for b in &mix.benchmarks {
                    assert_eq!(b.class(), ThreadClass::Mem, "{b} in {mix}");
                }
            }
        }
    }

    #[test]
    fn mix_groups_contain_both_classes() {
        for g in [WorkloadGroup::Mix2, WorkloadGroup::Mix4] {
            for mix in mixes_for_group(g) {
                let classes: HashSet<_> = mix.benchmarks.iter().map(|b| b.class()).collect();
                assert_eq!(classes.len(), 2, "{mix} must mix ILP and MEM");
            }
        }
    }

    #[test]
    fn labels_are_readable() {
        let mix = &mixes_for_group(WorkloadGroup::Mem2)[1];
        assert_eq!(mix.label(), "art+mcf");
        assert_eq!(mix.to_string(), "MEM2(art+mcf)");
        assert_eq!(Mix::single_thread(Benchmark::Gzip).to_string(), "ST(gzip)");
    }

    #[test]
    fn reference_group_parses_but_is_not_a_table2_group() {
        assert_eq!(WorkloadGroup::from_name("st"), Some(WorkloadGroup::St));
        assert!(!ALL_GROUPS.contains(&WorkloadGroup::St));
        assert_eq!(
            mixes_for_group(WorkloadGroup::St).len(),
            ALL_BENCHMARKS.len()
        );
    }
}
