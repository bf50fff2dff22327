//! ISO 26262 ASIL levels and ASIL decomposition (paper Sec. II-A, Fig. 1).
//!
//! Under ISO 26262-9, a safety requirement at a given ASIL may be decomposed
//! onto *independent* redundant elements of lower ASILs. The admissible
//! single-step schemes are exactly rank addition capped at ASIL D
//! (QM=0, A=1, B=2, C=3, D=4):
//!
//! * ASIL D ← C(D)+A(D), B(D)+B(D), D(D)+QM(D)
//! * ASIL C ← B(C)+A(C), C(C)+QM(C)
//! * ASIL B ← A(B)+A(B), B(B)+QM(B)
//! * ASIL A ← A(A)+QM(A)
//!
//! Decomposition credit requires **independence** — freedom from common
//! cause faults. For GPUs this is precisely what the SRRS/HALF scheduling
//! policies establish (see [`crate::diversity`]).

use std::fmt;

/// An Automotive Safety Integrity Level, ordered QM < A < B < C < D.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Asil {
    /// Quality Managed — no safety requirements.
    QM,
    /// ASIL A (lowest integrity level).
    A,
    /// ASIL B.
    B,
    /// ASIL C.
    C,
    /// ASIL D (highest integrity level).
    D,
}

impl Asil {
    /// Numeric rank used by the decomposition algebra (QM=0 … D=4).
    pub fn rank(self) -> u8 {
        match self {
            Asil::QM => 0,
            Asil::A => 1,
            Asil::B => 2,
            Asil::C => 3,
            Asil::D => 4,
        }
    }

    /// The level with the given rank (values > 4 saturate to D).
    pub fn from_rank(rank: u8) -> Asil {
        match rank {
            0 => Asil::QM,
            1 => Asil::A,
            2 => Asil::B,
            3 => Asil::C,
            _ => Asil::D,
        }
    }

    /// The integrity level achieved by two **independent** redundant
    /// elements of levels `self` and `other` (one decomposition step).
    pub fn compose_independent(self, other: Asil) -> Asil {
        Asil::from_rank(self.rank().saturating_add(other.rank()).min(4))
    }

    /// All `(left, right)` pairs that decompose `self` in one step,
    /// with `left >= right`, excluding the trivial `self + QM` only when
    /// `self` is QM.
    pub fn decompositions(self) -> Vec<(Asil, Asil)> {
        let target = self.rank();
        let mut out = Vec::new();
        for l in (0..=4u8).rev() {
            for r in 0..=l {
                if l + r == target {
                    out.push((Asil::from_rank(l), Asil::from_rank(r)));
                }
            }
        }
        out
    }
}

impl fmt::Display for Asil {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Asil::QM => write!(f, "QM"),
            Asil::A => write!(f, "ASIL-A"),
            Asil::B => write!(f, "ASIL-B"),
            Asil::C => write!(f, "ASIL-C"),
            Asil::D => write!(f, "ASIL-D"),
        }
    }
}

/// Evidence that redundant elements are free of common-cause faults.
#[derive(Debug, Clone, PartialEq)]
pub enum Independence {
    /// No independence argument — CCFs may defeat the redundancy, so no
    /// decomposition credit is taken.
    None,
    /// Diverse lockstep (e.g. staggered DCLS cores, as in AURIX / Cortex-R).
    DiverseLockstep,
    /// Heterogeneous implementations (different hardware and/or software) —
    /// the costly approach the paper wants to avoid.
    Heterogeneous,
    /// Diverse redundant GPU scheduling (SRRS/HALF): every redundant
    /// computation runs on a different SM at a different time. The fields
    /// summarize the diversity evidence.
    DiverseGpuScheduling {
        /// Redundant block pairs whose executions were checked.
        pairs_checked: usize,
        /// Pairs violating spatial or temporal diversity (must be 0).
        violations: usize,
    },
}

impl Independence {
    /// True when the evidence supports decomposition credit.
    pub fn is_sufficient(&self) -> bool {
        match self {
            Independence::None => false,
            Independence::DiverseLockstep | Independence::Heterogeneous => true,
            Independence::DiverseGpuScheduling {
                pairs_checked,
                violations,
            } => *pairs_checked > 0 && *violations == 0,
        }
    }
}

/// A safety element (component or channel) with a claimed ASIL capability.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Human-readable name.
    pub name: String,
    /// ASIL the element is developed/verified to.
    pub asil: Asil,
}

impl Element {
    /// Creates an element.
    pub fn new(name: impl Into<String>, asil: Asil) -> Self {
        Self {
            name: name.into(),
            asil,
        }
    }
}

/// A safety architecture whose achieved integrity can be evaluated
/// (models the three patterns of paper Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub enum Architecture {
    /// A single element: achieves its own ASIL.
    Single(Element),
    /// Two redundant channels; achieves the composed level only with
    /// sufficient independence, otherwise the better channel's level.
    Redundant {
        /// First channel.
        a: Box<Architecture>,
        /// Second channel.
        b: Box<Architecture>,
        /// Common-cause-fault freedom evidence.
        independence: Independence,
    },
    /// Monitor/actuator split: the operation part may be QM as long as the
    /// monitor holds the target ASIL and a safe state exists
    /// (Fig. 1, rightmost example).
    MonitorActuator {
        /// The monitoring element (carries the integrity requirement).
        monitor: Box<Architecture>,
        /// The operational element (no decomposition requirement).
        operation: Box<Architecture>,
    },
}

impl Architecture {
    /// The integrity level this architecture achieves.
    pub fn achieved_asil(&self) -> Asil {
        match self {
            Architecture::Single(e) => e.asil,
            Architecture::Redundant { a, b, independence } => {
                let (la, lb) = (a.achieved_asil(), b.achieved_asil());
                if independence.is_sufficient() {
                    la.compose_independent(lb)
                } else {
                    la.max(lb)
                }
            }
            Architecture::MonitorActuator { monitor, .. } => monitor.achieved_asil(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(asil: Asil) -> Architecture {
        Architecture::Single(Element::new("e", asil))
    }

    #[test]
    fn ranks_roundtrip() {
        for a in [Asil::QM, Asil::A, Asil::B, Asil::C, Asil::D] {
            assert_eq!(Asil::from_rank(a.rank()), a);
        }
        assert_eq!(Asil::from_rank(9), Asil::D, "saturates");
    }

    #[test]
    fn ordering_matches_integrity() {
        assert!(Asil::QM < Asil::A);
        assert!(Asil::A < Asil::B);
        assert!(Asil::B < Asil::C);
        assert!(Asil::C < Asil::D);
    }

    #[test]
    fn figure1_example_a_plus_b_reaches_c() {
        assert_eq!(Asil::A.compose_independent(Asil::B), Asil::C);
    }

    #[test]
    fn figure1_example_b_plus_b_reaches_d() {
        // The DCLS case: two ASIL-B cores in diverse lockstep → ASIL-D.
        assert_eq!(Asil::B.compose_independent(Asil::B), Asil::D);
    }

    #[test]
    fn composition_saturates_at_d() {
        assert_eq!(Asil::D.compose_independent(Asil::D), Asil::D);
        assert_eq!(Asil::C.compose_independent(Asil::C), Asil::D);
    }

    #[test]
    fn decompositions_of_d_match_iso_schemes() {
        let d = Asil::D.decompositions();
        assert!(d.contains(&(Asil::C, Asil::A)));
        assert!(d.contains(&(Asil::B, Asil::B)));
        assert!(d.contains(&(Asil::D, Asil::QM)));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn decompositions_of_lower_levels() {
        assert_eq!(
            Asil::C.decompositions(),
            vec![(Asil::C, Asil::QM), (Asil::B, Asil::A)]
        );
        assert_eq!(
            Asil::B.decompositions(),
            vec![(Asil::B, Asil::QM), (Asil::A, Asil::A)]
        );
        assert_eq!(Asil::A.decompositions(), vec![(Asil::A, Asil::QM)]);
    }

    #[test]
    fn composition_algebra_holds_exhaustively() {
        let all = [Asil::QM, Asil::A, Asil::B, Asil::C, Asil::D];
        for a in all {
            for b in all {
                let ab = a.compose_independent(b);
                assert_eq!(ab, b.compose_independent(a), "{a}+{b} commutes");
                assert!(ab >= a, "redundancy never lowers integrity: {a}+{b}");
                for c in all.into_iter().filter(|&c| c <= b) {
                    assert!(
                        ab >= a.compose_independent(c),
                        "monotone: {a}+{b} vs {a}+{c}"
                    );
                }
            }
            for (l, r) in a.decompositions() {
                assert_eq!(l.compose_independent(r), a, "{l}+{r} must reach {a}");
                assert!(l >= r, "pairs are ordered");
            }
        }
    }

    #[test]
    fn redundant_without_independence_gets_no_credit() {
        let arch = Architecture::Redundant {
            a: Box::new(single(Asil::B)),
            b: Box::new(single(Asil::B)),
            independence: Independence::None,
        };
        assert_eq!(arch.achieved_asil(), Asil::B);
    }

    #[test]
    fn redundant_gpu_channels_reach_d_with_diversity_evidence() {
        // The paper's headline claim: two ASIL-B GPU executions with diverse
        // scheduling evidence compose to ASIL-D.
        let arch = Architecture::Redundant {
            a: Box::new(single(Asil::B)),
            b: Box::new(single(Asil::B)),
            independence: Independence::DiverseGpuScheduling {
                pairs_checked: 128,
                violations: 0,
            },
        };
        assert_eq!(arch.achieved_asil(), Asil::D);
    }

    #[test]
    fn diversity_violations_void_the_credit() {
        let arch = Architecture::Redundant {
            a: Box::new(single(Asil::B)),
            b: Box::new(single(Asil::B)),
            independence: Independence::DiverseGpuScheduling {
                pairs_checked: 128,
                violations: 1,
            },
        };
        assert_eq!(arch.achieved_asil(), Asil::B);
    }

    #[test]
    fn monitor_actuator_carries_monitor_level() {
        let arch = Architecture::MonitorActuator {
            monitor: Box::new(single(Asil::D)),
            operation: Box::new(single(Asil::QM)),
        };
        assert_eq!(arch.achieved_asil(), Asil::D);
    }

    #[test]
    fn nested_architectures_compose() {
        // Two (B+B independent) GPU channels are not boosted again without
        // a further independence argument at the outer level.
        let inner = Architecture::Redundant {
            a: Box::new(single(Asil::A)),
            b: Box::new(single(Asil::A)),
            independence: Independence::DiverseLockstep,
        };
        assert_eq!(inner.achieved_asil(), Asil::B);
        let outer = Architecture::Redundant {
            a: Box::new(inner.clone()),
            b: Box::new(inner),
            independence: Independence::DiverseLockstep,
        };
        assert_eq!(outer.achieved_asil(), Asil::D);
    }

    #[test]
    fn display_names() {
        assert_eq!(Asil::D.to_string(), "ASIL-D");
        assert_eq!(Asil::QM.to_string(), "QM");
    }
}
