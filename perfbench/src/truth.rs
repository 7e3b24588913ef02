//! The hand-written truth table every reply is checked against.
//!
//! Each entry restates a published result; none is derived from
//! `scenarios_all.json` or from engine output. References:
//!
//! * [FLP85] Fischer, Lynch, Paterson. Impossibility of distributed
//!   consensus with one faulty process. JACM 1985.
//! * [LA87] Loui, Abu-Amara. Memory requirements for agreement among
//!   unreliable asynchronous processes. 1987.
//! * [Cha93] Chaudhuri. More choices allow more faults: set consensus
//!   problems in totally asynchronous systems. Inf. & Comp. 1993.
//! * [HS99] Herlihy, Shavit. The topological structure of asynchronous
//!   computability. JACM 1999.
//! * [BG93] Borowsky, Gafni. Generalized FLP impossibility result for
//!   t-resilient asynchronous computations. STOC 1993.
//! * [SZ00] Saks, Zaharoglou. Wait-free k-set agreement is impossible.
//!   SIAM J. Comput. 2000.
//! * [GKM14] Gafni, Kuznetsov, Manolescu. A generalized asynchronous
//!   computability theorem. PODC 2014 (§4.2 `L_ord`, §4.4 `Chr^k s`,
//!   §4.5 commit–adopt, §9.2 `L_t` and Proposition 9.2).
//!
//! A verdict contradicts the table only when the table states the
//! opposite. `unknown` and `interrupted` never contradict it, so a change
//! that decides more requests raises `decided_share` without lowering
//! `ok_share`.

use gact_models::ModelSpec;
use gact_scenarios::TaskSpec;

/// A verdict in the form the table speaks about: one per solve request,
/// one per matrix cell, one per verify request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A wait-free chromatic map from `Chr^depth I`.
    Solvable { depth: usize },
    /// A Proposition 9.2 certificate built and verified on model runs.
    Certified { bands: usize, runs: usize },
    /// A depth-independent impossibility.
    Unsolvable,
    /// Commit–adopt property check over model runs.
    ProtocolVerified { runs: usize, violations: usize },
    /// A certificate's protocol executed on runs.
    Verified {
        bands: Vec<usize>,
        runs: usize,
        violations: usize,
    },
    /// Inconclusive (no map up to the bound, or no decision procedure).
    Unknown,
    /// Stopped by a budget.
    Interrupted { completed_depths: usize },
}

impl Verdict {
    /// Whether the verdict is a definite answer (`decided_share`).
    pub fn is_decided(&self) -> bool {
        !matches!(self, Verdict::Unknown | Verdict::Interrupted { .. })
    }
}

/// What the table says about a task in the full wait-free model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WaitFree {
    /// Unsolvable at every depth.
    Unsolvable(&'static str),
    /// Solvable, and the least subdivision depth admitting a map is
    /// exactly this one.
    MinimalDepth(usize, &'static str),
    /// No entry.
    NoClaim,
}

fn wait_free(task: TaskSpec) -> WaitFree {
    match task {
        TaskSpec::Consensus { n, n_values } if n >= 1 && n_values >= 2 => {
            WaitFree::Unsolvable("consensus is unsolvable [FLP85, LA87]")
        }
        // Every process decides its own input: at most min(|V|, n+1)
        // distinct values, with no communication at all.
        TaskSpec::SetAgreement { n, n_values, k } if k >= n_values.min(n + 1) => {
            WaitFree::MinimalDepth(0, "k-set agreement with k >= min(|V|, n+1) [Cha93]")
        }
        TaskSpec::SetAgreement { n, n_values, k } if k <= n && n_values > k => {
            WaitFree::Unsolvable("wait-free k-set agreement, k <= n < |V|, [HS99, BG93, SZ00]")
        }
        TaskSpec::FullSubdivision { depth, .. } => WaitFree::MinimalDepth(
            depth,
            "Chr^k s has minimal solving depth k [HS99, GKM14 §4.4]",
        ),
        TaskSpec::TotalOrder { n } if n >= 1 => {
            WaitFree::Unsolvable("L_ord is wait-free unsolvable [GKM14 §4.2]")
        }
        TaskSpec::Lt { n, t } if t == n => {
            WaitFree::MinimalDepth(2, "L_n = Chr^2 s is solvable at depth 2 [GKM14 §9.2]")
        }
        // For t < n the corners of the simplex lie on the forbidden
        // skeleton, so a solo run has no allowed output.
        TaskSpec::Lt { n, t } if t < n => {
            WaitFree::Unsolvable("L_t with t < n forbids solo outputs [GKM14 §9.2]")
        }
        _ => WaitFree::NoClaim,
    }
}

/// Whether the model's runs all lie in `Res_t` (combinatorial or
/// geometric formulation, §5).
fn within_resilience(model: ModelSpec, t: usize) -> bool {
    matches!(model.resilience(), Some(m) if m <= t)
}

/// The table's claim that `task` is unsolvable in `model`, if it has one.
fn unsolvable_in(task: TaskSpec, model: ModelSpec) -> Option<&'static str> {
    match (wait_free(task), task) {
        (WaitFree::Unsolvable(why), _) if model.is_full() => Some(why),
        // FLP is a 1-resilient impossibility: it holds in Res_t, t >= 1.
        (WaitFree::Unsolvable(why), TaskSpec::Consensus { .. }) if matches!(model.resilience(), Some(t) if t >= 1) => {
            Some(why)
        }
        _ => None,
    }
}

/// Checks one verdict on `task` in `model`. `Err` names the entry the
/// verdict contradicts.
pub fn check(task: TaskSpec, model: ModelSpec, verdict: &Verdict) -> Result<(), String> {
    let fail = |why: &str| {
        Err(format!(
            "{} in {model:?}: {verdict:?} contradicts {why}",
            task.label()
        ))
    };
    match verdict {
        Verdict::Unknown | Verdict::Interrupted { .. } => Ok(()),
        // A wait-free map runs unchanged in every sub-IIS model, so it is
        // checked against the wait-free entry whatever the model.
        Verdict::Solvable { depth } => match wait_free(task) {
            WaitFree::Unsolvable(why) => fail(why),
            WaitFree::MinimalDepth(k, why) if *depth != k => fail(why),
            _ => Ok(()),
        },
        Verdict::Unsolvable => match wait_free(task) {
            WaitFree::MinimalDepth(_, why) => fail(why),
            _ => match (task, model.resilience()) {
                (TaskSpec::Lt { t, .. }, Some(m)) if m <= t => {
                    fail("L_t is t-resiliently solvable [GKM14 Prop. 9.2]")
                }
                _ => Ok(()),
            },
        },
        Verdict::Certified { runs, .. } => match task {
            TaskSpec::Lt { t, .. } if within_resilience(model, t) && *runs > 0 => Ok(()),
            _ => fail("certificates exist only for L_t in Res_t [GKM14 Prop. 9.2]"),
        },
        Verdict::ProtocolVerified { runs, violations } => match task {
            TaskSpec::CommitAdopt { .. } if *runs > 0 && *violations == 0 => Ok(()),
            _ => fail("commit-adopt satisfies its properties in every model [GKM14 §4.5]"),
        },
        Verdict::Verified {
            bands,
            runs,
            violations,
        } => {
            let TaskSpec::Lt { t, .. } = task else {
                return fail("only L_t certificates are verified");
            };
            if *runs == 0 || bands.is_empty() {
                fail("a verification executes the certificate on at least one run")
            } else if within_resilience(model, t) && *violations > 0 {
                fail("L_t certificates are correct on Res_t runs [GKM14 Prop. 9.2]")
            } else if unsolvable_in(task, model).is_some() && *violations == 0 {
                fail("L_t certificates fail on wait-free runs [GKM14 Prop. 9.2]")
            } else {
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WF: ModelSpec = ModelSpec::WaitFree;

    #[test]
    fn published_results_are_encoded() {
        let consensus = TaskSpec::Consensus { n: 1, n_values: 2 };
        assert!(check(consensus, WF, &Verdict::Unsolvable).is_ok());
        assert!(check(consensus, WF, &Verdict::Solvable { depth: 1 }).is_err());
        let sa = TaskSpec::SetAgreement {
            n: 2,
            n_values: 3,
            k: 2,
        };
        assert!(check(sa, WF, &Verdict::Solvable { depth: 0 }).is_err());
        assert!(check(sa, WF, &Verdict::Unknown).is_ok());
        let trivial = TaskSpec::SetAgreement {
            n: 2,
            n_values: 2,
            k: 2,
        };
        assert!(check(trivial, WF, &Verdict::Solvable { depth: 0 }).is_ok());
        assert!(check(trivial, WF, &Verdict::Unsolvable).is_err());
        let chr = TaskSpec::FullSubdivision { n: 1, depth: 3 };
        assert!(check(chr, WF, &Verdict::Solvable { depth: 3 }).is_ok());
        assert!(check(chr, WF, &Verdict::Solvable { depth: 2 }).is_err());
        assert!(check(
            TaskSpec::TotalOrder { n: 2 },
            WF,
            &Verdict::Solvable { depth: 1 }
        )
        .is_err());
        let l1 = TaskSpec::Lt { n: 2, t: 1 };
        let res1 = ModelSpec::TResilient { t: 1 };
        let verified = |violations| Verdict::Verified {
            bands: vec![1, 2],
            runs: 25,
            violations,
        };
        assert!(check(l1, res1, &verified(0)).is_ok());
        assert!(check(l1, res1, &verified(3)).is_err());
        assert!(check(l1, WF, &verified(42)).is_ok());
        assert!(check(l1, WF, &verified(0)).is_err());
        let ca = TaskSpec::CommitAdopt { n: 2 };
        let ok = Verdict::ProtocolVerified {
            runs: 9,
            violations: 0,
        };
        assert!(check(ca, ModelSpec::ObstructionFree { k: 1 }, &ok).is_ok());
    }
}
