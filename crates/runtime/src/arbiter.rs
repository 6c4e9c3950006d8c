//! Knob-ownership arbitration between co-resident runtimes (§3.2.7).
//!
//! The paper's COUNTDOWN+MERIC use case requires "a communication layer ...
//! which guarantees that both tools keep the system's knowledge of which tool
//! is in charge and what the current and future hardware settings are,
//! without creating a conflict". The [`Arbiter`] is that layer: each hardware
//! knob kind has at most one owner; writes from non-owners are rejected.
//! The `Naive` mode disables the guarantee so experiments can quantify what
//! conflicts cost (the use case's motivating failure mode).

use serde::{Deserialize, Serialize};

use crate::agent::KnobKind;

/// Agent identifier within one job (index into the agent list).
pub type AgentId = usize;

/// Arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArbiterMode {
    /// First claim wins; non-owners' writes are rejected.
    Gated,
    /// No arbitration: every write goes through (conflict study mode).
    Naive,
}

/// The knob-ownership ledger: one owner slot per [`KnobKind`], indexed by
/// the kind's declaration order, so a knob write checks one array entry.
#[derive(Debug, Clone)]
pub struct Arbiter {
    mode: ArbiterMode,
    owners: [Option<AgentId>; KnobKind::ALL.len()],
}

impl Arbiter {
    /// Create an arbiter in the given mode.
    pub fn new(mode: ArbiterMode) -> Self {
        Arbiter {
            mode,
            owners: [None; KnobKind::ALL.len()],
        }
    }

    /// The arbitration mode.
    pub fn mode(&self) -> ArbiterMode {
        self.mode
    }

    /// Claim `knob` for `agent`. Returns `true` if the claim holds afterwards
    /// (fresh claim or already owned by the same agent).
    pub fn claim(&mut self, agent: AgentId, knob: KnobKind) -> bool {
        let slot = &mut self.owners[knob as usize];
        match *slot {
            Some(owner) => owner == agent,
            None => {
                *slot = Some(agent);
                true
            }
        }
    }

    /// Whether `agent` may write `knob` right now.
    pub fn allows(&self, agent: AgentId, knob: KnobKind) -> bool {
        match self.mode {
            ArbiterMode::Naive => true,
            ArbiterMode::Gated => match self.owners[knob as usize] {
                Some(owner) => owner == agent,
                // Unclaimed knobs are writable (implicitly claimed on write
                // by JobRunner registration, which claims up front).
                None => true,
            },
        }
    }

    /// The current owner of `knob`, if claimed.
    pub fn owner(&self, knob: KnobKind) -> Option<AgentId> {
        self.owners[knob as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_slots_follow_declaration_order() {
        for (i, &k) in KnobKind::ALL.iter().enumerate() {
            // Exhaustive on purpose: a new kind stops this compiling until
            // it joins `KnobKind::ALL`, which sizes the table.
            match k {
                KnobKind::CoreFreq
                | KnobKind::MpiFreqOverride
                | KnobKind::Uncore
                | KnobKind::Duty
                | KnobKind::PowerCap => {}
            }
            assert_eq!(k as usize, i, "{k:?} indexes slot {i}");
        }
    }

    /// Every `claim`, `allows` and `owner` answer over all knob kinds, in
    /// both modes. Agent 0 claims the first and third kinds and agent 1 the
    /// second; the last two stay free. First claims win, owners may
    /// re-claim, others' claims fail and leave the owner, `Gated` lets only
    /// the owner (or anyone, on a free knob) write, and `Naive` lets
    /// everyone write.
    #[test]
    fn exhaustive_table_in_both_modes() {
        let owners = [Some(0), Some(1), Some(0), None, None];
        for mode in [ArbiterMode::Gated, ArbiterMode::Naive] {
            let mut a = Arbiter::new(mode);
            assert_eq!(a.mode(), mode);
            for (&k, &owner) in KnobKind::ALL.iter().zip(&owners) {
                assert_eq!(a.owner(k), None, "{mode:?} {k:?} starts free");
                if let Some(o) = owner {
                    assert!(a.claim(o, k), "{mode:?} {k:?}: first claim wins");
                }
            }
            for (&k, &owner) in KnobKind::ALL.iter().zip(&owners) {
                assert_eq!(a.owner(k), owner, "{mode:?} {k:?}");
                for agent in 0..3 {
                    let holds = owner.is_none_or(|o| o == agent);
                    let allows = mode == ArbiterMode::Naive || holds;
                    assert_eq!(a.allows(agent, k), allows, "{mode:?} {k:?} agent {agent}");
                    let mut b = a.clone();
                    assert_eq!(b.claim(agent, k), holds, "{mode:?} {k:?} agent {agent}");
                    assert_eq!(b.owner(k), owner.or(Some(agent)), "{mode:?} {k:?}");
                }
            }
        }
    }
}
