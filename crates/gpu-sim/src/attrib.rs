//! Workload cycle attribution: charge simulated SM time to kernel-chosen
//! labels (for the AC kernels, the DFA state each lane is visiting).
//!
//! The trace layer answers *how many* cycles stalled per reason and the
//! introspection layer answers *where in the memory hierarchy*; this layer
//! answers *whose fault*: which part of the workload (which automaton
//! state, and through the host-side ownership fold, which pattern) the
//! machine was burning cycles on. Kernels tag each step with per-lane
//! labels via [`crate::WarpCtx::attribute_with`]; the scheduler splits every
//! issue slot and every idle gap across the labels of the step that
//! occupied or ended it.
//!
//! Same zero-cost-when-disabled contract as the fault/trace/introspect
//! hooks: the device holds an `Option<Box<AttributionState>>`, every charge
//! is a single branch when disarmed, and observation never feeds back into
//! timing — armed and disarmed launches produce bit-identical
//! `LaunchStats`.
//!
//! Accounting is conservative by construction: for each SM,
//! `Σ state_cycles + unattributed_cycles + drain_cycles == cycles`.
//! Unattributed cycles are steps the kernel chose not to label (staging,
//! barriers, result writes) plus idle gaps ended by such steps;
//! drain cycles are the in-flight-memory tail after the last issue slot.

use serde::{Deserialize, Serialize};

/// A per-lane workload label for one step. The label space is owned by the
/// kernel (the AC kernels use their device-side state encoding; the host
/// remaps to original DFA ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAttr {
    /// Kernel-chosen label (for AC kernels: device state id).
    pub label: u32,
    /// Whether the lane is on a failure-chain edge this step (charged to
    /// `fail_cycles[label]` as a sub-bucket of `state_cycles[label]`).
    pub fail: bool,
}

impl LaneAttr {
    /// A non-failure label.
    pub fn state(label: u32) -> Self {
        LaneAttr { label, fail: false }
    }
}

/// Bounds on what the attribution collectors retain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttributionConfig {
    /// Largest label index tracked per SM; charges to labels at or past
    /// this bound fall into `unattributed_cycles` instead of growing the
    /// vectors without limit.
    pub max_labels: usize,
}

impl Default for AttributionConfig {
    fn default() -> Self {
        AttributionConfig {
            max_labels: 1 << 20,
        }
    }
}

/// One SM's attribution ledger, harvested when the SM retires its last
/// block. Vectors are indexed by label and sized to the largest label the
/// SM actually charged.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SmAttribution {
    /// SM index.
    pub sm: u32,
    /// Issue + idle cycles charged per label.
    pub state_cycles: Vec<u64>,
    /// The failure-chain share of `state_cycles`, per label (a sub-bucket,
    /// not an additional bucket).
    pub fail_cycles: Vec<u64>,
    /// Texture fetches performed while a lane carried each label.
    pub tex_fetches: Vec<u64>,
    /// Texture-L1 misses among those fetches.
    pub tex_misses: Vec<u64>,
    /// Cycles of unlabeled steps, gaps ended by unlabeled steps, and
    /// charges past the label bound.
    pub unattributed_cycles: u64,
    /// In-flight-memory tail after the SM's last issue slot.
    pub drain_cycles: u64,
    /// The SM's total cycles (equals `SmStats::cycles`); pins the
    /// conservation invariant.
    pub cycles: u64,
}

/// Device-wide attribution: one ledger per SM plus fold-up helpers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Attribution {
    /// Per-SM ledgers, in SM order.
    pub per_sm: Vec<SmAttribution>,
}

impl Attribution {
    fn fold(per_sm: impl Iterator<Item = impl AsRef<[u64]>>) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for v in per_sm {
            let v = v.as_ref();
            if out.len() < v.len() {
                out.resize(v.len(), 0);
            }
            for (o, &x) in out.iter_mut().zip(v) {
                *o += x;
            }
        }
        out
    }

    /// Cycles charged per label, summed over SMs.
    pub fn state_cycles(&self) -> Vec<u64> {
        Self::fold(self.per_sm.iter().map(|s| &s.state_cycles))
    }

    /// Failure-chain cycles per label, summed over SMs.
    pub fn fail_cycles(&self) -> Vec<u64> {
        Self::fold(self.per_sm.iter().map(|s| &s.fail_cycles))
    }

    /// Texture fetches per label, summed over SMs.
    pub fn tex_fetches(&self) -> Vec<u64> {
        Self::fold(self.per_sm.iter().map(|s| &s.tex_fetches))
    }

    /// Texture-L1 misses per label, summed over SMs.
    pub fn tex_misses(&self) -> Vec<u64> {
        Self::fold(self.per_sm.iter().map(|s| &s.tex_misses))
    }

    /// Unattributed cycles summed over SMs.
    pub fn unattributed_cycles(&self) -> u64 {
        self.per_sm.iter().map(|s| s.unattributed_cycles).sum()
    }

    /// Drain cycles summed over SMs.
    pub fn drain_cycles(&self) -> u64 {
        self.per_sm.iter().map(|s| s.drain_cycles).sum()
    }

    /// Total SM cycles summed over SMs (= Σ `LaunchStats::per_sm_cycles`).
    pub fn total_cycles(&self) -> u64 {
        self.per_sm.iter().map(|s| s.cycles).sum()
    }
}

/// The armed hook held by the device (mirrors `IntrospectState`).
#[derive(Debug, Clone)]
pub struct AttributionState {
    pub(crate) cfg: AttributionConfig,
    pub(crate) result: Attribution,
}

impl AttributionState {
    /// Fresh state with nothing collected yet.
    pub fn new(cfg: AttributionConfig) -> Self {
        AttributionState {
            cfg,
            result: Attribution::default(),
        }
    }
}

/// Armed-only per-SM collection sink. The scheduler clears the per-lane
/// step labels before each warp step; the kernel fills them through
/// [`crate::WarpCtx::attribute_with`]; the scheduler then charges the step's
/// issue cycles (and any idle gap the warp later ends) across them.
#[derive(Debug)]
pub(crate) struct SmAttrSink {
    max_labels: usize,
    /// Labels of the step currently being issued, indexed by lane.
    step: Vec<Option<LaneAttr>>,
    pub(crate) state_cycles: Vec<u64>,
    pub(crate) fail_cycles: Vec<u64>,
    pub(crate) tex_fetches: Vec<u64>,
    pub(crate) tex_misses: Vec<u64>,
    pub(crate) unattributed: u64,
}

impl SmAttrSink {
    pub(crate) fn new(cfg: &AttributionConfig, warp_size: u32) -> Self {
        SmAttrSink {
            max_labels: cfg.max_labels,
            step: vec![None; warp_size as usize],
            state_cycles: Vec::new(),
            fail_cycles: Vec::new(),
            tex_fetches: Vec::new(),
            tex_misses: Vec::new(),
            unattributed: 0,
        }
    }

    /// Reset the per-lane labels ahead of one warp step.
    pub(crate) fn begin_step(&mut self) {
        self.step.fill(None);
    }

    /// The step's per-lane labels, all `None` since [`Self::begin_step`],
    /// for the kernel to fill (at most once per step, before any texture
    /// fetch it wants counted).
    pub(crate) fn lanes_mut(&mut self) -> &mut [Option<LaneAttr>] {
        &mut self.step
    }

    /// Count a texture fetch performed by `lane` under its current label.
    pub(crate) fn note_tex_fetch(&mut self, lane: usize, l1_hit: bool) {
        let Some(Some(attr)) = self.step.get(lane) else {
            return;
        };
        let label = attr.label as usize;
        if label >= self.max_labels {
            return;
        }
        if self.tex_fetches.len() <= label {
            self.tex_fetches.resize(label + 1, 0);
            self.tex_misses.resize(label + 1, 0);
        }
        self.tex_fetches[label] += 1;
        if !l1_hit {
            self.tex_misses[label] += 1;
        }
    }

    /// Charge the step's issue cycles across its labels.
    pub(crate) fn charge_step(&mut self, cycles: u64) {
        let labels: Vec<LaneAttr> = self.step.iter().flatten().copied().collect();
        self.charge_labels(&labels, cycles);
    }

    /// The step's active labels, for the scheduler to remember as the
    /// warp's last attribution (idle gaps it later ends charge there).
    pub(crate) fn step_labels(&self) -> impl Iterator<Item = LaneAttr> + '_ {
        self.step.iter().flatten().copied()
    }

    /// Split `cycles` integer-exactly across `labels` (quotient each, the
    /// remainder one extra cycle to the first lanes). Empty or out-of-bound
    /// labels charge `unattributed` — no cycle is ever dropped.
    pub(crate) fn charge_labels(&mut self, labels: &[LaneAttr], cycles: u64) {
        if labels.is_empty() {
            self.unattributed += cycles;
            return;
        }
        let n = labels.len() as u64;
        let q = cycles / n;
        let r = cycles % n;
        for (i, attr) in labels.iter().enumerate() {
            let share = q + u64::from((i as u64) < r);
            if share == 0 {
                continue;
            }
            let label = attr.label as usize;
            if label >= self.max_labels {
                self.unattributed += share;
                continue;
            }
            if self.state_cycles.len() <= label {
                self.state_cycles.resize(label + 1, 0);
                self.fail_cycles.resize(label + 1, 0);
            }
            self.state_cycles[label] += share;
            if attr.fail {
                self.fail_cycles[label] += share;
            }
        }
    }

    /// Seal the ledger when the SM retires.
    pub(crate) fn finish(self, sm: u32, drain_cycles: u64, cycles: u64) -> SmAttribution {
        SmAttribution {
            sm,
            state_cycles: self.state_cycles,
            fail_cycles: self.fail_cycles,
            tex_fetches: self.tex_fetches,
            tex_misses: self.tex_misses,
            unattributed_cycles: self.unattributed,
            drain_cycles,
            cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink() -> SmAttrSink {
        SmAttrSink::new(&AttributionConfig::default(), 4)
    }

    #[test]
    fn split_is_integer_exact() {
        let mut s = sink();
        let labels = [LaneAttr::state(0), LaneAttr::state(1), LaneAttr::state(1)];
        s.charge_labels(&labels, 10); // 10 = 4 + 3 + 3
        assert_eq!(s.state_cycles, vec![4, 6]);
        assert_eq!(s.state_cycles.iter().sum::<u64>(), 10);
        assert_eq!(s.unattributed, 0);
    }

    #[test]
    fn empty_and_overbound_labels_go_unattributed() {
        let mut s = SmAttrSink::new(&AttributionConfig { max_labels: 2 }, 4);
        s.charge_labels(&[], 7);
        s.charge_labels(&[LaneAttr::state(5), LaneAttr::state(1)], 4);
        assert_eq!(s.unattributed, 7 + 2);
        assert_eq!(s.state_cycles, vec![0, 2]);
    }

    #[test]
    fn fail_cycles_are_a_sub_bucket() {
        let mut s = sink();
        s.charge_labels(
            &[
                LaneAttr {
                    label: 3,
                    fail: true,
                },
                LaneAttr::state(3),
            ],
            6,
        );
        assert_eq!(s.state_cycles[3], 6);
        assert_eq!(s.fail_cycles[3], 3);
    }

    #[test]
    fn step_labels_flow_through_tex_counting() {
        let mut s = sink();
        s.begin_step();
        s.lanes_mut().copy_from_slice(&[
            Some(LaneAttr::state(2)),
            None,
            Some(LaneAttr::state(0)),
            None,
        ]);
        s.note_tex_fetch(0, false);
        s.note_tex_fetch(1, false); // unlabeled lane: ignored
        s.note_tex_fetch(2, true);
        assert_eq!(s.tex_fetches, vec![1, 0, 1]);
        assert_eq!(s.tex_misses, vec![0, 0, 1]);
        let labels: Vec<LaneAttr> = s.step_labels().collect();
        assert_eq!(labels.len(), 2);
        s.begin_step();
        assert_eq!(s.step_labels().count(), 0);
    }

    #[test]
    fn folds_sum_over_sms_and_conserve() {
        let sm = |sm: u32| SmAttribution {
            sm,
            state_cycles: vec![5, 0, 7],
            fail_cycles: vec![1, 0, 0],
            tex_fetches: vec![2, 2],
            tex_misses: vec![0, 1],
            unattributed_cycles: 3,
            drain_cycles: 5,
            cycles: 20,
        };
        let a = Attribution {
            per_sm: vec![sm(0), sm(1)],
        };
        assert_eq!(a.state_cycles(), vec![10, 0, 14]);
        assert_eq!(a.fail_cycles(), vec![2, 0, 0]);
        assert_eq!(a.tex_fetches(), vec![4, 4]);
        assert_eq!(a.tex_misses(), vec![0, 2]);
        assert_eq!(a.unattributed_cycles(), 6);
        assert_eq!(a.drain_cycles(), 10);
        assert_eq!(a.total_cycles(), 40);
        for s in &a.per_sm {
            assert_eq!(
                s.state_cycles.iter().sum::<u64>() + s.unattributed_cycles + s.drain_cycles,
                s.cycles
            );
        }
    }
}
