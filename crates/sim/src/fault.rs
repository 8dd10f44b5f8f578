//! Deterministic fault injection: virtual-time-scheduled infrastructure
//! failures layered on the simulation world.
//!
//! A [`FaultPlan`] declares what goes wrong and when — node crash/restart
//! windows, wired-backhaul outages between node pairs, burst radio-loss
//! windows on top of the configured `radio_loss`, and payload-tampering
//! windows. The plan is pure data: installing the same plan into a world
//! built from the same seed reproduces the identical run, because every
//! probabilistic fault draw (burst loss, tampering) comes from the
//! world's single seeded RNG stream.
//!
//! Crash/restart is a *pause/resume* lifecycle distinct from
//! [`World::despawn`](crate::World::despawn): a crashed node keeps its
//! slot and its in-memory object, but receives no packets and no timers
//! until the restart time, at which point
//! [`Node::on_restart`](crate::Node::on_restart) runs — by default
//! re-running `on_start` so timer chains re-arm.

use crate::{NodeId, Time};

/// A half-open virtual-time window `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant the fault is active.
    pub from: Time,
    /// First instant the fault is over.
    pub until: Time,
}

impl FaultWindow {
    /// Creates a window; `from` must precede `until`.
    pub fn new(from: Time, until: Time) -> Self {
        assert!(from < until, "fault window must have positive length");
        FaultWindow { from, until }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: Time) -> bool {
        t >= self.from && t < self.until
    }
}

/// One node crash: the node goes silent at `at` and, if `restart_at` is
/// set, resumes (running its `on_restart` hook) at that time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// The node that crashes.
    pub node: NodeId,
    /// Crash instant.
    pub at: Time,
    /// Restart instant; `None` means the node stays down forever.
    pub restart_at: Option<Time>,
}

/// A wired-backhaul outage severing delivery between a specific node
/// pair, in both directions, for the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WiredOutage {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// When the link is down.
    pub window: FaultWindow,
}

/// A burst of extra radio loss layered on the configured base
/// `radio_loss` for the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioBurst {
    /// When the burst is active.
    pub window: FaultWindow,
    /// Additional drop probability in `[0, 1]`, drawn independently of
    /// the base rate: the effective delivery probability inside the
    /// window is `(1 − radio_loss) · (1 − extra_loss)`.
    pub extra_loss: f64,
}

/// A payload-tampering window: each delivery during the window is passed
/// to the world's tamper hook with the given probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TamperBurst {
    /// When tampering is active.
    pub window: FaultWindow,
    /// Per-delivery probability of invoking the tamper hook.
    pub probability: f64,
}

/// Everything scheduled to go wrong in one run. Pure data; install with
/// [`World::install_faults`](crate::World::install_faults).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Node crash/restart events.
    pub crashes: Vec<CrashFault>,
    /// Pairwise wired-backhaul outages.
    pub wired_outages: Vec<WiredOutage>,
    /// Nodes whose *entire* wired connectivity is severed for a window
    /// (models a partitioned or unreachable backhaul site, e.g. a TA
    /// outage, without stopping the node's local processing).
    pub wired_isolations: Vec<(NodeId, FaultWindow)>,
    /// Burst radio-loss windows.
    pub radio_bursts: Vec<RadioBurst>,
    /// Payload-tampering windows.
    pub tampering: Vec<TamperBurst>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.wired_outages.is_empty()
            && self.wired_isolations.is_empty()
            && self.radio_bursts.is_empty()
            && self.tampering.is_empty()
    }

    /// Validates internal consistency (windows ordered, probabilities in
    /// range). Called on install.
    pub(crate) fn validate(&self) {
        for c in &self.crashes {
            if let Some(r) = c.restart_at {
                assert!(r > c.at, "restart must follow the crash");
            }
        }
        for b in &self.radio_bursts {
            assert!(
                (0.0..=1.0).contains(&b.extra_loss),
                "burst extra_loss must be a probability"
            );
        }
        for t in &self.tampering {
            assert!(
                (0.0..=1.0).contains(&t.probability),
                "tamper probability must be a probability"
            );
        }
    }
}

/// A pending pause/resume edge derived from the plan's crash list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transition {
    /// Node goes down.
    Down(NodeId),
    /// Node comes back up (runs `on_restart`).
    Up(NodeId),
}

/// The engine-side interpreter of a [`FaultPlan`]: a sorted transition
/// tape for crash edges plus window queries for the continuous faults.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    transitions: Vec<(Time, Transition)>,
    cursor: usize,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        plan.validate();
        let mut transitions = Vec::new();
        for c in &plan.crashes {
            transitions.push((c.at, Transition::Down(c.node)));
            if let Some(r) = c.restart_at {
                transitions.push((r, Transition::Up(c.node)));
            }
        }
        // Stable by time; Down sorts before Up at equal instants so a
        // node never "restarts" before a same-instant crash lands.
        transitions.sort_by_key(|(t, tr)| (*t, matches!(tr, Transition::Up(_))));
        FaultInjector {
            plan,
            transitions,
            cursor: 0,
        }
    }

    /// The next crash/restart edge, if any remain.
    pub(crate) fn next_transition_at(&self) -> Option<Time> {
        self.transitions.get(self.cursor).map(|(t, _)| *t)
    }

    /// Pops the next edge if it is due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: Time) -> Option<(Time, Transition)> {
        let (t, tr) = *self.transitions.get(self.cursor)?;
        if t <= now {
            self.cursor += 1;
            Some((t, tr))
        } else {
            None
        }
    }

    /// Whether wired delivery from `a` to `b` is severed at `now`.
    pub(crate) fn wired_severed(&self, a: NodeId, b: NodeId, now: Time) -> bool {
        self.plan.wired_outages.iter().any(|o| {
            o.window.contains(now) && ((o.a == a && o.b == b) || (o.a == b && o.b == a))
        }) || self
            .plan
            .wired_isolations
            .iter()
            .any(|(n, w)| w.contains(now) && (*n == a || *n == b))
    }

    /// Extra radio loss active at `now` (max over overlapping bursts).
    pub(crate) fn burst_loss(&self, now: Time) -> f64 {
        self.plan
            .radio_bursts
            .iter()
            .filter(|b| b.window.contains(now))
            .map(|b| b.extra_loss)
            .fold(0.0, f64::max)
    }

    /// Tampering probability active at `now` (max over overlapping
    /// windows).
    pub(crate) fn tamper_probability(&self, now: Time) -> f64 {
        self.plan
            .tampering
            .iter()
            .filter(|t| t.window.contains(now))
            .map(|t| t.probability)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Duration;

    fn t(secs: u64) -> Time {
        Time::from_secs(secs)
    }

    #[test]
    fn windows_are_half_open() {
        let w = FaultWindow::new(t(1), t(3));
        assert!(!w.contains(t(0)));
        assert!(w.contains(t(1)));
        assert!(w.contains(t(2)));
        assert!(!w.contains(t(3)));
        let _ = Duration::ZERO;
    }

    #[test]
    fn transitions_sorted_down_before_up() {
        let plan = FaultPlan {
            crashes: vec![
                CrashFault {
                    node: NodeId::new(2),
                    at: t(5),
                    restart_at: Some(t(9)),
                },
                CrashFault {
                    node: NodeId::new(1),
                    at: t(1),
                    restart_at: Some(t(5)),
                },
            ],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan);
        let mut order = Vec::new();
        while let Some((time, tr)) = inj.pop_due(t(100)) {
            order.push((time, tr));
        }
        assert_eq!(
            order,
            vec![
                (t(1), Transition::Down(NodeId::new(1))),
                (t(5), Transition::Down(NodeId::new(2))),
                (t(5), Transition::Up(NodeId::new(1))),
                (t(9), Transition::Up(NodeId::new(2))),
            ]
        );
        assert_eq!(inj.next_transition_at(), None);
    }

    #[test]
    fn wired_severed_is_symmetric_and_windowed() {
        let plan = FaultPlan {
            wired_outages: vec![WiredOutage {
                a: NodeId::new(1),
                b: NodeId::new(2),
                window: FaultWindow::new(t(2), t(4)),
            }],
            wired_isolations: vec![(NodeId::new(7), FaultWindow::new(t(0), t(10)))],
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        assert!(inj.wired_severed(NodeId::new(1), NodeId::new(2), t(3)));
        assert!(inj.wired_severed(NodeId::new(2), NodeId::new(1), t(3)));
        assert!(!inj.wired_severed(NodeId::new(1), NodeId::new(2), t(5)));
        assert!(!inj.wired_severed(NodeId::new(1), NodeId::new(3), t(3)));
        // Isolation severs every pair touching the node.
        assert!(inj.wired_severed(NodeId::new(7), NodeId::new(3), t(3)));
        assert!(inj.wired_severed(NodeId::new(3), NodeId::new(7), t(3)));
    }

    #[test]
    fn burst_loss_takes_window_max() {
        let plan = FaultPlan {
            radio_bursts: vec![
                RadioBurst {
                    window: FaultWindow::new(t(1), t(5)),
                    extra_loss: 0.3,
                },
                RadioBurst {
                    window: FaultWindow::new(t(3), t(6)),
                    extra_loss: 0.8,
                },
            ],
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.burst_loss(t(0)), 0.0);
        assert_eq!(inj.burst_loss(t(2)), 0.3);
        assert_eq!(inj.burst_loss(t(4)), 0.8);
        assert_eq!(inj.burst_loss(t(6)), 0.0);
    }

    #[test]
    #[should_panic(expected = "restart must follow the crash")]
    fn rejects_restart_before_crash() {
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                node: NodeId::new(0),
                at: t(5),
                restart_at: Some(t(2)),
            }],
            ..FaultPlan::default()
        };
        FaultInjector::new(plan);
    }
}
