//! Cross-shard boundary-batch envelope auditing.
//!
//! Under the sharded backend, radio deliveries whose sender and receiver
//! sit in different shard bands are exactly the traffic that a distributed
//! deployment would have to exchange between workers — and re-verifying
//! the sealed envelopes it carries is the one verification workload that
//! may batch freely: it sits outside the protocol (no RNG draws, no stats,
//! no feedback into any node), so widths are not pinned to the ≤ 2
//! signatures-per-flush ceiling the in-sim [`VerifyQueue`](blackdp::VerifyQueue)
//! is structurally stuck at (the PR-7 finding). [`attach_boundary_audit`]
//! taps the world's boundary observer, extracts every [`Sealed`] envelope
//! a crossing frame carries, and feeds a [`BoundaryAuditor`] that flushes
//! batch-width verifications through the shared batch verifier.
//!
//! Honest traffic must audit clean: a nonzero failure count on an
//! attacker-free run indicates an engine or crypto bug, which the bench
//! harness asserts on.

use std::cell::RefCell;
use std::rc::Rc;

use blackdp::{BlackDpMessage, BoundaryAuditStats, BoundaryAuditor, Wire};
use blackdp_sim::Time;

use crate::build::BuiltScenario;
use crate::frame::Frame;

/// Shared handle to the auditor installed by [`attach_boundary_audit`].
pub type AuditorHandle = Rc<RefCell<BoundaryAuditor>>;

/// Feeds every sealed envelope `wire` carries into the auditor. Variants
/// without an envelope (plain AODV, Jrep, Leave, forwarded detections —
/// already authenticated by the first hop) have nothing to audit.
fn observe_wire(auditor: &mut BoundaryAuditor, wire: &Wire, now: Time) {
    match wire {
        Wire::SecuredRrep { auth, .. } => {
            auditor.observe(auth, now);
        }
        Wire::BlackDp(msg) => match msg {
            BlackDpMessage::Jreq(sealed) => {
                auditor.observe(sealed, now);
            }
            BlackDpMessage::HelloProbe(sealed) => {
                auditor.observe(sealed, now);
            }
            BlackDpMessage::HelloReply(sealed) => {
                auditor.observe(sealed, now);
            }
            BlackDpMessage::DetectionRequest(sealed) => {
                auditor.observe(sealed, now);
            }
            _ => {}
        },
        _ => {}
    }
}

/// Installs a [`BoundaryAuditor`] over the world's cross-shard boundary
/// tap, verifying (against the trial's TA root key) every sealed envelope
/// carried by a radio delivery that crosses a shard-band boundary.
/// Envelopes accumulate to `target_width` per flush; call
/// [`drain`](drain) (or `auditor.borrow_mut().flush()`) after the run for
/// the final partial batch.
///
/// Inert unless the scenario runs a sharded backend (the tap never fires
/// otherwise), and observational either way: attaching it cannot change a
/// trace byte.
pub fn attach_boundary_audit(built: &mut BuiltScenario, target_width: usize) -> AuditorHandle {
    let auditor: AuditorHandle = Rc::new(RefCell::new(BoundaryAuditor::new(
        built.ta_key,
        target_width,
    )));
    let sink = Rc::clone(&auditor);
    built.world.set_boundary_tap(Box::new(
        move |at, _from, _to, frame: &Frame, _from_band, _to_band| {
            observe_wire(&mut sink.borrow_mut(), &frame.wire, at);
        },
    ));
    auditor
}

/// Flushes the final partial batch and returns the end-of-run counters.
pub fn drain(auditor: &AuditorHandle) -> BoundaryAuditStats {
    let mut auditor = auditor.borrow_mut();
    auditor.flush();
    auditor.stats()
}
