//! The [`Node`] behaviour trait and the [`Context`] handed to node callbacks.

use crate::event::{Channel, TimerId};
use crate::{Duration, NodeId, Position, Stats, Time};

/// Behaviour of one simulated node (vehicle, RSU, trusted authority, …).
///
/// Implementations are plain state machines: every callback receives a
/// [`Context`] used to emit effects (send packets, arm timers). Callbacks must
/// not block; all interaction with the outside world goes through the context.
///
/// The world is generic over the packet payload type `P` and the timer token
/// type `T`, so one simulation wires all protocols through a single payload
/// enum.
///
/// The `Any` supertrait lets scenario code downcast nodes back to their
/// concrete types for post-run inspection via
/// [`World::get`](crate::World::get).
///
/// The `Send + Sync` supertraits exist for the sharded backend: band
/// rebuild workers evaluate `position` for disjoint resident sets through a
/// shared `&[Slot]` view on scoped threads. Nodes are only ever *mutated*
/// from the single-threaded event loop — the bounds assert that shared
/// position reads are safe, nothing more.
///
/// # Handler purity contract
///
/// Callbacks are **effect emitters**: they may mutate their own node's
/// state and push effects/statistics into the [`Context`], but they get no
/// handle to the world, the engine RNG, or other nodes. The engine applies
/// the buffered effects after the callback returns. This is what lets one
/// `Node` implementation run unchanged under the simulator and under an
/// external host ([`NodeHarness`](crate::NodeHarness), which drives the
/// live UDP daemon). One further obligation:
///
/// * [`Node::position`] must be a **pure function of construction state and
///   `now`** — trajectories may not depend on packets received. Every node
///   in this repository satisfies this (attackers fake movement inside
///   packet *contents*, not their trajectory), and the spatial indexes rely
///   on it to cache positions per timestamp.
pub trait Node<P, T>: std::any::Any + Send + Sync {
    /// The node's position at virtual time `now`, in meters.
    ///
    /// Called by the radio medium whenever a transmission must be resolved to
    /// a set of in-range receivers. Implementations should be cheap and pure.
    fn position(&self, now: Time) -> Position;

    /// Invoked once when the node is spawned into the world.
    ///
    /// The default implementation does nothing. Typical uses: arming periodic
    /// timers, announcing presence.
    fn on_start(&mut self, ctx: &mut Context<'_, P, T>) {
        let _ = ctx;
    }

    /// Invoked when the node resumes after a crash window scheduled via
    /// [`World::install_faults`](crate::World::install_faults) (or an
    /// explicit [`World::resume`](crate::World::resume)).
    ///
    /// While crashed the node received no packets and all its timers were
    /// dropped, so the default implementation re-runs [`Node::on_start`] to
    /// re-arm timer chains. Nodes holding volatile state that would not
    /// survive a real reboot should override this to clear that state first.
    fn on_restart(&mut self, ctx: &mut Context<'_, P, T>) {
        self.on_start(ctx);
    }

    /// Invoked when a packet addressed to (or broadcast near) this node
    /// arrives.
    fn on_packet(&mut self, ctx: &mut Context<'_, P, T>, from: NodeId, packet: P, channel: Channel);

    /// Invoked when a timer armed via [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, P, T>, token: T);

    /// A deterministic digest of the node's mutable state, folded into the
    /// engine's checkpoint stamp
    /// ([`World::engine_stamp`](crate::World::engine_stamp)).
    ///
    /// The default returns 0 (the node contributes nothing beyond its
    /// existence). Nodes carrying state the packet trace cannot witness —
    /// attacker middleware with private RNGs and drop counters, say —
    /// should override this so checkpoint verification catches silent
    /// divergence inside them. Must be cheap, pure, and a function of node
    /// state only.
    fn state_digest(&self) -> u64 {
        0
    }
}

/// An effect emitted by a node callback, applied by the world afterwards.
#[derive(Debug)]
pub(crate) enum Effect<P, T> {
    Unicast { to: NodeId, payload: P },
    Broadcast { payload: P },
    Wired { to: NodeId, payload: P },
    SetTimer { id: TimerId, at: Time, token: T },
    CancelTimer(TimerId),
    Despawn,
}

/// Number of low bits of a [`TimerId`] holding the within-dispatch index;
/// the high bits hold the dispatch index. See [`Context::set_timer`].
pub(crate) const TIMER_LOCAL_BITS: u32 = 16;

/// The capability handle a [`Node`] uses to act on the world.
///
/// All effects are buffered and applied by the engine after the callback
/// returns, in emission order.
#[derive(Debug)]
pub struct Context<'a, P, T> {
    pub(crate) now: Time,
    pub(crate) self_id: NodeId,
    pub(crate) stats: &'a mut Stats,
    /// High bits of every [`TimerId`] armed in this dispatch: the engine's
    /// dispatch index shifted left by [`TIMER_LOCAL_BITS`]. Dispatch
    /// indices count handler invocations in event order, so a node's timer
    /// ids do not depend on how many timers *other* nodes armed.
    pub(crate) timer_base: u64,
    /// Timers armed so far in this dispatch (the next local timer index).
    pub(crate) timers_armed: u16,
    pub(crate) effects: Vec<Effect<P, T>>,
}

impl<P, T> Context<'_, P, T> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the node this context belongs to.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Increments the named statistics counter.
    pub fn count(&mut self, key: &str) {
        self.stats.add(key, 1);
    }

    /// Increments the named statistics counter by `n`.
    pub fn count_by(&mut self, key: &str, n: u64) {
        self.stats.add(key, n);
    }

    /// Transmits `payload` to `to` over the radio.
    ///
    /// Delivery is subject to the radio range at transmission time and the
    /// configured loss probability; out-of-range unicasts are silently
    /// dropped, exactly like a real open wireless channel.
    pub fn send(&mut self, to: NodeId, payload: P) {
        self.effects.push(Effect::Unicast { to, payload });
    }

    /// Broadcasts `payload` to every active node currently in radio range.
    pub fn broadcast(&mut self, payload: P) {
        self.effects.push(Effect::Broadcast { payload });
    }

    /// Sends `payload` over the wired RSU/TA backbone (range-independent,
    /// loss-free, fixed latency).
    pub fn send_wired(&mut self, to: NodeId, payload: P) {
        self.effects.push(Effect::Wired { to, payload });
    }

    /// Arms a timer that fires `after` from now, delivering `token` to
    /// [`Node::on_timer`]. Returns an id usable with [`Self::cancel_timer`].
    ///
    /// Timer ids are `(dispatch index << 16) | within-dispatch index`:
    /// strictly increasing in arming order, and minted the same way by the
    /// simulator and by [`NodeHarness`](crate::NodeHarness), so a node
    /// cannot tell which host runs it. A crash barrier is one shifted
    /// dispatch index: every timer armed before the crash sits below it.
    ///
    /// # Panics
    ///
    /// Panics if a single callback arms more than 2^16 timers.
    pub fn set_timer(&mut self, after: Duration, token: T) -> TimerId {
        let local = u64::from(self.timers_armed);
        self.timers_armed = self
            .timers_armed
            .checked_add(1)
            .expect("more than 65536 timers armed in a single dispatch");
        let id = TimerId(self.timer_base | local);
        self.effects.push(Effect::SetTimer {
            id,
            at: self.now + after,
            token,
        });
        id
    }

    /// Cancels a previously armed timer. Cancelling a timer that already
    /// fired (or was already cancelled) is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }

    /// Removes this node from the world after the callback returns: no
    /// further packets or timers will be delivered to it. Used for vehicles
    /// leaving the highway (including attackers fleeing detection).
    pub fn despawn(&mut self) {
        self.effects.push(Effect::Despawn);
    }
}
