//! The malicious vehicle node: one simulator shell shared by every
//! attacker variant.
//!
//! The attack behaviour itself is an [`AttackerStack`] — a chain of
//! middleware interceptors over an honest base (see
//! `blackdp_attacks::middleware`). The shell contributes everything a
//! *registered* vehicle needs regardless of its attack: the
//! legitimate-looking membership traffic that keeps it probe-able in the
//! cluster structure, the renewal-zone evasion manoeuvres (flee, identity
//! renewal, mid-detection cluster hops) and the mobility bookkeeping.
//!
//! Which shell behaviours run is a [`MaliciousProfile`]: the classic
//! black hole and gray hole are presets whose event order is bit-identical
//! to the bespoke node types they replaced, and novel combinations
//! (a cooperative gray hole that flees, say) are just different knob
//! settings over a different interceptor chain.

use blackdp::{BlackDpMessage, JoinBody, Sealed, Wire};
use blackdp_aodv::{Addr, Message as AodvMessage};
use blackdp_attacks::{AttackerAction, AttackerStack, EvasionPolicy};
use blackdp_crypto::{Keypair, TaId};
use blackdp_mobility::{ClusterId, ClusterPlan, Trajectory};
use blackdp_sim::{Channel, Context, Duration, Node, NodeId, Position, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::frame::{broadcast_wire, send_wire, Frame, L2Cache, Tick};

/// Which scenario-shell behaviours a [`MaliciousNode`] runs.
///
/// The two classic presets reproduce the event order of the bespoke node
/// types they replaced bit-for-bit; the fields are public so scenario
/// builders can compose new variants (e.g. a gray hole with the black
/// hole's probe hooks).
#[derive(Debug, Clone, Copy)]
pub struct MaliciousProfile {
    /// Metrics counter bumped for each attacker-brain event.
    pub event_counter: &'static str,
    /// Tick-stagger multiplier. Kept distinct per classic variant so the
    /// event order of existing scenarios is unchanged.
    pub phase_multiplier: u64,
    /// React to low-TTL RREQs (they look like detection probes): count
    /// them, flee the network, or schedule the mid-detection cluster hop.
    pub probe_hooks: bool,
    /// Re-register after a cluster-head reboot announcement (`Resync`).
    pub handles_resync: bool,
    /// Handle certificate-renewal replies (the `RenewIdentity` evasion).
    pub handles_renewal: bool,
    /// Broadcast a JREQ whenever unregistered, even while not inside any
    /// cluster segment — the black hole aggressively re-registers (and
    /// claims a position when hopping clusters); the classic gray hole
    /// only joins the segment it is physically in.
    pub eager_rejoin: bool,
}

impl MaliciousProfile {
    /// The classic black-hole shell: probe hooks, resync + renewal
    /// plumbing, eager re-registration.
    pub const BLACK_HOLE: MaliciousProfile = MaliciousProfile {
        event_counter: "attacker.event",
        phase_multiplier: 991,
        probe_hooks: true,
        handles_resync: true,
        handles_renewal: true,
        eager_rejoin: true,
    };

    /// The classic gray-hole shell: membership only — no probe reactions,
    /// no resync or renewal handling.
    pub const GRAY_HOLE: MaliciousProfile = MaliciousProfile {
        event_counter: "grayhole.event",
        phase_multiplier: 983,
        probe_hooks: false,
        handles_resync: false,
        handles_renewal: false,
        eager_rejoin: false,
    };
}

/// Scenario-level behaviour knobs for a malicious vehicle.
#[derive(Debug, Clone)]
pub struct MaliciousNodeConfig {
    /// Tick cadence.
    pub tick: Duration,
    /// Hello beacon interval (mimics honest nodes).
    pub hello_interval: Duration,
    /// Clusters designated as the certificate-renewal zone (paper:
    /// clusters 8–10), where the evasion policy activates.
    pub renewal_zone: (u32, u32),
    /// Departs to the next cluster right after answering the first
    /// detection probe — the mobility that produces the paper's 8/9-packet
    /// Figure 5 scenarios.
    pub move_after_probe: bool,
    /// Evasion behaviour in the renewal zone.
    pub evasion: EvasionPolicy,
    /// The trusted authority that issued the attacker's credential
    /// (addressed by renewal requests).
    pub issuer: TaId,
    /// Which shell behaviours run.
    pub profile: MaliciousProfile,
}

impl MaliciousNodeConfig {
    /// Black-hole defaults (Table-I cadences, paper renewal zone).
    pub fn black_hole(issuer: TaId) -> Self {
        MaliciousNodeConfig {
            tick: Duration::from_millis(100),
            hello_interval: Duration::from_secs(1),
            renewal_zone: (8, 10),
            move_after_probe: false,
            evasion: EvasionPolicy::None,
            issuer,
            profile: MaliciousProfile::BLACK_HOLE,
        }
    }

    /// Gray-hole defaults: same cadences, the membership-only profile.
    pub fn gray_hole(issuer: TaId) -> Self {
        MaliciousNodeConfig {
            profile: MaliciousProfile::GRAY_HOLE,
            ..Self::black_hole(issuer)
        }
    }
}

/// A malicious vehicle: an interceptor-composed attacker brain inside the
/// shared membership/evasion/mobility shell.
pub struct MaliciousNode {
    stack: AttackerStack,
    trajectory: Trajectory,
    plan: ClusterPlan,
    cfg: MaliciousNodeConfig,
    l2: L2Cache,
    cluster: Option<ClusterId>,
    ch_addr: Option<Addr>,
    ch_epoch: Option<u64>,
    join_pending_since: Option<Time>,
    pending_renew: Option<Keypair>,
    renewed: bool,
    addr_history: Vec<Addr>,
    move_pending: bool,
    fled: bool,
    rng: StdRng,
}

impl std::fmt::Debug for MaliciousNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaliciousNode")
            .field("addr", &self.addr())
            .field("cluster", &self.cluster)
            .finish()
    }
}

impl MaliciousNode {
    /// Creates the malicious vehicle around a composed attacker stack.
    pub fn new(
        stack: AttackerStack,
        trajectory: Trajectory,
        plan: ClusterPlan,
        cfg: MaliciousNodeConfig,
        seed: u64,
    ) -> Self {
        let addr = stack.core().addr();
        MaliciousNode {
            stack,
            trajectory,
            plan,
            cfg,
            l2: L2Cache::new(),
            cluster: None,
            ch_addr: None,
            ch_epoch: None,
            join_pending_since: None,
            pending_renew: None,
            renewed: false,
            addr_history: vec![addr],
            move_pending: false,
            fled: false,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Every protocol address this attacker has ever used (for metrics:
    /// a confirmation against any of them counts as a true positive).
    pub fn addr_history(&self) -> &[Addr] {
        &self.addr_history
    }

    /// The attacker's current address.
    pub fn addr(&self) -> Addr {
        self.stack.core().addr()
    }

    /// Data packets dropped by the attack.
    pub fn dropped_count(&self) -> u64 {
        self.stack.core().dropped_count()
    }

    /// Data packets deliberately forwarded as camouflage (gray holes).
    pub fn forwarded_count(&self) -> u64 {
        self.stack.core().forwarded_count()
    }

    /// Victims lured.
    pub fn lured_count(&self) -> u64 {
        self.stack.core().lured_count()
    }

    /// True if the attacker fled the network (or drove off the highway).
    pub fn has_fled(&self) -> bool {
        self.fled
    }

    /// Read access to the interceptor stack (for assertions in tests).
    pub fn stack(&self) -> &AttackerStack {
        &self.stack
    }

    fn in_renewal_zone(&self, now: Time) -> bool {
        let pos = self.trajectory.position_at(now);
        self.plan
            .cluster_of(pos)
            .map(|c| (self.cfg.renewal_zone.0..=self.cfg.renewal_zone.1).contains(&c.0))
            .unwrap_or(false)
    }

    fn run_attacker_actions(
        &mut self,
        ctx: &mut Context<'_, Frame, Tick>,
        actions: Vec<AttackerAction>,
    ) {
        let my = self.stack.core().addr();
        for action in actions {
            match action {
                AttackerAction::SendTo { to, wire } => {
                    send_wire(ctx, &self.l2, my, to, wire);
                }
                AttackerAction::Broadcast { wire } => broadcast_wire(ctx, my, wire),
                AttackerAction::Event(_) => ctx.count(self.cfg.profile.event_counter),
            }
        }
    }

    /// Deregisters from the current cluster head, if any.
    fn leave_current(&mut self, ctx: &mut Context<'_, Frame, Tick>) {
        if let (Some(_), Some(ch)) = (self.cluster, self.ch_addr) {
            let my = self.stack.core().addr();
            send_wire(
                ctx,
                &self.l2,
                my,
                ch,
                Wire::BlackDp(BlackDpMessage::Leave {
                    vehicle: self.stack.core().pseudonym(),
                }),
            );
            self.cluster = None;
            self.ch_addr = None;
            self.stack.core_mut().set_cluster(None);
        }
    }

    /// Sends Leave + JREQ as the vehicle crosses (or pretends to cross)
    /// into the next cluster.
    fn rejoin(&mut self, ctx: &mut Context<'_, Frame, Tick>, target: Option<ClusterId>) {
        let now = ctx.now();
        self.leave_current(ctx);
        let pos = self.trajectory.position_at(now);
        // If moving "into" a target cluster, present a position just over
        // the boundary (the attacker is near it anyway).
        let claimed_x = match target {
            Some(c) => ((c.0 as f64 - 1.0) * self.plan.cluster_len_m() + 10.0).max(pos.x),
            None => pos.x,
        };
        let body = JoinBody {
            pos_x: claimed_x,
            pos_y: pos.y,
            speed_kmh: self.trajectory.speed().0,
            forward: true,
        };
        let sealed = Sealed::seal(
            body,
            *self.stack.core().cert(),
            None,
            self.stack.core().keys(),
            &mut self.rng,
        );
        broadcast_wire(
            ctx,
            self.stack.core().addr(),
            Wire::BlackDp(BlackDpMessage::Jreq(sealed)),
        );
        self.join_pending_since = Some(now);
    }

    fn membership_tick(&mut self, ctx: &mut Context<'_, Frame, Tick>) {
        let now = ctx.now();
        let pos = self.trajectory.position_at(now);
        let here = self.plan.cluster_of(pos);
        if here == self.cluster && self.cluster.is_some() {
            return;
        }
        if let Some(since) = self.join_pending_since {
            if now.saturating_since(since) < Duration::from_millis(500) {
                return;
            }
        }
        if !self.cfg.profile.eager_rejoin && here.is_none() {
            // Off every segment: deregister, but do not claim membership.
            self.leave_current(ctx);
            return;
        }
        self.rejoin(ctx, None);
    }

    fn renewal_tick(&mut self, ctx: &mut Context<'_, Frame, Tick>) {
        let now = ctx.now();
        let in_zone = self.in_renewal_zone(now);
        match self.cfg.evasion {
            EvasionPolicy::ActLegitimately => {
                // Dormant inside the zone, attacking outside it.
                self.stack.core_mut().set_dormant(in_zone);
            }
            EvasionPolicy::RenewIdentity => {
                if in_zone && !self.renewed && self.pending_renew.is_none() {
                    if let Some(ch) = self.ch_addr {
                        let keys = Keypair::generate(&mut self.rng);
                        let my = self.stack.core().addr();
                        send_wire(
                            ctx,
                            &self.l2,
                            my,
                            ch,
                            Wire::BlackDp(BlackDpMessage::RenewRequest {
                                current: self.stack.core().pseudonym(),
                                issuer: self.cfg.issuer,
                                new_key: keys.public(),
                                reply_cluster: self.cluster.unwrap_or(ClusterId(0)),
                            }),
                        );
                        self.pending_renew = Some(keys);
                        ctx.count("attacker.renew_requested");
                    }
                }
            }
            EvasionPolicy::None | EvasionPolicy::Flee => {}
        }
    }
}

impl Node<Frame, Tick> for MaliciousNode {
    fn position(&self, now: Time) -> Position {
        self.trajectory.position_at(now)
    }

    fn on_start(&mut self, ctx: &mut Context<'_, Frame, Tick>) {
        let phase = Duration::from_micros(
            u64::from(ctx.self_id().index()) * self.cfg.profile.phase_multiplier % 50_000,
        );
        ctx.set_timer(self.cfg.tick + phase, Tick);
    }

    fn on_packet(
        &mut self,
        ctx: &mut Context<'_, Frame, Tick>,
        from: NodeId,
        frame: Frame,
        _channel: Channel,
    ) {
        let now = ctx.now();
        if let Some(dst) = frame.dst {
            if dst != self.stack.core().addr() {
                return;
            }
        }
        self.l2.learn(frame.src, from);

        // Evasion hooks before the brain reacts.
        if self.cfg.profile.probe_hooks {
            if let Wire::Aodv(AodvMessage::Rreq(rreq)) = &frame.wire {
                let looks_like_probe = rreq.ttl <= 1;
                if looks_like_probe {
                    ctx.count("attacker.probe_seen");
                    if self.cfg.evasion == EvasionPolicy::Flee && self.in_renewal_zone(now) {
                        // "The attacker fled from the network ... without
                        // responding to the RSU detection packets."
                        ctx.count("attacker.fled");
                        self.fled = true;
                        ctx.despawn();
                        return;
                    }
                    if self.cfg.move_after_probe {
                        self.move_pending = true;
                    }
                }
            }
        }

        // Membership / renewal plumbing the brain doesn't own.
        match &frame.wire {
            Wire::BlackDp(BlackDpMessage::Jrep {
                cluster,
                ch_addr,
                epoch,
                ..
            }) => {
                self.cluster = Some(*cluster);
                self.ch_addr = Some(*ch_addr);
                self.ch_epoch = Some(*epoch);
                self.join_pending_since = None;
                self.stack.core_mut().set_cluster(Some(*cluster));
                return;
            }
            Wire::BlackDp(BlackDpMessage::Resync { cluster, epoch, .. })
                if self.cfg.profile.handles_resync =>
            {
                // The CH rebooted and forgot us. Re-registering keeps the
                // attacker looking legitimate (and probe-able).
                if self.cluster == Some(*cluster) && self.ch_epoch != Some(*epoch) {
                    self.cluster = None;
                    self.ch_addr = None;
                    self.ch_epoch = None;
                    self.join_pending_since = None;
                    self.stack.core_mut().set_cluster(None);
                }
                return;
            }
            Wire::BlackDp(BlackDpMessage::RenewReply { current, cert })
                if self.cfg.profile.handles_renewal =>
            {
                if *current == self.stack.core().pseudonym() {
                    match (cert, self.pending_renew.take()) {
                        (Some(new_cert), Some(keys)) => {
                            ctx.count("attacker.renewed");
                            self.renewed = true;
                            self.stack.core_mut().renew_identity(keys, *new_cert);
                            self.addr_history.push(self.stack.core().addr());
                            // Re-register under the fresh pseudonym.
                            self.rejoin(ctx, None);
                        }
                        _ => ctx.count("attacker.renewal_refused"),
                    }
                }
                return;
            }
            _ => {}
        }

        let actions = self.stack.handle_wire(frame.src, &frame.wire, now);
        self.run_attacker_actions(ctx, actions);

        // Cross into the next cluster right after answering the probe
        // (Figure 5's moving-suspect scenarios).
        if self.move_pending {
            self.move_pending = false;
            self.cfg.move_after_probe = false; // once
            let next = self
                .cluster
                .map(|c| ClusterId(c.0 + 1))
                .filter(|c| c.0 <= self.plan.cluster_count());
            if next.is_some() {
                ctx.count("attacker.moved_mid_detection");
                self.rejoin(ctx, next);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Frame, Tick>, _token: Tick) {
        let now = ctx.now();
        if self.trajectory.has_exited(self.plan.highway(), now) {
            // Malicious nodes do not bother to deregister.
            self.fled = true;
            ctx.despawn();
            return;
        }
        self.membership_tick(ctx);
        self.renewal_tick(ctx);
        let actions = self.stack.tick(now, self.cfg.hello_interval);
        self.run_attacker_actions(ctx, actions);
        ctx.set_timer(self.cfg.tick, Tick);
    }

    fn state_digest(&self) -> u64 {
        // The attacker stack holds trace-invisible state (private RNG, drop
        // counters); surfacing it lets checkpoint verification catch silent
        // divergence inside the middleware chain.
        self.stack.state_digest()
    }
}
