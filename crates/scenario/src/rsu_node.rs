//! The simulated RSU: hosts a [`ClusterHead`] at the center of its
//! segment, bridging the radio and the wired backbone.

use blackdp::{BlackDpMessage, ChAction, ChEvent, ClusterHead, Wire};
use blackdp_aodv::{Message as AodvMessage, Rreq};
use blackdp_mobility::ClusterPlan;
use blackdp_sim::{Channel, Context, Duration, Node, NodeId, Position, Time};

use crate::directory::WiredDirectory;
use crate::frame::{broadcast_wire, send_wire, Frame, L2Cache, Tick};

/// The RSU / cluster-head node.
pub struct RsuNode {
    ch: ClusterHead,
    position: Position,
    segment: (f64, f64),
    dir: WiredDirectory,
    l2: L2Cache,
    tick: Duration,
    events: Vec<ChEvent>,
    timeline: Vec<(Time, ChEvent)>,
}

impl std::fmt::Debug for RsuNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsuNode")
            .field("cluster", &self.ch.cluster())
            .field("events", &self.events.len())
            .finish()
    }
}

impl RsuNode {
    /// Creates the RSU for `ch`'s cluster, positioned per `plan`.
    pub fn new(ch: ClusterHead, plan: &ClusterPlan, tick: Duration) -> Self {
        let cluster = ch.cluster();
        let position = plan
            .rsu_position(cluster)
            .expect("cluster head must have a planned position");
        let start = (cluster.0 as f64 - 1.0) * plan.cluster_len_m();
        let end = (start + plan.cluster_len_m()).min(plan.highway().length_m);
        RsuNode {
            ch,
            position,
            segment: (start, end),
            dir: WiredDirectory::new(),
            l2: L2Cache::new(),
            tick,
            events: Vec::new(),
            timeline: Vec::new(),
        }
    }

    /// Installs the wired-backbone directory (after all infrastructure is
    /// spawned).
    pub fn set_directory(&mut self, dir: WiredDirectory) {
        self.dir = dir;
    }

    /// The wrapped cluster head (for metrics and assertions).
    pub fn cluster_head(&self) -> &ClusterHead {
        &self.ch
    }

    /// Protocol events observed so far.
    pub fn events(&self) -> &[ChEvent] {
        &self.events
    }

    /// Events with the virtual times they occurred at.
    pub fn timeline(&self) -> &[(Time, ChEvent)] {
        &self.timeline
    }

    fn run_ch_actions(&mut self, ctx: &mut Context<'_, Frame, Tick>, actions: Vec<ChAction>) {
        let now = ctx.now();
        for action in actions {
            match action {
                ChAction::Radio { to, wire } => {
                    // Probe RREQs travel under their disposable identity so
                    // the suspect cannot link them to the RSU.
                    let src = match &wire {
                        Wire::Aodv(AodvMessage::Rreq(Rreq { orig, .. })) => *orig,
                        _ => self.ch.addr(),
                    };
                    send_wire(ctx, &self.l2, src, to, wire);
                }
                ChAction::RadioBroadcast { wire } => {
                    broadcast_wire(ctx, self.ch.addr(), wire);
                }
                ChAction::WiredCh { cluster, msg } => {
                    if let Some(node) = self.dir.ch(cluster) {
                        ctx.send_wired(
                            node,
                            Frame {
                                src: self.ch.addr(),
                                dst: None,
                                wire: Wire::BlackDp(msg),
                            },
                        );
                    } else {
                        ctx.count("rsu.wired_unknown_ch");
                    }
                }
                ChAction::WiredTa { ta, msg } => {
                    if let Some(node) = self.dir.ta(ta) {
                        ctx.send_wired(
                            node,
                            Frame {
                                src: self.ch.addr(),
                                dst: None,
                                wire: Wire::BlackDp(msg),
                            },
                        );
                    } else {
                        ctx.count("rsu.wired_unknown_ta");
                    }
                }
                ChAction::Event(e) => {
                    ctx.count(event_tag(&e));
                    self.timeline.push((now, e.clone()));
                    self.events.push(e);
                }
            }
        }
    }
}

/// The `Stats` counter key a cluster-head event bumps.
fn event_tag(e: &ChEvent) -> &'static str {
    match e {
        ChEvent::MemberJoined(_) => "rsu.event.member_joined",
        ChEvent::MemberLeft(_) => "rsu.event.member_left",
        ChEvent::JoinRejected(_) => "rsu.event.join_rejected",
        ChEvent::DetectionStarted { .. } => "rsu.event.detection_started",
        ChEvent::DetectionConcluded { .. } => "rsu.event.detection_concluded",
        ChEvent::IsolationRequested(_) => "rsu.event.isolation_requested",
        ChEvent::Restarted => "rsu.event.restarted",
        ChEvent::RevocationRetried { .. } => "rsu.event.revocation_retried",
        ChEvent::RevocationAbandoned(_) => "rsu.event.revocation_abandoned",
        ChEvent::DetectionDeferred { .. } => "rsu.event.detection_deferred",
        ChEvent::ForwardReplayed { .. } => "rsu.event.forward_replayed",
    }
}

impl Node<Frame, Tick> for RsuNode {
    fn position(&self, _now: Time) -> Position {
        self.position
    }

    fn on_start(&mut self, ctx: &mut Context<'_, Frame, Tick>) {
        ctx.set_timer(self.tick, Tick);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Frame, Tick>) {
        // The crash wiped the CH's volatile tables: run the protocol-level
        // reboot (conclude in-flight episodes, announce a fresh epoch) and
        // re-arm the maintenance timer the crash dropped.
        let actions = self.ch.restart(ctx.now());
        self.run_ch_actions(ctx, actions);
        // Announce the fresh epoch to peer CHs over the backbone as well:
        // inter-RSU radio reach is marginal, and peers must replay any
        // detection they forwarded here before the crash.
        let own = self.ch.cluster();
        let mut peers: Vec<_> = self
            .dir
            .clusters()
            .filter(|&(c, _)| c != own)
            .collect();
        peers.sort_by_key(|&(c, _)| c.0);
        for (_, node) in peers {
            ctx.send_wired(
                node,
                Frame {
                    src: self.ch.addr(),
                    dst: None,
                    wire: Wire::BlackDp(BlackDpMessage::Resync {
                        cluster: own,
                        ch_addr: self.ch.addr(),
                        epoch: self.ch.epoch(),
                    }),
                },
            );
        }
        ctx.set_timer(self.tick, Tick);
    }

    fn on_packet(
        &mut self,
        ctx: &mut Context<'_, Frame, Tick>,
        from: NodeId,
        frame: Frame,
        channel: Channel,
    ) {
        let now = ctx.now();
        // Accept frames for the CH itself or for any of its disposable
        // probe identities.
        if channel == Channel::Radio {
            if let Some(dst) = frame.dst {
                if dst != self.ch.addr() && !self.ch.is_probe_orig(dst) {
                    return;
                }
            }
            self.l2.learn(frame.src, from);
        }
        match frame.wire {
            Wire::SecuredRrep { rrep, .. } => {
                if self.ch.is_probe_orig(rrep.orig) {
                    let actions = self.ch.on_probe_rrep(frame.src, &rrep, now);
                    self.run_ch_actions(ctx, actions);
                }
            }
            Wire::Aodv(AodvMessage::Rrep(rrep)) => {
                if self.ch.is_probe_orig(rrep.orig) {
                    let actions = self.ch.on_probe_rrep(frame.src, &rrep, now);
                    self.run_ch_actions(ctx, actions);
                }
            }
            Wire::Aodv(_) => {
                // RSUs do not participate in AODV routing (the paper keeps
                // routing among vehicles; RSUs do detection).
            }
            Wire::BlackDp(msg) => {
                // Join requests are claimed by the segment owner — or by a
                // CH a vehicle addressed directly (fail-over registration
                // while its home CH is down).
                if let BlackDpMessage::Jreq(sealed) = &msg {
                    let x = sealed.body.pos_x;
                    let addressed = frame.dst == Some(self.ch.addr());
                    if (x < self.segment.0 || x >= self.segment.1) && !addressed {
                        return;
                    }
                }
                let actions = self.ch.handle_blackdp(frame.src, msg, now);
                self.run_ch_actions(ctx, actions);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Frame, Tick>, _token: Tick) {
        let now = ctx.now();
        let actions = self.ch.tick(now);
        self.run_ch_actions(ctx, actions);
        ctx.set_timer(self.tick, Tick);
    }
}
