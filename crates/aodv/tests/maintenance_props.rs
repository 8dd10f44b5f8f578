//! Property test for `Aodv::tick`'s maintenance watermarks: after every
//! tick, a node must hold exactly what an unconditional full sweep would
//! leave — no `Valid` route past its lifetime, no neighbour silent for
//! longer than `neighbor_lifetime()`, no RREQ or data id older than its
//! horizon, and nothing removed early — for random interleavings of
//! receptions, purges, invalidations, discoveries and ticks on a clock that
//! may also step backwards.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use blackdp_aodv::{
    Action, Addr, Aodv, AodvConfig, DataPacket, DropReason, Event, Hello, Message, RouteState,
    Rrep, Rreq,
};
use blackdp_sim::{Duration, Time};
use proptest::prelude::*;

const ME: Addr = Addr(1);
/// A destination nobody ever announces: probes aimed at it can only be
/// answered by the duplicate caches, never from a cached route.
const NOWHERE: Addr = Addr(99);

/// Six peers, so neighbours, route entries and duplicate ids collide often.
fn peer(i: u8) -> Addr {
    Addr(2 + u64::from(i % 6))
}

/// Some destination: this node, a peer, or one that never answers.
fn dest(i: u8) -> Addr {
    match i % 4 {
        0 => ME,
        1 => Addr(20),
        _ => peer(i / 4),
    }
}

fn timed_out(now: Time, stamp: Time, horizon: Duration) -> bool {
    now.saturating_since(stamp) > horizon
}

/// The three timestamp maps as an unconditional full sweep keeps them.
#[derive(Default)]
struct Model {
    neighbors: BTreeMap<Addr, Time>,
    rreq_seen: HashMap<(Addr, u64), Time>,
    data_seen: HashMap<(Addr, u64), Time>,
    /// Every foreign RREQ and forwarded data id ever recorded, so ids the
    /// sweeps dropped are probed as well as the live ones.
    rreq_ids: BTreeSet<(Addr, u64)>,
    data_ids: BTreeSet<(Addr, u64)>,
}

impl Model {
    fn own_rreqs(&mut self, actions: &[Action], now: Time) {
        for action in actions {
            if let Action::Broadcast {
                msg: Message::Rreq(r),
            } = action
            {
                if r.orig == ME {
                    self.rreq_seen.insert((ME, r.rreq_id), now);
                }
            }
        }
    }

    /// Sweeps like a tick without watermarks; returns the neighbours lost.
    fn sweep(&mut self, cfg: &AodvConfig, now: Time) -> BTreeSet<Addr> {
        let lifetime = cfg.neighbor_lifetime();
        let gone = self
            .neighbors
            .iter()
            .filter(|(_, &t)| timed_out(now, t, lifetime))
            .map(|(&a, _)| a)
            .collect();
        self.neighbors
            .retain(|_, &mut t| !timed_out(now, t, lifetime));
        let rreq_horizon = cfg.path_discovery_time();
        self.rreq_seen
            .retain(|_, &mut t| !timed_out(now, t, rreq_horizon));
        let data_horizon = cfg.active_route_timeout;
        self.data_seen
            .retain(|_, &mut t| !timed_out(now, t, data_horizon));
        gone
    }
}

/// Whether `node` treats the RREQ id `key` as a duplicate, asked of a copy.
fn rreq_is_seen(node: &Aodv, key: (Addr, u64), now: Time) -> bool {
    let probe = Rreq {
        rreq_id: key.1,
        dest: NOWHERE,
        dest_seq: None,
        orig: key.0,
        orig_seq: 0,
        hop_count: 0,
        ttl: 1,
        next_hop_inquiry: false,
    };
    // A fresh id with TTL left is always rebroadcast; a duplicate is not.
    node.clone()
        .handle_message(Addr(50), Message::Rreq(probe), now)
        .is_empty()
}

/// Whether `node` treats the data id `key` as a duplicate, asked of a copy.
fn data_is_seen(node: &Aodv, key: (Addr, u64), now: Time) -> bool {
    let probe = DataPacket {
        orig: key.0,
        dest: NOWHERE,
        seq_no: key.1,
        ttl: 0,
    };
    // The duplicate check runs before the TTL check.
    node.clone()
        .handle_message(Addr(50), Message::Data(probe), now)
        .iter()
        .any(|a| {
            matches!(
                a,
                Action::Event(Event::DataDropped {
                    reason: DropReason::Duplicate,
                    ..
                })
            )
        })
}

/// One step: the clock moves by `(step - 4) · 100 ms`, then `kind` acts
/// with the operands `a`, `b`, `n`.
type Op = (u8, u8, u8, u8, u8);

fn op() -> impl Strategy<Value = Op> {
    (0u8..10, any::<u8>(), any::<u8>(), any::<u8>(), 0u8..30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ticks_leave_exactly_what_a_full_sweep_leaves(
        ops in prop::collection::vec(op(), 1..160),
    ) {
        let cfg = AodvConfig::default();
        let mut node = Aodv::new(ME, cfg.clone());
        let mut model = Model::default();
        let mut now = Time::from_secs(5);

        for (kind, a, b, n, step) in ops {
            let delta = (i64::from(step) - 4) * 100_000;
            now = Time::from_micros(now.as_micros().saturating_add_signed(delta));
            let from = peer(a);
            let msg = match kind {
                0 => Some(Message::Hello(Hello { orig: from, seq: u32::from(n) })),
                1 => Some(Message::Rreq(Rreq {
                    rreq_id: u64::from(n % 8),
                    dest: dest(b),
                    dest_seq: (n % 3 == 0).then_some(u32::from(n)),
                    orig: if b % 7 == 0 { ME } else { peer(b / 7) },
                    orig_seq: u32::from(n),
                    hop_count: n % 4,
                    ttl: n % 3,
                    next_hop_inquiry: n % 5 == 0,
                })),
                2 => Some(Message::Rrep(Rrep {
                    dest: dest(b),
                    dest_seq: u32::from(n % 16),
                    orig: if b % 3 == 0 { ME } else { peer(b / 3) },
                    hop_count: n % 4,
                    lifetime: Duration::from_millis(100 * u64::from(n % 64)),
                    next_hop: None,
                })),
                3 => Some(Message::Data(DataPacket {
                    orig: peer(b),
                    dest: dest(b / 6),
                    seq_no: u64::from(n % 8),
                    ttl: n % 3,
                })),
                _ => None,
            };
            if let Some(msg) = msg {
                let rreq = match msg {
                    Message::Rreq(r) => Some(r),
                    _ => None,
                };
                let data = match msg {
                    Message::Data(d) => Some(d),
                    _ => None,
                };
                let actions = node.handle_message(from, msg, now);
                model.neighbors.insert(from, now);
                if let Some(r) = rreq.filter(|r| r.orig != ME) {
                    let key = (r.orig, r.rreq_id);
                    model.rreq_seen.entry(key).or_insert(now);
                    model.rreq_ids.insert(key);
                }
                let forwarded = actions.iter().any(|a| {
                    matches!(a, Action::SendTo { msg: Message::Data(_), .. })
                });
                if let Some(d) = data.filter(|_| forwarded) {
                    let key = (d.orig, d.seq_no);
                    model.data_seen.insert(key, now);
                    model.data_ids.insert(key);
                }
                continue;
            }
            match kind {
                4 => {
                    node.purge_node(from);
                    model.neighbors.remove(&from);
                }
                5 => node.invalidate_route(dest(b)),
                6 => {
                    let actions = node.start_discovery(dest(b), now);
                    model.own_rreqs(&actions, now);
                }
                _ => {
                    let actions = node.tick(now);
                    let gone = model.sweep(&cfg, now);
                    model.own_rreqs(&actions, now);

                    let broken: BTreeSet<Addr> = actions
                        .iter()
                        .filter_map(|a| match a {
                            Action::Event(Event::LinkBroken { neighbor }) => Some(*neighbor),
                            _ => None,
                        })
                        .collect();
                    prop_assert_eq!(&broken, &gone, "links broken at {:?}", now);
                    let neighbors: Vec<Addr> = node.neighbors().collect();
                    let expected: Vec<Addr> = model.neighbors.keys().copied().collect();
                    prop_assert_eq!(&neighbors, &expected, "neighbours at {:?}", now);
                    for (addr, &last) in &model.neighbors {
                        prop_assert!(
                            !timed_out(now, last, cfg.neighbor_lifetime()),
                            "{:?} silent since {:?} kept at {:?}", addr, last, now
                        );
                    }
                    for route in node.routes().iter() {
                        prop_assert!(
                            !(route.state == RouteState::Valid && route.expires <= now),
                            "route to {:?} valid past {:?} at {:?}", route.dest, route.expires, now
                        );
                    }
                    for &key in &model.rreq_ids {
                        prop_assert_eq!(
                            rreq_is_seen(&node, key, now),
                            model.rreq_seen.contains_key(&key),
                            "RREQ id {:?} at {:?} (horizon {:?})",
                            key, now, cfg.path_discovery_time()
                        );
                    }
                    for &key in &model.data_ids {
                        prop_assert_eq!(
                            data_is_seen(&node, key, now),
                            model.data_seen.contains_key(&key),
                            "data id {:?} at {:?} (horizon {:?})",
                            key, now, cfg.active_route_timeout
                        );
                    }
                }
            }
        }
    }
}
