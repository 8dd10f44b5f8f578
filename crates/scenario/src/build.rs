//! Scenario construction and the single-trial runner.

use blackdp::{addr_of, AuthorityNode, ChEvent, ClusterHead, DetectionOutcome, TaEvent};
use blackdp_aodv::Addr;
use blackdp_attacks::{
    AttackerConfig, AttackerStack, DropData, Evasion, FakeHelloReply, ForgeRrep, GrayHoleConfig,
    Interceptor,
};
use blackdp_crypto::{Keypair, LongTermId, TaId, TrustedAuthority};
use blackdp_mobility::{
    random_position_in_cluster, ClusterId, ClusterPlan, Direction, Kmh, Trajectory,
};
use blackdp_sim::{Duration, NodeId, Position, Time, World, WorldConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::config::{AttackSetup, ScenarioConfig, TrialSpec};
use crate::directory::WiredDirectory;
use crate::frame::{Frame, Tick};
use crate::malicious_node::{MaliciousNode, MaliciousNodeConfig, MaliciousProfile};
use crate::metrics::{TrialClass, TrialOutcome};
use crate::rsu_node::RsuNode;
use crate::ta_node::TaNode;
use crate::vehicle::{TrafficIntent, VehicleConfig, VehicleNode};

use crate::config::ch_addr;

/// Base address for trusted-authority backbone endpoints. Public so the
/// `blackdpd` daemon assigns its TA the same protocol address the simulator
/// would, keeping testbed and simulator runs directly comparable.
pub const TA_ADDR_BASE: u64 = 0x6000_0000_0000_0000;
/// The fabricated destination used when the trial has no real one. Public
/// for the same reason: a testbed source node asks for this address so only
/// a black hole ever answers the discovery.
pub const PHANTOM_DEST: u64 = 0x5FFF_FFFF_FFFF_FFFF;

/// A fully constructed world plus the handles needed to measure it.
pub struct BuiltScenario {
    /// The simulation world, ready to run.
    pub world: World<Frame, Tick>,
    /// RSU node ids, indexed by cluster − 1.
    pub rsus: Vec<NodeId>,
    /// TA node ids, by region index.
    pub tas: Vec<NodeId>,
    /// Every honest vehicle.
    pub vehicles: Vec<NodeId>,
    /// The traffic source.
    pub source: NodeId,
    /// The destination vehicle, when it exists.
    pub dest: Option<NodeId>,
    /// The destination address the source targets (phantom when absent).
    pub dest_addr: Addr,
    /// Attacker node ids.
    pub attackers: Vec<NodeId>,
    /// The cluster plan.
    pub plan: ClusterPlan,
    /// The trusted authority's root public key (verifies every cert).
    pub ta_key: blackdp_crypto::PublicKey,
}

impl std::fmt::Debug for BuiltScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltScenario")
            .field("vehicles", &self.vehicles.len())
            .field("attackers", &self.attackers.len())
            .field("rsus", &self.rsus.len())
            .finish()
    }
}

/// Builds the full Table-I world for one trial.
pub fn build_scenario(cfg: &ScenarioConfig, spec: &TrialSpec) -> BuiltScenario {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let plan = cfg.plan();
    let cluster_count = plan.cluster_count();
    let spawn = cfg.spawn();

    let world_cfg = WorldConfig {
        radio_range_m: cfg.range_m,
        radio_latency: cfg.radio_latency,
        radio_jitter: cfg.radio_jitter,
        radio_loss: cfg.radio_loss,
        radio_model: match cfg.fading_full_fraction {
            Some(full_fraction) => blackdp_sim::RadioModel::Fading { full_fraction },
            None => blackdp_sim::RadioModel::UnitDisk,
        },
        wired_latency: Duration::from_millis(1),
        seed: spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        neighbor_index: cfg.neighbor_index,
        backend: cfg.backend,
        // Every spawned trajectory (vehicles, attackers; RSUs/TAs are
        // static) is bounded by the Table-I speed band, so the sharded
        // backend's staleness horizon is sound. The 25% margin keeps the
        // coverage proof comfortable even if a future mobility model
        // rounds speeds up slightly.
        motion_bound_mps: Kmh(cfg.max_speed_kmh).as_mps() * 1.25,
    };
    let mut world: World<Frame, Tick> = World::new(world_cfg);

    // --- Trusted authorities: shared root key, regional registries. ---
    let root = Keypair::generate(&mut rng);
    let ta_key = root.public();
    let region_count = cfg.ta_regions.len();
    let mut authorities: Vec<TrustedAuthority> = (0..region_count)
        .map(|i| TrustedAuthority::with_keypair(TaId(i as u32 + 1), root))
        .collect();

    // --- Enrollment plan: honest vehicles, then attackers. ---
    let attacker_count = spec.attack.attacker_count();
    let honest_count = cfg.vehicles.saturating_sub(attacker_count).max(3);

    struct VehiclePlan {
        trajectory: Trajectory,
        keys: Keypair,
        cert: blackdp_crypto::Certificate,
        region: usize,
    }

    let place = |cluster: u32,
                 rng: &mut StdRng,
                 authorities: &mut Vec<TrustedAuthority>,
                 cfg: &ScenarioConfig,
                 lt: u64,
                 direction: Direction|
     -> VehiclePlan {
        let pos = random_position_in_cluster(&plan, ClusterId(cluster), rng);
        let speed = spawn.random_speed(rng);
        let trajectory = Trajectory::new(pos, speed, direction, Time::ZERO);
        let region = cfg.region_of(cluster);
        let keys = Keypair::generate(rng);
        let cert = authorities[region].enroll(
            LongTermId(lt),
            keys.public(),
            Time::ZERO,
            cfg.blackdp.cert_validity,
            rng,
        );
        VehiclePlan {
            trajectory,
            keys,
            cert,
            region,
        }
    };

    // Source in its configured cluster; destination (if any) in its
    // cluster; everyone else anywhere.
    let mut honest_plans: Vec<VehiclePlan> = Vec::with_capacity(honest_count as usize);
    honest_plans.push(place(
        spec.source_cluster,
        &mut rng,
        &mut authorities,
        cfg,
        0,
        Direction::Forward,
    ));
    if let Some(dc) = spec.dest_cluster {
        honest_plans.push(place(
            dc,
            &mut rng,
            &mut authorities,
            cfg,
            1,
            Direction::Forward,
        ));
    }
    // The paper distributes vehicles "randomly ... within the clusters":
    // assign clusters round-robin (keeping every segment populated, so the
    // chain stays connected) with a uniformly random position inside each.
    let mut next_cluster = 0u32;
    while (honest_plans.len() as u32) < honest_count {
        let cluster = (next_cluster % cluster_count) + 1;
        next_cluster += 1;
        let lt = honest_plans.len() as u64;
        let direction = if rng.random::<f64>() < cfg.backward_fraction {
            Direction::Backward
        } else {
            Direction::Forward
        };
        honest_plans.push(place(
            cluster,
            &mut rng,
            &mut authorities,
            cfg,
            lt,
            direction,
        ));
    }

    // Attacker credentials (so cooperative partners can reference each
    // other's addresses before node construction).
    struct AttackerPlan {
        keys: Keypair,
        cert: blackdp_crypto::Certificate,
        trajectory: Trajectory,
        region: usize,
    }
    let mut attacker_plans: Vec<AttackerPlan> = Vec::new();
    let attack_clusters = spec.attack.clusters();
    debug_assert_eq!(attack_clusters.len() as u32, attacker_count);
    let mut same_cluster_rank: std::collections::HashMap<u32, u64> =
        std::collections::HashMap::new();
    for (i, cluster) in attack_clusters.into_iter().enumerate() {
        let region = cfg.region_of(cluster);
        let seg_start = (cluster as f64 - 1.0) * cfg.cluster_len_m;
        // Near the rear of the segment when the trial needs a mid-
        // detection move; cooperative partners in the same cluster sit
        // within ~300 m of each other.
        let rank = same_cluster_rank.entry(cluster).or_insert(0);
        let base_x = if spec.attacker_moves {
            seg_start + cfg.cluster_len_m * 0.8
        } else {
            seg_start + cfg.cluster_len_m * 0.4
        };
        let x = base_x + (*rank as f64) * 150.0;
        let y = 40.0 + (*rank as f64) * 30.0;
        *rank += 1;
        let speed = spawn.random_speed(&mut rng);
        let trajectory = Trajectory::new(
            Position::new(x.min(cfg.highway_length_m - 1.0), y),
            speed,
            Direction::Forward,
            Time::ZERO,
        );
        let keys = Keypair::generate(&mut rng);
        let cert = authorities[region].enroll(
            LongTermId(1_000 + i as u64),
            keys.public(),
            Time::ZERO,
            cfg.blackdp.cert_validity,
            &mut rng,
        );
        attacker_plans.push(AttackerPlan {
            keys,
            cert,
            trajectory,
            region,
        });
    }

    // --- Spawn TA nodes. ---
    let mut directory = WiredDirectory::new();
    let mut tas = Vec::new();
    let all_ta_ids: Vec<TaId> = (1..=region_count as u32).map(TaId).collect();
    for (i, authority) in authorities.into_iter().enumerate() {
        let (lo, hi) = cfg.ta_regions[i];
        let clusters: Vec<ClusterId> = (lo..=hi.min(cluster_count)).map(ClusterId).collect();
        let peers: Vec<TaId> = all_ta_ids
            .iter()
            .copied()
            .filter(|t| *t != authority.id())
            .collect();
        let node = AuthorityNode::new(
            authority,
            clusters,
            peers,
            cfg.blackdp.cert_validity,
            spec.seed.wrapping_add(5_000 + i as u64),
        );
        let addr = Addr(TA_ADDR_BASE + i as u64 + 1);
        let ta_id = node.id();
        let id = world.spawn(Box::new(TaNode::new(node, addr)));
        directory.add_ta(ta_id, id, addr);
        tas.push(id);
    }

    // --- Spawn RSUs. ---
    let mut rsus = Vec::new();
    for cluster in plan.clusters() {
        let region = cfg.region_of(cluster.0);
        let ch = ClusterHead::new(
            cluster,
            ch_addr(cluster),
            TaId(region as u32 + 1),
            ta_key,
            cluster_count,
            cfg.blackdp.clone(),
            spec.seed.wrapping_add(9_000 + u64::from(cluster.0)),
        );
        let id = world.spawn(Box::new(RsuNode::new(ch, &plan, cfg.tick)));
        directory.add_ch(cluster, id);
        rsus.push(id);
    }

    // --- Spawn honest vehicles. ---
    let vehicle_cfg = VehicleConfig {
        aodv: cfg.aodv.clone(),
        blackdp: cfg.blackdp.clone(),
        defense: cfg.defense,
        tick: cfg.tick,
        range_m: cfg.range_m,
        ..VehicleConfig::default()
    };
    let mut vehicles = Vec::new();
    for (i, p) in honest_plans.into_iter().enumerate() {
        let node = VehicleNode::new(
            p.trajectory,
            plan.clone(),
            p.keys,
            p.cert,
            ta_key,
            vehicle_cfg.clone(),
            spec.seed.wrapping_add(100 + i as u64),
        );
        let _ = p.region;
        vehicles.push(world.spawn(Box::new(node)));
    }
    let source = vehicles[0];
    let dest = spec.dest_cluster.map(|_| vehicles[1]);

    // --- Spawn attackers: each is an interceptor chain over the honest
    // --- AttackerCore, inside the shared MaliciousNode shell.
    let cooperative = matches!(
        spec.attack,
        AttackSetup::Cooperative { .. } | AttackSetup::CooperativeGrayHole { .. }
    );
    let teammate_addr = cooperative
        .then(|| attacker_plans.get(1).map(|p| addr_of(p.cert.pseudonym)))
        .flatten();
    let primary_addr = cooperative
        .then(|| attacker_plans.first().map(|p| addr_of(p.cert.pseudonym)))
        .flatten();
    let mut attackers = Vec::new();
    for (i, p) in attacker_plans.into_iter().enumerate() {
        let issuer = TaId(p.region as u32 + 1);
        let brain_seed = spec.seed.wrapping_add(700 + i as u64);
        let node_seed = spec.seed.wrapping_add(800 + i as u64);
        let teammate = if i == 0 { teammate_addr } else { primary_addr };
        let (chain, node_cfg): (Vec<Box<dyn Interceptor>>, MaliciousNodeConfig) = match spec.attack
        {
            AttackSetup::GrayHole {
                drop_probability, ..
            } => {
                let gh_cfg = GrayHoleConfig {
                    drop_probability,
                    ..GrayHoleConfig::default()
                };
                (
                    vec![
                        Box::new(ForgeRrep::new(gh_cfg.forge_params(), None)),
                        Box::new(DropData::grayhole(
                            gh_cfg.drop_probability,
                            gh_cfg.forward_probes,
                        )),
                    ],
                    MaliciousNodeConfig {
                        tick: cfg.tick,
                        hello_interval: cfg.aodv.hello_interval,
                        ..MaliciousNodeConfig::gray_hole(issuer)
                    },
                )
            }
            AttackSetup::CooperativeGrayHole {
                drop_probability, ..
            } => {
                // The composed variant: cooperative endorsement + gray-hole
                // dropping + evasion, with the black hole's probe hooks so
                // Flee/move manoeuvres work.
                let gh_cfg = GrayHoleConfig {
                    drop_probability,
                    ..GrayHoleConfig::default()
                };
                (
                    vec![
                        Box::new(Evasion),
                        Box::new(ForgeRrep::new(gh_cfg.forge_params(), teammate)),
                        Box::new(DropData::grayhole(
                            gh_cfg.drop_probability,
                            gh_cfg.forward_probes,
                        )),
                    ],
                    MaliciousNodeConfig {
                        tick: cfg.tick,
                        hello_interval: cfg.aodv.hello_interval,
                        renewal_zone: cfg.renewal_zone,
                        evasion: spec.evasion,
                        profile: MaliciousProfile {
                            probe_hooks: true,
                            ..MaliciousProfile::GRAY_HOLE
                        },
                        ..MaliciousNodeConfig::gray_hole(issuer)
                    },
                )
            }
            _ => {
                let attack_cfg = AttackerConfig {
                    teammate,
                    evasion: spec.evasion,
                    fake_hello_reply: spec.attacker_fake_hello,
                    ..AttackerConfig::default()
                };
                let mut chain: Vec<Box<dyn Interceptor>> = vec![
                    Box::new(Evasion),
                    Box::new(ForgeRrep::new(attack_cfg.forge_params(), attack_cfg.teammate)),
                    Box::new(DropData::blackhole()),
                ];
                if attack_cfg.fake_hello_reply {
                    chain.push(Box::new(FakeHelloReply));
                }
                (
                    chain,
                    MaliciousNodeConfig {
                        tick: cfg.tick,
                        hello_interval: cfg.aodv.hello_interval,
                        renewal_zone: cfg.renewal_zone,
                        move_after_probe: spec.attacker_moves && i == 0,
                        evasion: spec.evasion,
                        ..MaliciousNodeConfig::black_hole(issuer)
                    },
                )
            }
        };
        let stack = AttackerStack::new(p.keys, p.cert, brain_seed, chain);
        let node = MaliciousNode::new(stack, p.trajectory, plan.clone(), node_cfg, node_seed);
        attackers.push(world.spawn(Box::new(node)));
    }

    // --- Install the wired directory everywhere. ---
    for &id in &rsus {
        world
            .get_mut::<RsuNode>(id)
            .expect("rsu node")
            .set_directory(directory.clone());
    }
    for &id in &tas {
        world
            .get_mut::<TaNode>(id)
            .expect("ta node")
            .set_directory(directory.clone());
    }

    // --- Source traffic intent. ---
    let dest_addr = match dest {
        Some(d) => world.get::<VehicleNode>(d).expect("dest vehicle").addr(),
        None => Addr(PHANTOM_DEST),
    };
    world
        .get_mut::<VehicleNode>(source)
        .expect("source vehicle")
        .add_intent(TrafficIntent {
            dest: dest_addr,
            start: Time::from_secs(2),
            count: cfg.data_packets,
            interval: cfg.data_interval,
        });

    BuiltScenario {
        world,
        rsus,
        tas,
        vehicles,
        source,
        dest,
        dest_addr,
        attackers,
        plan,
        ta_key,
    }
}

/// Runs one trial to completion and harvests its outcome.
pub fn run_trial(cfg: &ScenarioConfig, spec: &TrialSpec) -> TrialOutcome {
    let mut built = build_scenario(cfg, spec);
    stage_false_suspicion(&mut built, spec);
    built.world.run_until(Time::ZERO + cfg.sim_duration);
    harvest(cfg, spec, &built)
}

/// For false-suspicion trials: runs the world until membership has settled
/// (two virtual seconds), then injects the fabricated report. A no-op for
/// every other attack setup. Shared by the plain and fault-injected
/// runners.
pub(crate) fn stage_false_suspicion(built: &mut BuiltScenario, spec: &TrialSpec) {
    if let AttackSetup::FalseSuspicion { cross_cluster } = spec.attack {
        built.world.run_until(Time::from_secs(2));
        let suspect_node = if cross_cluster {
            // Pick an honest vehicle registered in a different cluster
            // than the source's.
            let source_cluster = built
                .world
                .get::<VehicleNode>(built.source)
                .and_then(|v| v.cluster());
            built
                .vehicles
                .iter()
                .copied()
                .filter(|&v| v != built.source)
                .find(|&v| {
                    let c = built.world.get::<VehicleNode>(v).and_then(|n| n.cluster());
                    c.is_some() && c != source_cluster
                })
        } else {
            let source_cluster = built
                .world
                .get::<VehicleNode>(built.source)
                .and_then(|v| v.cluster());
            built
                .vehicles
                .iter()
                .copied()
                .filter(|&v| v != built.source)
                .find(|&v| {
                    let c = built.world.get::<VehicleNode>(v).and_then(|n| n.cluster());
                    c.is_some() && c == source_cluster
                })
        };
        if let Some(sv) = suspect_node {
            let (suspect_addr, suspect_cluster) = {
                let v = built.world.get::<VehicleNode>(sv).expect("vehicle");
                (v.addr(), v.cluster())
            };
            built
                .world
                .get_mut::<VehicleNode>(built.source)
                .expect("source")
                .force_report(suspect_addr, suspect_cluster);
        }
    }
}

/// Extracts the measured outcome from a finished world.
pub fn harvest(cfg: &ScenarioConfig, spec: &TrialSpec, built: &BuiltScenario) -> TrialOutcome {
    let world = &built.world;
    let _ = cfg;

    // Attacker address histories (identity renewal included).
    let mut attacker_addrs: Vec<Addr> = Vec::new();
    for &a in &built.attackers {
        if let Some(node) = world.get::<MaliciousNode>(a) {
            attacker_addrs.extend_from_slice(node.addr_history());
        }
    }
    let is_attacker = |addr: Addr| attacker_addrs.contains(&addr);

    // Detection episodes from every RSU.
    let mut detections: Vec<(Addr, DetectionOutcome, u32)> = Vec::new();
    let mut reported = false;
    for &r in &built.rsus {
        let Some(node) = world.get::<RsuNode>(r) else {
            continue;
        };
        for event in node.events() {
            match event {
                ChEvent::DetectionStarted { .. } => reported = true,
                ChEvent::DetectionConcluded {
                    suspect,
                    outcome,
                    packets,
                } => detections.push((*suspect, *outcome, *packets)),
                _ => {}
            }
        }
    }
    reported |= !detections.is_empty() || world.stats().get("vehicle.dreq_sent") > 0;

    let mut attacker_confirmed = false;
    let mut honest_confirmed = false;
    for (suspect, outcome, _) in &detections {
        match outcome {
            DetectionOutcome::ConfirmedSingle => {
                if is_attacker(*suspect) {
                    attacker_confirmed = true;
                } else {
                    honest_confirmed = true;
                }
            }
            DetectionOutcome::ConfirmedCooperative { teammate } => {
                if is_attacker(*suspect) {
                    attacker_confirmed = true;
                } else {
                    honest_confirmed = true;
                }
                if !is_attacker(*teammate) {
                    honest_confirmed = true;
                }
            }
            DetectionOutcome::Unconfirmed | DetectionOutcome::SuspectGone => {}
        }
    }

    // Revocations at the TAs.
    let mut attacker_revoked = false;
    for &t in &built.tas {
        if let Some(node) = world.get::<TaNode>(t) {
            for e in node.events() {
                if let TaEvent::CertificateRevoked(p) = e {
                    if is_attacker(addr_of(*p)) {
                        attacker_revoked = true;
                    }
                }
            }
        }
    }

    // The episode of interest: prefer one against the attacker.
    let detection_packets = detections
        .iter()
        .find(|(s, _, _)| is_attacker(*s))
        .or_else(|| detections.first())
        .map(|(_, _, p)| *p);

    // Virtual time to the first concluded detection.
    let detection_latency = built
        .rsus
        .iter()
        .filter_map(|&r| world.get::<RsuNode>(r))
        .flat_map(|n| n.timeline().iter())
        .filter_map(|(t, e)| match e {
            ChEvent::DetectionConcluded { .. } => Some(*t),
            _ => None,
        })
        .min()
        .map(|t| t.saturating_since(blackdp_sim::Time::ZERO));

    // Traffic accounting.
    let data_sent = world
        .get::<VehicleNode>(built.source)
        .map(|v| v.data_sent())
        .unwrap_or(0);
    let source_addr = world
        .get::<VehicleNode>(built.source)
        .map(|v| v.addr())
        .unwrap_or(Addr(0));
    let data_delivered = built
        .dest
        .and_then(|d| world.get::<VehicleNode>(d))
        .map(|v| {
            v.delivered()
                .iter()
                .filter(|(orig, _)| *orig == source_addr)
                .count() as u64
        })
        .unwrap_or(0);
    let data_dropped_by_attacker = built
        .attackers
        .iter()
        .map(|&a| {
            world
                .get::<MaliciousNode>(a)
                .map(|n| n.dropped_count())
                .unwrap_or(0)
        })
        .sum();

    let attack_present = spec.attack.attacker_count() > 0;
    let class = TrialOutcome::classify(attack_present, attacker_confirmed, honest_confirmed);
    TrialOutcome {
        attack_present,
        detections,
        reported,
        attacker_confirmed,
        honest_confirmed,
        attacker_revoked,
        detection_packets,
        detection_latency,
        data_sent,
        data_delivered,
        data_dropped_by_attacker,
        class,
    }
}

#[allow(unused)]
fn unused_class_guard(_: TrialClass) {}
