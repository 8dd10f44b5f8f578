//! `exec` — the envelope-memo verification-throughput track
//! (`results/BENCH_pr10.json`).
//!
//! The workload is a 100,000-node strip carrying **platoon-relay
//! beacons**: every 25th node is a platoon leader whose periodic beacon
//! relays its followers' individually signed member reports (the V2X
//! aggregation pattern — receivers authenticate the whole platoon from
//! one broadcast). Every receiver in radio range verifies the leader's
//! envelope plus each member envelope it carries. Two legs run the same
//! world on the same serial event loop, differing only in *how*
//! envelopes verify:
//!
//! * **Leg A (scalar)**: each receiver calls [`Sealed::verify`] inline —
//!   full signature math per envelope per receiver, so one broadcast
//!   heard by 24 receivers costs 24× (members + 1) verifications.
//! * **Leg B (memo)**: each receiver verifies through its own
//!   [`VerifyQueue`]. The first receiver of a broadcast proves each
//!   envelope and stores the verdict in the process-global envelope memo;
//!   every later receiver's `verify_one` is a memo hit (digest, lookup,
//!   live validity-window check). Each envelope is proven once, not once
//!   per receiver.
//!
//! Every paired round asserts that Leg A and Leg B finish on the exact same
//! `EngineStamp` (clock, queue counters, RNG state, `Stats::digest`, node
//! digests) and verification counters: the verification style is
//! behaviorally invisible. Gates (absolute floors, like every bench bin):
//!
//! 1. **speedup** — median paired-round event-throughput ratio
//!    Leg B / Leg A ≥ [`SPEEDUP_FLOOR`].
//! 2. **clean** — zero verification failures in either leg: honest
//!    traffic must verify clean through both paths.
//!
//! The report records the host's `available_parallelism`
//! (`exec_host_cpus`) next to the throughput numbers; both legs run on
//! one thread, so the ratio does not depend on it.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use blackdp::{envelope_memo_clear, Sealed, SignBytes, VerifyQueue};
use blackdp_crypto::{Certificate, Keypair, LongTermId, PublicKey, TaId, TrustedAuthority};
use blackdp_scenario::atomic_write;
use blackdp_sim::{
    Channel, Context, Duration, EngineStamp, Node, NodeId, Position, Time, World, WorldBackend,
    WorldConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const OUT_PATH: &str = "results/BENCH_pr10.json";
const SCHEMA: &str = "blackdp-exec/v2";

/// Nodes on the strip (the PR-8 track's benchmark N).
const N: usize = 100_000;

/// Every `BROADCAST_STRIDE`-th node leads a platoon and beacons; the rest
/// only listen and verify. Keeps the verification volume bounded while
/// every broadcast still fans out to ~24 in-range receivers.
const BROADCAST_STRIDE: usize = 25;

/// Followers per platoon: each leader beacon relays this many member
/// envelopes, so a receiver verifies `MEMBERS + 1` signatures per
/// delivery.
const MEMBERS: usize = 6;

/// Minimum median Leg B / Leg A event-throughput ratio.
const SPEEDUP_FLOOR: f64 = 2.0;

// ---------------------------------------------------------------------------
// Workload: platoon-relay beacons on a strip
// ---------------------------------------------------------------------------

/// One follower's signed safety report, re-sealed fresh every round.
#[derive(Debug, Clone, PartialEq)]
struct MemberReport {
    member: u32,
    round: u64,
}

impl SignBytes for MemberReport {
    fn write_sign_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"exmbr");
        out.extend_from_slice(&self.member.to_be_bytes());
        out.extend_from_slice(&self.round.to_be_bytes());
    }
}

/// The leader's beacon body: its own identity and round, plus the relayed
/// member envelopes. The outer signature binds the members by their
/// signature *scalars* alone — a Schnorr challenge `e` already commits to
/// the signed message, so a relay cannot swap a member's report without
/// either breaking the member's own verification (body changed under its
/// `e`) or the outer's (scalars changed under the leader's signature).
/// Scalar binding keeps the outer signed-byte stream fixed-width per
/// member, which matters because the memo digest covers these bytes once
/// per receiver.
#[derive(Debug, Clone, PartialEq)]
struct PlatoonBeacon {
    leader: u32,
    round: u64,
    members: Vec<Sealed<MemberReport>>,
}

impl SignBytes for PlatoonBeacon {
    fn write_sign_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"exbcn");
        out.extend_from_slice(&self.leader.to_be_bytes());
        out.extend_from_slice(&self.round.to_be_bytes());
        for m in &self.members {
            out.extend_from_slice(&m.signature.e.to_be_bytes());
            out.extend_from_slice(&m.signature.s.to_be_bytes());
        }
    }
}

type Packet = Sealed<PlatoonBeacon>;

/// A leader's signing material: its own credential plus one per follower.
#[derive(Clone)]
struct PlatoonCreds {
    keys: Keypair,
    cert: Certificate,
    members: Vec<(Keypair, Certificate)>,
}

/// Leader-only node state (listeners carry `None`).
struct LeaderState {
    creds: PlatoonCreds,
    phase: Duration,
    period: Duration,
    /// Nonce source for sealing; private to the leader, so both legs draw
    /// the same nonces in the same order.
    sign_rng: StdRng,
    round: u64,
}

/// A strip node: leaders seal and broadcast on a staggered timer; every
/// node authenticates everything it hears, either inline (scalar) or
/// through a `VerifyQueue` backed by the global envelope memo.
struct PlatoonNode {
    start: Position,
    velocity_x: f64,
    leader: Option<LeaderState>,
    ta_key: PublicKey,
    /// Leg B verifies through the queue (and thus the envelope memo).
    queued: bool,
    queue: VerifyQueue,
    verified: u64,
}

impl Node<Packet, u8> for PlatoonNode {
    fn position(&self, now: Time) -> Position {
        Position::new(
            self.start.x + self.velocity_x * now.as_secs_f64(),
            self.start.y,
        )
    }
    fn on_start(&mut self, ctx: &mut Context<'_, Packet, u8>) {
        if let Some(leader) = &self.leader {
            ctx.set_timer(leader.phase, 0);
        }
    }
    fn on_packet(
        &mut self,
        ctx: &mut Context<'_, Packet, u8>,
        _from: NodeId,
        p: Packet,
        _ch: Channel,
    ) {
        let now = ctx.now();
        let mut ok = 0u64;
        let mut err = 0u64;
        if self.queued {
            let mut tally = |r: Result<(), blackdp::AuthError>| match r {
                Ok(()) => ok += 1,
                Err(_) => err += 1,
            };
            tally(self.queue.verify_one(&p, self.ta_key, now));
            for m in &p.body.members {
                tally(self.queue.verify_one(m, self.ta_key, now));
            }
        } else {
            let mut tally = |r: Result<(), blackdp::AuthError>| match r {
                Ok(()) => ok += 1,
                Err(_) => err += 1,
            };
            tally(p.verify(self.ta_key, now));
            for m in &p.body.members {
                tally(m.verify(self.ta_key, now));
            }
        }
        self.verified += ok + err;
        ctx.count_by("verified_ok", ok);
        ctx.count_by("verified_err", err);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Packet, u8>, _token: u8) {
        let leader = self.leader.as_mut().expect("only leaders arm timers");
        leader.round += 1;
        let members = leader
            .creds
            .members
            .iter()
            .enumerate()
            .map(|(m, (keys, cert))| {
                Sealed::seal(
                    MemberReport {
                        member: m as u32,
                        round: leader.round,
                    },
                    *cert,
                    None,
                    keys,
                    &mut leader.sign_rng,
                )
            })
            .collect();
        let body = PlatoonBeacon {
            leader: leader.creds.cert.pseudonym.0 as u32,
            round: leader.round,
            members,
        };
        ctx.broadcast(Sealed::seal(
            body,
            leader.creds.cert,
            None,
            &leader.creds.keys,
            &mut leader.sign_rng,
        ));
        let period = leader.period;
        ctx.set_timer(period, 0);
    }
    fn state_digest(&self) -> u64 {
        let round = self.leader.as_ref().map_or(0, |l| l.round);
        self.verified ^ (round << 32)
    }
}

/// Everything shared by every run of one benchmark invocation, so both
/// legs build bit-identical worlds (same enrollment order, same keys,
/// same trajectories).
struct Fleet {
    ta_key: PublicKey,
    /// Credentials for leader slots, `None` for listeners, indexed by
    /// node.
    creds: Vec<Option<PlatoonCreds>>,
}

impl Fleet {
    fn provision(n: usize) -> Fleet {
        let mut rng = StdRng::seed_from_u64(0xeec5_10b5);
        let mut ta = TrustedAuthority::new(TaId(1), &mut rng);
        let mut next_id = 0u64;
        let mut enroll = |ta: &mut TrustedAuthority, rng: &mut StdRng| {
            let keys = Keypair::generate(rng);
            next_id += 1;
            let cert = ta.enroll(
                LongTermId(next_id),
                keys.public(),
                Time::ZERO,
                Duration::from_secs(3600),
                rng,
            );
            (keys, cert)
        };
        let creds = (0..n)
            .map(|i| {
                (i % BROADCAST_STRIDE == 0).then(|| {
                    let (keys, cert) = enroll(&mut ta, &mut rng);
                    let members = (0..MEMBERS).map(|_| enroll(&mut ta, &mut rng)).collect();
                    PlatoonCreds {
                        keys,
                        cert,
                        members,
                    }
                })
            })
            .collect();
        Fleet {
            ta_key: ta.public_key(),
            creds,
        }
    }

    fn build(&self, queued: bool) -> World<Packet, u8> {
        let cfg = WorldConfig {
            radio_range_m: 300.0,
            seed: 0xb1ac_4d10,
            backend: WorldBackend::Sharded { shards: 4 },
            motion_bound_mps: 35.0,
            ..WorldConfig::default()
        };
        let mut world = World::new(cfg);
        for (i, creds) in self.creds.iter().enumerate() {
            let speed = 10.0 + (i % 20) as f64;
            let dir = if i % 2 == 0 { 1.0 } else { -1.0 };
            let leader = creds.as_ref().map(|creds| LeaderState {
                creds: creds.clone(),
                // Staggered across the whole period so broadcasts land on
                // distinct timestamps.
                phase: Duration::from_micros((i as u64 * 131) % 1_000_000 + 1),
                period: Duration::from_micros(1_000_000 + (i as u64 % 997) * 404),
                sign_rng: StdRng::seed_from_u64(0x5ea1 ^ i as u64),
                round: 0,
            });
            world.spawn(Box::new(PlatoonNode {
                start: Position::new(i as f64 * 25.0, (i % 8) as f64 * 20.0),
                velocity_x: speed * dir,
                leader,
                ta_key: self.ta_key,
                queued,
                queue: VerifyQueue::new(),
                verified: 0,
            }));
        }
        world
    }
}

/// One timed leg: runs the world to the virtual horizon and reports wall
/// seconds plus executed events (scheduled minus still-pending) and the
/// identity witnesses.
struct LegResult {
    wall_secs: f64,
    executed: u64,
    events_per_s: f64,
    stamp: EngineStamp,
    verified_ok: u64,
    verified_err: u64,
}

fn timed_leg(fleet: &Fleet, queued: bool, horizon: Time) -> LegResult {
    // Every leg starts crypto-cold so rounds are comparable: no verdicts
    // leak across legs through the process-global envelope memo or the
    // per-thread certificate cache.
    envelope_memo_clear();
    blackdp_crypto::cert_cache_clear();
    let mut world = fleet.build(queued);
    let started = Instant::now();
    world.run_until(horizon);
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    let stamp = world.engine_stamp();
    let executed = stamp.scheduled - stamp.pending;
    LegResult {
        wall_secs,
        executed,
        events_per_s: executed as f64 / wall_secs,
        stamp,
        verified_ok: world.stats().get("verified_ok"),
        verified_err: world.stats().get("verified_err"),
    }
}

// ---------------------------------------------------------------------------
// Reporting (mirrors the scale bin's JSON shape)
// ---------------------------------------------------------------------------

struct Metrics(Vec<(String, f64)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64) {
        self.0.retain(|(n, _)| n != name);
        self.0.push((name.to_owned(), value));
    }
}

fn render_json(mode: &str, n: usize, baseline: &Metrics, latest: &Metrics) -> String {
    let obj = |m: &Metrics| {
        let mut s = String::new();
        for (i, (name, value)) in m.0.iter().enumerate() {
            let sep = if i + 1 == m.0.len() { "" } else { "," };
            let _ = writeln!(s, "    \"{name}\": {value:.3}{sep}");
        }
        s
    };
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"mode\": \"{mode}\",\n  \"n\": {n},\n  \"baseline\": {{\n{}  }},\n  \"latest\": {{\n{}  }}\n}}\n",
        obj(baseline),
        obj(latest)
    )
}

fn load_baseline(path: &str) -> Option<(String, Metrics)> {
    let text = std::fs::read_to_string(path).ok()?;
    if !text.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return None;
    }
    let mode = text
        .split("\"mode\": \"")
        .nth(1)?
        .split('"')
        .next()?
        .to_owned();
    let body = text.split("\"baseline\": {").nth(1)?.split('}').next()?;
    let mut metrics = Metrics(Vec::new());
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if let Ok(value) = value.trim().parse::<f64>() {
            metrics.put(name.trim().trim_matches('"'), value);
        }
    }
    Some((mode, metrics))
}

struct Gate {
    name: String,
    pass: bool,
    detail: String,
}

fn gate(gates: &mut Vec<Gate>, name: &str, pass: bool, detail: String) {
    let verdict = if pass { "PASS" } else { "FAIL" };
    println!("  [{verdict}] {name}: {detail}");
    gates.push(Gate {
        name: name.to_owned(),
        pass,
        detail,
    });
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    values[values.len() / 2]
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "full".into());
    let (rounds, horizon) = match mode.as_str() {
        "smoke" => (3usize, Time::from_millis(400)),
        "full" => (5, Time::from_millis(900)),
        other => {
            eprintln!("usage: exec [smoke|full] (got {other:?})");
            std::process::exit(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut gates: Vec<Gate> = Vec::new();
    let mut latest = Metrics(Vec::new());
    latest.put("exec_n", N as f64);
    latest.put("exec_host_cpus", host_cpus as f64);

    println!(
        "==> exec: provisioning {N} nodes ({} platoons of {MEMBERS}), host cpus {host_cpus}",
        N / BROADCAST_STRIDE
    );
    let fleet = Fleet::provision(N);

    // -- Paired throughput rounds ------------------------------------------
    println!("==> exec: paired rounds, Leg A (scalar) vs Leg B (memo), both serial");
    let mut ratios = Vec::new();
    let mut failures = 0u64;
    let mut last = None;
    for round in 0..rounds {
        let a = timed_leg(&fleet, false, horizon);
        let b = timed_leg(&fleet, true, horizon);
        // Cross-leg identity: the verification style must be behaviorally
        // invisible — same events, same stamps, same counters.
        assert_eq!(a.stamp, b.stamp, "Leg A and Leg B stamps diverged");
        assert_eq!(a.verified_ok, b.verified_ok, "verification counters diverged");
        let ratio = b.events_per_s / a.events_per_s;
        println!(
            "  round {round}: A {:>9.0} ev/s ({:.2}s), B {:>9.0} ev/s ({:.2}s) → {ratio:.2}x",
            a.events_per_s, a.wall_secs, b.events_per_s, b.wall_secs
        );
        ratios.push(ratio);
        failures += a.verified_err + b.verified_err;
        last = Some((a, b));
    }
    let (a, b) = last.expect("at least one round");
    let speedup = median(&mut ratios);
    latest.put("exec_events", a.executed as f64);
    latest.put("exec_verified_per_event", (MEMBERS + 1) as f64);
    latest.put("exec_events_per_s_scalar_serial", a.events_per_s);
    latest.put("exec_events_per_s_memo", b.events_per_s);
    latest.put("exec_speedup_median", speedup);
    latest.put("exec_verified_ok", a.verified_ok as f64);
    gate(
        &mut gates,
        "exec/speedup",
        speedup >= SPEEDUP_FLOOR,
        format!(
            "median Leg B / Leg A throughput {speedup:.2}x over {rounds} paired round(s) \
             (floor {SPEEDUP_FLOOR:.1}x)"
        ),
    );
    gate(
        &mut gates,
        "exec/clean",
        failures == 0,
        format!("{failures} verification failure(s) on honest traffic across both legs"),
    );

    // -- Report ------------------------------------------------------------
    let baseline = match load_baseline(OUT_PATH) {
        Some((stored_mode, stored)) if stored_mode == mode => stored,
        _ => Metrics(latest.0.clone()),
    };
    let json = render_json(&mode, N, &baseline, &latest);
    atomic_write(Path::new(OUT_PATH), json.as_bytes()).expect("write BENCH_pr10.json");
    println!("wrote {OUT_PATH}");

    let failed: Vec<&Gate> = gates.iter().filter(|g| !g.pass).collect();
    if failed.is_empty() {
        println!("exec: all {} gate(s) pass", gates.len());
    } else {
        for g in &failed {
            eprintln!("exec: FAILED {}: {}", g.name, g.detail);
        }
        std::process::exit(1);
    }
}
