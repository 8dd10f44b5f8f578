//! Event-sourced checkpoint/restore for trials.
//!
//! The simulator is deterministic: a trial is fully determined by its
//! generative inputs (config, spec, fault plan). A [`Snapshot`] therefore
//! never serializes the object graph — boxed `dyn` nodes, queued frames —
//! it records a *fingerprint* of the inputs plus, at every checkpoint
//! boundary, a compact **witness** ([`CheckpointStamp`]): the engine stamp
//! (virtual clock, scheduler counters, RNG state, stats and node digests)
//! and a chained checksum over the trace prefix produced so far.
//!
//! Restoring ([`resume_trial`]) rebuilds the scenario and replays
//! deterministically to the checkpoint boundary using the *identical*
//! interval-stepping procedure the recorder used, verifying every witness
//! on the way; any mismatch is a structured [`ResumeError`], not silent
//! divergence. The replay differ ([`bisect_divergence`]) uses the per-stamp
//! chained checksums to bound the divergent interval in O(#checkpoints)
//! comparisons and fine-diffs only that window, instead of scanning the
//! whole trace pair from t = 0.
//!
//! Stepping a world `run_until(t₁); run_until(t₂)` is equivalent to
//! `run_until(t₂)`: the event queue is monotonic, fault transitions drain
//! per interval in time order, and the clock merely floors forward at each
//! deadline. Checkpoint boundaries are therefore observationally free.

use blackdp_sim::{Duration, EngineStamp, Time};

use crate::build::{build_scenario, harvest, stage_false_suspicion, BuiltScenario};
use crate::config::{ScenarioConfig, TrialSpec};
use crate::faults::FaultSpec;
use crate::journal::{attach_journal, JournalHandle};
use crate::metrics::TrialOutcome;
use crate::trace::{chain_event, entry_to_event, fnv64_continue, Divergence, FNV_OFFSET};
use crate::trace::{diff as diff_traces, TraceEvent};

/// Magic prefix of the binary snapshot format.
const MAGIC: &[u8; 8] = b"BDPSNAP\x01";
/// Format version; bump on any wire change.
const VERSION: u32 = 1;

/// The witness captured at one checkpoint boundary.
///
/// A stamp proves two things about the run at `at_micros`: the engine was
/// in exactly this state (clock, scheduler, RNG, stats, per-node digests),
/// and the journal held exactly `events` deliveries whose chained FNV
/// checksum is `chained`. A resumed run reproducing all fields has
/// provably retraced the original prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStamp {
    /// Position of this checkpoint in the boundary schedule (0-based).
    pub index: u32,
    /// The boundary's virtual time in microseconds.
    pub at_micros: u64,
    /// Trace events delivered up to (and including) the boundary.
    pub events: u64,
    /// Chained FNV-64 checksum over those events, in order.
    pub chained: u64,
    /// xoshiro256++ engine RNG state words.
    pub rng_state: [u64; 4],
    /// Total occurrences ever scheduled (queue sequence counter).
    pub scheduled: u64,
    /// Occurrences still pending in the queue.
    pub pending: u64,
    /// Timers ever armed (timer id counter).
    pub timers_armed: u64,
    /// Digest of the statistics counters.
    pub stats_digest: u64,
    /// Fold of per-node state digests and slot liveness.
    pub node_digest: u64,
    /// Active (spawned, not despawned/crashed) node count.
    pub active_nodes: u32,
}

impl CheckpointStamp {
    fn from_engine(index: u32, at_micros: u64, events: u64, chained: u64, es: &EngineStamp) -> Self {
        CheckpointStamp {
            index,
            at_micros,
            events,
            chained,
            rng_state: es.rng_state,
            scheduled: es.scheduled,
            pending: es.pending,
            timers_armed: es.timers_armed,
            stats_digest: es.stats_digest,
            node_digest: es.node_digest,
            active_nodes: es.active_nodes,
        }
    }

    /// Checks a freshly replayed boundary against this witness; returns the
    /// first mismatching field's name.
    fn check(&self, es: &EngineStamp, events: u64, chained: u64) -> Result<(), &'static str> {
        if es.now_micros != self.at_micros {
            return Err("now_micros");
        }
        if events != self.events {
            return Err("events");
        }
        if chained != self.chained {
            return Err("chained");
        }
        if es.rng_state != self.rng_state {
            return Err("rng_state");
        }
        if es.scheduled != self.scheduled {
            return Err("scheduled");
        }
        if es.pending != self.pending {
            return Err("pending");
        }
        if es.timers_armed != self.timers_armed {
            return Err("timers_armed");
        }
        if es.stats_digest != self.stats_digest {
            return Err("stats_digest");
        }
        if es.node_digest != self.node_digest {
            return Err("node_digest");
        }
        if es.active_nodes != self.active_nodes {
            return Err("active_nodes");
        }
        Ok(())
    }
}

/// A versioned, checksummed sequence of checkpoint witnesses for one trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Fingerprint of the generative inputs (config, spec, faults).
    pub fingerprint: u64,
    /// Checkpoint interval in virtual microseconds.
    pub interval_micros: u64,
    /// The trial horizon (`sim_duration`) in virtual microseconds.
    pub horizon_micros: u64,
    /// Witnesses in boundary order; the last one sits at the horizon.
    pub stamps: Vec<CheckpointStamp>,
}

impl Snapshot {
    /// Serializes to the binary snapshot format: magic, version, header,
    /// fixed-layout stamps, trailing FNV-64 checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48 + self.stamps.len() * 96);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&self.interval_micros.to_le_bytes());
        out.extend_from_slice(&self.horizon_micros.to_le_bytes());
        out.extend_from_slice(&(self.stamps.len() as u64).to_le_bytes());
        for s in &self.stamps {
            out.extend_from_slice(&s.index.to_le_bytes());
            out.extend_from_slice(&s.at_micros.to_le_bytes());
            out.extend_from_slice(&s.events.to_le_bytes());
            out.extend_from_slice(&s.chained.to_le_bytes());
            for w in s.rng_state {
                out.extend_from_slice(&w.to_le_bytes());
            }
            out.extend_from_slice(&s.scheduled.to_le_bytes());
            out.extend_from_slice(&s.pending.to_le_bytes());
            out.extend_from_slice(&s.timers_armed.to_le_bytes());
            out.extend_from_slice(&s.stats_digest.to_le_bytes());
            out.extend_from_slice(&s.node_digest.to_le_bytes());
            out.extend_from_slice(&s.active_nodes.to_le_bytes());
        }
        let checksum = fnv64_continue(FNV_OFFSET, &out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Deserializes, verifying magic, version, and checksum.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < MAGIC.len() + 4 + 8 * 4 + 8 {
            return Err(SnapshotError::TooShort { len: bytes.len() });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().unwrap());
        let computed = fnv64_continue(FNV_OFFSET, body);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let mut pos = 0usize;
        if take(body, &mut pos, MAGIC.len(), "magic")? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(take(body, &mut pos, 4, "version")?.try_into().unwrap());
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let fingerprint = u64_at(body, &mut pos, "fingerprint")?;
        let interval_micros = u64_at(body, &mut pos, "interval")?;
        let horizon_micros = u64_at(body, &mut pos, "horizon")?;
        let count = u64_at(body, &mut pos, "stamp count")? as usize;
        let mut stamps = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let index = u32::from_le_bytes(take(body, &mut pos, 4, "index")?.try_into().unwrap());
            let at_micros = u64_at(body, &mut pos, "at")?;
            let events = u64_at(body, &mut pos, "events")?;
            let chained = u64_at(body, &mut pos, "chained")?;
            let mut rng_state = [0u64; 4];
            for w in &mut rng_state {
                *w = u64_at(body, &mut pos, "rng state")?;
            }
            let scheduled = u64_at(body, &mut pos, "scheduled")?;
            let pending = u64_at(body, &mut pos, "pending")?;
            let timers_armed = u64_at(body, &mut pos, "timers armed")?;
            let stats_digest = u64_at(body, &mut pos, "stats digest")?;
            let node_digest = u64_at(body, &mut pos, "node digest")?;
            let active_nodes =
                u32::from_le_bytes(take(body, &mut pos, 4, "active nodes")?.try_into().unwrap());
            stamps.push(CheckpointStamp {
                index,
                at_micros,
                events,
                chained,
                rng_state,
                scheduled,
                pending,
                timers_armed,
                stats_digest,
                node_digest,
                active_nodes,
            });
        }
        if pos != body.len() {
            return Err(SnapshotError::TrailingBytes {
                extra: body.len() - pos,
            });
        }
        Ok(Snapshot {
            fingerprint,
            interval_micros,
            horizon_micros,
            stamps,
        })
    }
}

/// Why a binary snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the fixed header + checksum require.
    TooShort {
        /// Actual byte length of the input.
        len: usize,
    },
    /// The trailing FNV-64 checksum does not match the body.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum computed over the body.
        computed: u64,
    },
    /// The file does not start with the `BDPSNAP` magic.
    BadMagic,
    /// The version field names a format this build cannot read.
    UnsupportedVersion(u32),
    /// The body ended in the middle of a field.
    Truncated {
        /// Which field was being read.
        what: &'static str,
        /// Byte offset where the read started.
        offset: usize,
    },
    /// Bytes remain after the declared stamp count was read.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::TooShort { len } => {
                write!(f, "snapshot too short for header: {len} bytes")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::BadMagic => write!(f, "bad snapshot magic"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Truncated { what, offset } => {
                write!(f, "snapshot truncated reading {what} at offset {offset}")
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after snapshot stamps")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

fn take<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    n: usize,
    what: &'static str,
) -> Result<&'a [u8], SnapshotError> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= buf.len())
        .ok_or(SnapshotError::Truncated { what, offset: *pos })?;
    let slice = &buf[*pos..end];
    *pos = end;
    Ok(slice)
}

fn u64_at(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u64, SnapshotError> {
    Ok(u64::from_le_bytes(
        take(buf, pos, 8, what)?.try_into().unwrap(),
    ))
}

/// Fingerprints a trial's generative inputs.
///
/// Config, spec, and fault plan fully determine a trial, so their debug
/// renderings (stable, total, derive-generated) make a sound identity: a
/// snapshot only ever resumes the exact trial that produced it.
pub fn trial_fingerprint(cfg: &ScenarioConfig, spec: &TrialSpec, faults: &FaultSpec) -> u64 {
    // The execution backend and neighbor index are throughput knobs that
    // cannot change a single output byte, so they are normalized out of the
    // fingerprint: a snapshot recorded under the serial backend must resume
    // under a sharded one and vice versa.
    let mut cfg = cfg.clone();
    cfg.backend = blackdp_sim::WorldBackend::Serial;
    cfg.neighbor_index = blackdp_sim::NeighborIndex::Grid;
    let cfg = &cfg;
    let mut h = fnv64_continue(FNV_OFFSET, format!("{cfg:?}").as_bytes());
    h = fnv64_continue(h, b"|");
    h = fnv64_continue(h, format!("{spec:?}").as_bytes());
    h = fnv64_continue(h, b"|");
    fnv64_continue(h, format!("{faults:?}").as_bytes())
}

/// The checkpoint boundary schedule: every `interval` up to the horizon,
/// with the horizon itself always the final boundary.
fn boundaries(interval_micros: u64, horizon_micros: u64) -> Vec<u64> {
    let step = interval_micros.max(1);
    let mut out = Vec::new();
    let mut t = step;
    while t < horizon_micros {
        out.push(t);
        t += step;
    }
    out.push(horizon_micros);
    out
}

/// Builds the scenario exactly as [`crate::record_trial`] does, journal
/// attached and false-suspicion staging applied, ready to step.
fn build_for_stepping(
    cfg: &ScenarioConfig,
    spec: &TrialSpec,
    faults: &FaultSpec,
) -> (BuiltScenario, JournalHandle) {
    let mut built = build_scenario(cfg, spec);
    let plan = faults.realize(cfg, &built);
    if !plan.is_empty() {
        built.world.install_faults(plan);
    }
    let journal = attach_journal(&mut built);
    stage_false_suspicion(&mut built, spec);
    (built, journal)
}

/// Advances the world to boundary `t` and folds the new journal entries
/// into the running chain; returns the updated (seen, chained) cursor.
fn step_to(
    built: &mut BuiltScenario,
    journal: &JournalHandle,
    t: u64,
    mut seen: usize,
    mut chained: u64,
) -> (usize, u64) {
    built.world.run_until(Time::ZERO + Duration::from_micros(t));
    let j = journal.borrow();
    let entries = j.entries();
    for e in &entries[seen..] {
        chained = chain_event(chained, &entry_to_event(e));
    }
    seen = entries.len();
    (seen, chained)
}

/// Runs one trial capturing a checkpoint witness every `interval` of
/// virtual time, returning the outcome, the full trace, and the snapshot.
///
/// The outcome and trace are bit-identical to [`crate::record_trial`] on
/// the same inputs — interval stepping is observationally free.
pub fn record_trial_with_checkpoints(
    cfg: &ScenarioConfig,
    spec: &TrialSpec,
    faults: &FaultSpec,
    interval: Duration,
) -> (TrialOutcome, Vec<TraceEvent>, Snapshot) {
    let horizon = cfg.sim_duration.as_micros();
    let (mut built, journal) = build_for_stepping(cfg, spec, faults);
    let mut stamps = Vec::new();
    let mut seen = 0usize;
    let mut chained = FNV_OFFSET;
    for (i, &t) in boundaries(interval.as_micros(), horizon).iter().enumerate() {
        (seen, chained) = step_to(&mut built, &journal, t, seen, chained);
        let es = built.world.engine_stamp();
        stamps.push(CheckpointStamp::from_engine(
            i as u32, t, seen as u64, chained, &es,
        ));
    }
    let outcome = harvest(cfg, spec, &built);
    let events = journal.borrow().entries().iter().map(entry_to_event).collect();
    let snapshot = Snapshot {
        fingerprint: trial_fingerprint(cfg, spec, faults),
        interval_micros: interval.as_micros(),
        horizon_micros: horizon,
        stamps,
    };
    (outcome, events, snapshot)
}

/// The latest checkpoint at or before `at_micros`, if any.
pub fn nearest_checkpoint(snapshot: &Snapshot, at_micros: u64) -> Option<usize> {
    snapshot
        .stamps
        .iter()
        .rposition(|s| s.at_micros <= at_micros)
}

/// Why a resume attempt was refused or failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The snapshot was recorded for different generative inputs.
    FingerprintMismatch {
        /// Fingerprint stored in the snapshot.
        snapshot: u64,
        /// Fingerprint of the inputs offered for resume.
        inputs: u64,
    },
    /// The requested checkpoint index does not exist.
    NoSuchCheckpoint {
        /// The index asked for.
        requested: usize,
        /// How many stamps the snapshot holds.
        available: usize,
    },
    /// The snapshot's horizon disagrees with the config's `sim_duration`.
    HorizonMismatch {
        /// Horizon stored in the snapshot, microseconds.
        snapshot: u64,
        /// `sim_duration` of the config offered, microseconds.
        config: u64,
    },
    /// Replay to a checkpoint boundary did not reproduce its witness.
    Diverged {
        /// Index of the first failing checkpoint.
        checkpoint: u32,
        /// The boundary's virtual time in microseconds.
        at_micros: u64,
        /// The first witness field that mismatched.
        field: &'static str,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::FingerprintMismatch { snapshot, inputs } => write!(
                f,
                "snapshot fingerprint {snapshot:#018x} does not match inputs {inputs:#018x}"
            ),
            ResumeError::NoSuchCheckpoint {
                requested,
                available,
            } => write!(
                f,
                "checkpoint {requested} requested but snapshot has {available}"
            ),
            ResumeError::HorizonMismatch { snapshot, config } => write!(
                f,
                "snapshot horizon {snapshot}us does not match config sim_duration {config}us"
            ),
            ResumeError::Diverged {
                checkpoint,
                at_micros,
                field,
            } => write!(
                f,
                "replay diverged from checkpoint {checkpoint} (t={at_micros}us): field {field}"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Resumes a trial from checkpoint `from` of `snapshot` and runs it to the
/// horizon, returning the outcome and the *full* trace (prefix included).
///
/// The world is rebuilt from the generative inputs and replayed to the
/// checkpoint boundary with the identical stepping procedure the recorder
/// used; every witness up to and including `from` is verified on the way,
/// so corruption or nondeterminism surfaces as [`ResumeError::Diverged`]
/// instead of silently wrong results. The returned outcome and trace are
/// bit-identical to the uninterrupted run.
pub fn resume_trial(
    cfg: &ScenarioConfig,
    spec: &TrialSpec,
    faults: &FaultSpec,
    snapshot: &Snapshot,
    from: usize,
) -> Result<(TrialOutcome, Vec<TraceEvent>), ResumeError> {
    let inputs = trial_fingerprint(cfg, spec, faults);
    if inputs != snapshot.fingerprint {
        return Err(ResumeError::FingerprintMismatch {
            snapshot: snapshot.fingerprint,
            inputs,
        });
    }
    if from >= snapshot.stamps.len() {
        return Err(ResumeError::NoSuchCheckpoint {
            requested: from,
            available: snapshot.stamps.len(),
        });
    }
    let horizon = cfg.sim_duration.as_micros();
    if snapshot.horizon_micros != horizon {
        return Err(ResumeError::HorizonMismatch {
            snapshot: snapshot.horizon_micros,
            config: horizon,
        });
    }
    let (mut built, journal) = build_for_stepping(cfg, spec, faults);
    let mut seen = 0usize;
    let mut chained = FNV_OFFSET;
    for (i, &t) in boundaries(snapshot.interval_micros, horizon)
        .iter()
        .enumerate()
    {
        (seen, chained) = step_to(&mut built, &journal, t, seen, chained);
        if i <= from {
            let stamp = &snapshot.stamps[i];
            let es = built.world.engine_stamp();
            if let Err(field) = stamp.check(&es, seen as u64, chained) {
                return Err(ResumeError::Diverged {
                    checkpoint: stamp.index,
                    at_micros: t,
                    field,
                });
            }
        }
    }
    let outcome = harvest(cfg, spec, &built);
    let events = journal.borrow().entries().iter().map(entry_to_event).collect();
    Ok((outcome, events))
}

/// Diffs a recorded trace against a fresh replay, bisecting from the
/// snapshot's checkpoints instead of scanning from t = 0.
///
/// The fresh run re-captures stamps at the snapshot's interval; comparing
/// per-stamp `(events, chained)` pairs locates the first divergent
/// checkpoint window in O(#checkpoints), and only that window is diffed
/// event-by-event. Returns `Ok(None)` when the replay is bit-identical;
/// the reported [`Divergence::index`] is a global trace index, so the
/// result agrees exactly with a full [`diff_traces`] scan.
pub fn bisect_divergence(
    cfg: &ScenarioConfig,
    spec: &TrialSpec,
    faults: &FaultSpec,
    snapshot: &Snapshot,
    recorded: &[TraceEvent],
) -> Result<Option<Divergence>, ResumeError> {
    let inputs = trial_fingerprint(cfg, spec, faults);
    if inputs != snapshot.fingerprint {
        return Err(ResumeError::FingerprintMismatch {
            snapshot: snapshot.fingerprint,
            inputs,
        });
    }
    let interval = Duration::from_micros(snapshot.interval_micros);
    let (_, fresh, fresh_snap) = record_trial_with_checkpoints(cfg, spec, faults, interval);

    // Walk the fresh run's checkpoint witnesses, chaining the recorded
    // trace's own prefix alongside: the first boundary where the pair
    // disagrees bounds the divergent window from above, the previous one
    // from below.
    let mut window_start = 0usize;
    let mut window_end = None;
    let mut rec_seen = 0usize;
    let mut rec_chain = FNV_OFFSET;
    for stamp in &fresh_snap.stamps {
        while rec_seen < recorded.len() && recorded[rec_seen].at_micros <= stamp.at_micros {
            rec_chain = chain_event(rec_chain, &recorded[rec_seen]);
            rec_seen += 1;
        }
        if rec_seen as u64 == stamp.events && rec_chain == stamp.chained {
            window_start = rec_seen;
        } else {
            window_end = Some((rec_seen as u64).max(stamp.events) as usize);
            break;
        }
    }
    let Some(end) = window_end else {
        // Every boundary witness matched. The last boundary sits at the
        // horizon, so both traces are chain-equal in full; a length
        // mismatch can only mean events past the horizon — fall back to
        // the plain scan rather than miss them.
        if recorded.len() != fresh.len() {
            return Ok(diff_traces(recorded, &fresh));
        }
        return Ok(None);
    };
    let rec_slice = &recorded[window_start..recorded.len().min(end).max(window_start)];
    let fresh_slice = &fresh[window_start..fresh.len().min(end).max(window_start)];
    match diff_traces(rec_slice, fresh_slice) {
        Some(mut d) => {
            d.index += window_start;
            Ok(Some(d))
        }
        // A chain collision inside the window would land here; the plain
        // scan is the authoritative fallback.
        None => Ok(diff_traces(recorded, &fresh)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_trial;
    use crate::FuzzCase;

    fn quick_case() -> FuzzCase {
        let mut c = FuzzCase::baseline(7);
        c.sim_secs = 8;
        c.vehicles = 18;
        c
    }

    #[test]
    fn boundary_schedule_always_ends_at_horizon() {
        assert_eq!(boundaries(1_000_000, 3_000_000), vec![1_000_000, 2_000_000, 3_000_000]);
        assert_eq!(boundaries(2_000_000, 5_000_000), vec![2_000_000, 4_000_000, 5_000_000]);
        assert_eq!(boundaries(10_000_000, 5_000_000), vec![5_000_000]);
        assert_eq!(boundaries(0, 3), vec![1, 2, 3]);
    }

    #[test]
    fn snapshot_encode_decode_round_trips() {
        let stamp = |i: u32| CheckpointStamp {
            index: i,
            at_micros: u64::from(i) * 1_000_000,
            events: u64::from(i) * 37,
            chained: 0xDEAD_0000 + u64::from(i),
            rng_state: [1, 2, 3, u64::from(i)],
            scheduled: 100 + u64::from(i),
            pending: 5,
            timers_armed: 40 + u64::from(i),
            stats_digest: 0xAA55 + u64::from(i),
            node_digest: 0x55AA + u64::from(i),
            active_nodes: 30 - i,
        };
        let snap = Snapshot {
            fingerprint: 0x1234_5678_9ABC_DEF0,
            interval_micros: 1_000_000,
            horizon_micros: 4_000_000,
            stamps: (0..4).map(stamp).collect(),
        };
        let bytes = snap.encode();
        assert_eq!(Snapshot::decode(&bytes).unwrap(), snap);

        let empty = Snapshot {
            fingerprint: 1,
            interval_micros: 2,
            horizon_micros: 3,
            stamps: vec![],
        };
        assert_eq!(Snapshot::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn snapshot_decode_rejects_corruption() {
        let snap = Snapshot {
            fingerprint: 9,
            interval_micros: 1,
            horizon_micros: 2,
            stamps: vec![CheckpointStamp {
                index: 0,
                at_micros: 2,
                events: 3,
                chained: 4,
                rng_state: [5, 6, 7, 8],
                scheduled: 9,
                pending: 0,
                timers_armed: 1,
                stats_digest: 2,
                node_digest: 3,
                active_nodes: 4,
            }],
        };
        let mut bytes = snap.encode();
        bytes[20] ^= 0x01;
        assert!(matches!(
            Snapshot::decode(&bytes).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));
        assert!(matches!(
            Snapshot::decode(&bytes[..8]).unwrap_err(),
            SnapshotError::TooShort { .. }
        ));
    }

    #[test]
    fn fingerprint_separates_inputs() {
        let c = quick_case();
        let mut other = c.clone();
        other.seed += 1;
        let f1 = trial_fingerprint(&c.config(), &c.spec(), &c.faults());
        let f2 = trial_fingerprint(&other.config(), &other.spec(), &other.faults());
        assert_ne!(f1, f2);
        assert_eq!(f1, trial_fingerprint(&c.config(), &c.spec(), &c.faults()));
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_resumes() {
        let case = quick_case();
        let (cfg, spec, faults) = (case.config(), case.spec(), case.faults());
        let (plain_outcome, plain_events) = record_trial(&cfg, &spec, &faults);
        let interval = Duration::from_micros(cfg.sim_duration.as_micros() / 3);
        let (outcome, events, snapshot) =
            record_trial_with_checkpoints(&cfg, &spec, &faults, interval);
        assert_eq!(outcome, plain_outcome);
        assert_eq!(events, plain_events);
        assert_eq!(snapshot.stamps.last().unwrap().events as usize, events.len());

        let mid = nearest_checkpoint(&snapshot, cfg.sim_duration.as_micros() / 2).unwrap();
        let (resumed_outcome, resumed_events) =
            resume_trial(&cfg, &spec, &faults, &snapshot, mid).unwrap();
        assert_eq!(resumed_outcome, plain_outcome);
        assert_eq!(resumed_events, plain_events);
    }

    #[test]
    fn resume_refuses_foreign_inputs_and_bad_indices() {
        let case = quick_case();
        let (cfg, spec, faults) = (case.config(), case.spec(), case.faults());
        let interval = Duration::from_micros(cfg.sim_duration.as_micros() / 2);
        let (_, _, snapshot) = record_trial_with_checkpoints(&cfg, &spec, &faults, interval);

        let mut other = case.clone();
        other.seed ^= 0xFFFF;
        assert!(matches!(
            resume_trial(&other.config(), &other.spec(), &other.faults(), &snapshot, 0),
            Err(ResumeError::FingerprintMismatch { .. })
        ));
        assert!(matches!(
            resume_trial(&cfg, &spec, &faults, &snapshot, 99),
            Err(ResumeError::NoSuchCheckpoint { .. })
        ));

        let mut tampered = snapshot.clone();
        tampered.stamps[0].chained ^= 1;
        assert!(matches!(
            resume_trial(&cfg, &spec, &faults, &tampered, 0),
            Err(ResumeError::Diverged {
                checkpoint: 0,
                field: "chained",
                ..
            })
        ));
    }

    #[test]
    fn bisect_agrees_with_full_diff() {
        let case = quick_case();
        let (cfg, spec, faults) = (case.config(), case.spec(), case.faults());
        let interval = Duration::from_micros(cfg.sim_duration.as_micros() / 4);
        let (_, events, snapshot) = record_trial_with_checkpoints(&cfg, &spec, &faults, interval);

        // Identical replay: no divergence either way.
        assert!(bisect_divergence(&cfg, &spec, &faults, &snapshot, &events)
            .unwrap()
            .is_none());

        // Tamper an event deep in the trace: bisect must report the same
        // global index the full scan does.
        let mut tampered = events.clone();
        let idx = tampered.len() * 3 / 4;
        tampered[idx].digest ^= 1;
        let full = diff_traces(&tampered, &events).unwrap();
        // The recorded trace's own prefix witnesses no longer match from
        // the tampered point on, so we must recompute stamps for it; use
        // the original snapshot (witnesses the *events* trace) and feed
        // the tampered trace as "recorded".
        let bisected = bisect_divergence(&cfg, &spec, &faults, &snapshot, &tampered)
            .unwrap()
            .unwrap();
        assert_eq!(bisected.index, full.index);
        assert_eq!(bisected.expected, full.expected);
        assert_eq!(bisected.actual, full.actual);
    }
}
