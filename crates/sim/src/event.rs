//! The pending-event queue at the heart of the discrete-event engine.
//!
//! Layout: the [`BinaryHeap`] orders 24-byte [`HeapEntry`] keys while the
//! payloads — [`Occurrence`]s, which inline the protocol's packet type and
//! can run to hundreds of bytes — live in a generation-indexed slab
//! indexed by the key. Heap sifts therefore move small fixed-size keys
//! instead of whole payloads, and a payload is moved exactly twice: into
//! its slab slot on push and out on pop. Both the heap and the slab
//! recycle their storage (the slab through an intrusive free list), so
//! once a run reaches its high-water mark the queue performs **zero**
//! allocations per event — the property the perf harness probes.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{NodeId, Time};

/// Identifies a scheduled timer so it can be cancelled.
///
/// Returned by [`Context::set_timer`](crate::Context::set_timer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// Returns the raw id, unique within one world.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// The transmission channel a packet travelled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Over-the-air DSRC radio (subject to range and loss).
    Radio,
    /// The high-speed wired backbone linking RSUs and trusted authorities.
    Wired,
}

/// An occurrence scheduled for a particular node.
#[derive(Debug, Clone)]
pub(crate) enum Occurrence<P, T> {
    /// A packet arrives at `to`.
    Deliver {
        from: NodeId,
        payload: P,
        channel: Channel,
    },
    /// A timer set by the node fires.
    Timer { id: TimerId, token: T },
}

#[derive(Debug)]
pub(crate) struct Scheduled<P, T> {
    pub time: Time,
    /// Insertion sequence (FIFO tiebreak); carried out of the queue so
    /// ordering tests can assert on it directly.
    #[cfg_attr(not(test), allow(dead_code))]
    pub seq: u64,
    pub node: NodeId,
    pub occurrence: Occurrence<P, T>,
}

/// The heap's ordering key: virtual time, tie-broken FIFO by insertion
/// sequence, plus the slab coordinates of the payload.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: Time,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    /// Reversed so the `BinaryHeap` (a max-heap) pops the *earliest* event.
    /// The insertion sequence number breaks ties, making same-instant events
    /// FIFO and runs deterministic.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Free-list terminator for the slab.
const NIL: u32 = u32::MAX;

/// One slab slot: an occupied slot owns a scheduled occurrence; a vacant
/// slot threads the free list. The generation counter increments on every
/// vacate, so a stale heap key can never alias a recycled slot unnoticed
/// (checked in debug builds).
#[derive(Debug)]
struct SlabSlot<P, T> {
    gen: u32,
    next_free: u32,
    occupant: Option<(NodeId, Occurrence<P, T>)>,
}

/// A deterministic future-event list.
#[derive(Debug)]
pub(crate) struct EventQueue<P, T> {
    heap: BinaryHeap<HeapEntry>,
    slab: Vec<SlabSlot<P, T>>,
    free_head: u32,
    next_seq: u64,
}

impl<P, T> EventQueue<P, T> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free_head: NIL,
            next_seq: 0,
        }
    }

    pub fn push(&mut self, time: Time, node: NodeId, occurrence: Occurrence<P, T>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = if self.free_head != NIL {
            let idx = self.free_head;
            let s = &mut self.slab[idx as usize];
            self.free_head = s.next_free;
            s.occupant = Some((node, occurrence));
            idx
        } else {
            let idx = u32::try_from(self.slab.len()).expect("event slab exceeds u32 slots");
            assert_ne!(idx, NIL, "event slab exceeds u32 slots");
            self.slab.push(SlabSlot {
                gen: 0,
                next_free: NIL,
                occupant: Some((node, occurrence)),
            });
            idx
        };
        let gen = self.slab[slot as usize].gen;
        self.heap.push(HeapEntry {
            time,
            seq,
            slot,
            gen,
        });
    }

    pub fn pop(&mut self) -> Option<Scheduled<P, T>> {
        let entry = self.heap.pop()?;
        let s = &mut self.slab[entry.slot as usize];
        debug_assert_eq!(s.gen, entry.gen, "heap key aliases a recycled slab slot");
        let (node, occurrence) = s
            .occupant
            .take()
            .expect("heap key points at a vacant slab slot");
        s.gen = s.gen.wrapping_add(1);
        s.next_free = self.free_head;
        self.free_head = entry.slot;
        Some(Scheduled {
            time: entry.time,
            seq: entry.seq,
            node,
            occurrence,
        })
    }

    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.time)
    }

    /// Total events ever pushed (the next insertion sequence number). Two
    /// runs that agree on this at the same virtual time scheduled exactly
    /// as many occurrences — part of the checkpoint engine stamp.
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[allow(dead_code)] // symmetry with len(); exercised in tests
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Slab slots ever created — the queue's high-water mark. Steady-state
    /// traffic recycles these; the perf harness asserts the mark stops
    /// growing once a workload reaches its plateau.
    pub fn slab_capacity(&self) -> usize {
        self.slab.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(n: u32) -> Occurrence<u32, ()> {
        Occurrence::Deliver {
            from: NodeId::new(0),
            payload: n,
            channel: Channel::Radio,
        }
    }

    fn payload(occ: Occurrence<u32, ()>) -> u32 {
        match occ {
            Occurrence::Deliver { payload, .. } => payload,
            Occurrence::Timer { .. } => panic!("expected a delivery"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<u32, ()> = EventQueue::new();
        q.push(Time::from_secs(3), NodeId::new(1), deliver(3));
        q.push(Time::from_secs(1), NodeId::new(1), deliver(1));
        q.push(Time::from_secs(2), NodeId::new(1), deliver(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|s| payload(s.occurrence))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_events_are_fifo() {
        let mut q: EventQueue<u32, ()> = EventQueue::new();
        let t = Time::from_secs(1);
        for i in 0..100 {
            q.push(t, NodeId::new(0), deliver(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|s| payload(s.occurrence))
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q: EventQueue<u32, ()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_secs(5), NodeId::new(0), deliver(0));
        q.push(Time::from_secs(2), NodeId::new(0), deliver(0));
        assert_eq!(q.peek_time(), Some(Time::from_secs(2)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn slab_recycles_slots_in_steady_state() {
        let mut q: EventQueue<u32, ()> = EventQueue::new();
        // Plateau at 8 pending events, then churn 1000 push/pop rounds.
        for i in 0..8 {
            q.push(Time::from_millis(i), NodeId::new(0), deliver(i as u32));
        }
        let mark = q.slab_capacity();
        for i in 8..1000 {
            let popped = q.pop().expect("queue holds events");
            assert_eq!(u64::from(payload(popped.occurrence)), i - 8);
            q.push(Time::from_millis(i), NodeId::new(0), deliver(i as u32));
        }
        assert_eq!(
            q.slab_capacity(),
            mark,
            "steady-state churn must not grow the slab"
        );
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn interleaved_order_survives_recycling() {
        // Pops and pushes interleave so slots recycle while the heap still
        // holds live keys; time order and FIFO ties must be preserved.
        let mut q: EventQueue<u32, ()> = EventQueue::new();
        let mut expected = Vec::new();
        for round in 0u64..50 {
            for k in 0..3 {
                let t = Time::from_millis(round * 2 + k % 2);
                q.push(t, NodeId::new(0), deliver((round * 3 + k) as u32));
            }
            let s = q.pop().expect("queue holds events");
            expected.push((s.time, s.seq));
        }
        let mut rest: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
            .map(|s| (s.time, s.seq))
            .collect();
        expected.append(&mut rest);
        let mut sorted = expected.clone();
        sorted.sort();
        assert_eq!(expected, sorted, "pop order must be (time, seq) sorted");
    }
}
