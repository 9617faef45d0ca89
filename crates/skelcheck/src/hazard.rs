//! Buffer-level race detection over recorded command timelines.
//!
//! The detector reconstructs the **happens-before** relation of a
//! [`CommandRecord`] trace and flags every pair of commands that touches
//! overlapping bytes of one device allocation — with at least one side
//! writing — while being *unordered* by that relation. Such a pair is a
//! scheduling hazard: the virtual timeline happened to order the two
//! commands this run, but nothing forced it to, so a future scheduling
//! change (more devices, different chunk sizes, a faster copy engine) can
//! flip the order and corrupt data.
//!
//! # The happens-before model
//!
//! `A → B` (A happens-before B) iff one of:
//!
//! 1. **Program order**: A and B were enqueued on the same in-order stream
//!    and A came first.
//! 2. **Explicit dependency**: B was enqueued with `After::Events` naming
//!    A's event (`B.deps` contains `A.seq`).
//! 3. **Device serialization**: B is a *serializing* (`After::Device`)
//!    command and A was scheduled earlier on any engine of a device B
//!    occupies — including markers, which join everything prior on their
//!    device.
//! 4. **Host synchronization**: A ended at or before a point the host
//!    observably waited for (blocking read, `finish`, `sync_all`) and B was
//!    enqueued after that wait (`A.end_s <= B.host_sync_s`).
//!
//! and transitive closures thereof. Deliberately **not** an edge:
//! engine-availability serialization (two async commands sharing one
//! engine). That ordering is incidental — depending on it is exactly the
//! bug class this detector exists to catch.
//!
//! Reachability is tracked incrementally with per-node ancestor bitsets:
//! pushing a record group ORs together the ancestor sets of its incoming
//! edges, so a hazard query is a single bit test. The same incremental core
//! serves the batch checker ([`find_buffer_hazards`]) and the online
//! observer ([`OnlineHazardChecker`]).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use vgpu::{BufferId, CmdKind, CommandObserver, CommandRecord, DeviceId};

/// Dense bitset over node indices; join (`|=`) is the transitive-closure
/// step of the incremental reachability computation.
#[derive(Debug, Clone, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn set(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (i % 64);
    }

    fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    fn or_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }
}

/// The hazard classes, named for the second command's access relative to
/// the first's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HazardKind {
    /// Read-after-write without ordering: the reader may see stale data.
    Raw,
    /// Write-after-read without ordering: the write may clobber data the
    /// reader still needs.
    War,
    /// Write-after-write without ordering: the final contents depend on
    /// scheduling luck.
    Waw,
}

impl fmt::Display for HazardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HazardKind::Raw => "RAW",
            HazardKind::War => "WAR",
            HazardKind::Waw => "WAW",
        })
    }
}

/// Identifies one command of a reported hazard.
#[derive(Debug, Clone, PartialEq)]
pub struct CmdRef {
    pub seq: u64,
    pub device: DeviceId,
    pub kind: CmdKind,
    pub label: String,
    pub start_s: f64,
    pub end_s: f64,
}

impl CmdRef {
    fn of(rec: &CommandRecord) -> Self {
        CmdRef {
            seq: rec.seq,
            device: rec.device,
            kind: rec.kind,
            label: rec.label.clone(),
            start_s: rec.start_s,
            end_s: rec.end_s,
        }
    }
}

impl fmt::Display for CmdRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {:?} \"{}\" on {} [{:.6e}, {:.6e}]",
            self.seq, self.kind, self.label, self.device, self.start_s, self.end_s
        )
    }
}

/// One unordered conflicting pair: `first` was pushed before `second`, both
/// touch `[lo, hi)` of `buffer`, at least one writes, and neither
/// happens-before the other.
#[derive(Debug, Clone, PartialEq)]
pub struct Hazard {
    pub kind: HazardKind,
    pub buffer: BufferId,
    /// The overlapping byte window of the two accesses.
    pub lo: u64,
    pub hi: u64,
    pub first: CmdRef,
    pub second: CmdRef,
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hazard on {} bytes [{}, {}): {} is unordered against {}",
            self.kind, self.buffer, self.lo, self.hi, self.second, self.first
        )
    }
}

/// One recorded access by one node, kept per buffer for conflict checks.
#[derive(Debug, Clone, Copy)]
struct PriorAccess {
    node: usize,
    lo: u64,
    hi: u64,
    write: bool,
}

#[derive(Debug, Clone)]
struct Node {
    ancestors: BitSet,
    info: CmdRef,
}

/// Incremental happens-before state. Feed it record groups in enqueue
/// order ([`HazardState::push`]); collected hazards accumulate in
/// [`HazardState::hazards`].
#[derive(Debug, Default)]
pub struct HazardState {
    nodes: Vec<Node>,
    /// Per device: every node that occupied the device, plus its ancestors
    /// — the ancestor set a serializing command on that device inherits.
    device_join: HashMap<DeviceId, BitSet>,
    /// Per stream: index of the last node on that stream.
    stream_last: HashMap<u64, usize>,
    /// `seq` → node index, for resolving explicit dependencies.
    seq_to_node: HashMap<u64, usize>,
    /// Completed nodes not yet absorbed into `host_join`, keyed by end
    /// time (f64 bits — valid order for non-negative times).
    pending_host: Vec<(u64, usize)>,
    /// Everything the host has synchronized with, plus ancestors.
    host_join: BitSet,
    /// Per buffer: all accesses seen so far.
    accesses: HashMap<BufferId, Vec<PriorAccess>>,
    hazards: Vec<Hazard>,
    /// Dedup: (first node, second node, kind, buffer).
    seen: std::collections::HashSet<(usize, usize, HazardKind, BufferId)>,
    /// Record groups (commands) processed.
    commands: u64,
}

impl HazardState {
    pub fn new() -> Self {
        Self::default()
    }

    /// Hazards found so far.
    pub fn hazards(&self) -> &[Hazard] {
        &self.hazards
    }

    /// Number of commands (record groups) processed so far.
    pub fn commands(&self) -> u64 {
        self.commands
    }

    pub fn into_hazards(self) -> Vec<Hazard> {
        self.hazards
    }

    /// Process a run of records in trace order. Consecutive records sharing
    /// one *nonzero* `seq` form a single node (the two engine occupancies
    /// of a cross-device copy); every other record is its own node.
    pub fn push(&mut self, recs: &[CommandRecord]) {
        let mut i = 0;
        while i < recs.len() {
            let mut j = i + 1;
            while j < recs.len() && recs[i].seq != 0 && recs[j].seq == recs[i].seq {
                j += 1;
            }
            self.push_node(&recs[i..j]);
            i = j;
        }
    }

    fn push_node(&mut self, group: &[CommandRecord]) {
        let idx = self.nodes.len();
        let primary = &group[0];
        self.commands += 1;

        // --- Incoming edges -> ancestor set -------------------------------
        let mut ancestors = BitSet::default();

        // (1) stream program order.
        for rec in group {
            if let Some(s) = rec.stream {
                if let Some(&prev) = self.stream_last.get(&s) {
                    ancestors.set(prev);
                    let prev_anc = self.nodes[prev].ancestors.clone();
                    ancestors.or_with(&prev_anc);
                }
            }
        }

        // (2) explicit event dependencies (seq 0 = "no event", never a dep).
        for rec in group {
            for dep in &rec.deps {
                if let Some(&n) = self.seq_to_node.get(dep) {
                    ancestors.set(n);
                    let dep_anc = self.nodes[n].ancestors.clone();
                    ancestors.or_with(&dep_anc);
                }
            }
        }

        // (3) device serialization: a serializing record joins everything
        // previously scheduled on its device.
        for rec in group {
            if rec.serializing {
                if let Some(join) = self.device_join.get(&rec.device) {
                    ancestors.or_with(&join.clone());
                }
            }
        }

        // (4) host synchronization: absorb every node that ended by this
        // command's host-sync watermark, then join.
        let watermark = primary.host_sync_s;
        if watermark > 0.0 {
            let mut k = 0;
            while k < self.pending_host.len() {
                let (end_bits, n) = self.pending_host[k];
                if f64::from_bits(end_bits) <= watermark {
                    self.host_join.set(n);
                    let anc = self.nodes[n].ancestors.clone();
                    self.host_join.or_with(&anc);
                    self.pending_host.swap_remove(k);
                } else {
                    k += 1;
                }
            }
            ancestors.or_with(&self.host_join.clone());
        }

        // --- Conflict checks ----------------------------------------------
        for rec in group {
            for r in &rec.reads {
                self.check(idx, &ancestors, rec, r.buffer, r.lo, r.hi, false);
            }
            for w in &rec.writes {
                self.check(idx, &ancestors, rec, w.buffer, w.lo, w.hi, true);
            }
        }

        // --- State updates ------------------------------------------------
        for rec in group {
            for r in &rec.reads {
                self.accesses
                    .entry(r.buffer)
                    .or_default()
                    .push(PriorAccess {
                        node: idx,
                        lo: r.lo,
                        hi: r.hi,
                        write: false,
                    });
            }
            for w in &rec.writes {
                self.accesses
                    .entry(w.buffer)
                    .or_default()
                    .push(PriorAccess {
                        node: idx,
                        lo: w.lo,
                        hi: w.hi,
                        write: true,
                    });
            }
        }
        let mut self_set = BitSet::default();
        self_set.set(idx);
        self_set.or_with(&ancestors);
        for rec in group {
            self.device_join
                .entry(rec.device)
                .or_default()
                .or_with(&self_set);
            if let Some(s) = rec.stream {
                self.stream_last.insert(s, idx);
            }
        }
        if primary.seq != 0 {
            self.seq_to_node.insert(primary.seq, idx);
        }
        let end = group.iter().fold(0.0f64, |m, r| m.max(r.end_s));
        self.pending_host.push((end.to_bits(), idx));
        self.nodes.push(Node {
            ancestors,
            info: CmdRef::of(primary),
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn check(
        &mut self,
        idx: usize,
        ancestors: &BitSet,
        rec: &CommandRecord,
        buffer: BufferId,
        lo: u64,
        hi: u64,
        is_write: bool,
    ) {
        let Some(prior) = self.accesses.get(&buffer) else {
            return;
        };
        let mut found: Vec<(usize, HazardKind, u64, u64)> = Vec::new();
        for p in prior {
            if p.node == idx {
                continue; // a node never races itself (e.g. in-place copy)
            }
            if !(is_write || p.write) {
                continue; // read vs read
            }
            if p.lo >= hi || lo >= p.hi {
                continue; // disjoint bytes
            }
            if ancestors.get(p.node) {
                continue; // ordered
            }
            let kind = match (p.write, is_write) {
                (true, false) => HazardKind::Raw,
                (false, true) => HazardKind::War,
                (true, true) => HazardKind::Waw,
                (false, false) => unreachable!(),
            };
            found.push((p.node, kind, p.lo.max(lo), p.hi.min(hi)));
        }
        for (node, kind, olo, ohi) in found {
            if self.seen.insert((node, idx, kind, buffer)) {
                self.hazards.push(Hazard {
                    kind,
                    buffer,
                    lo: olo,
                    hi: ohi,
                    first: self.nodes[node].info.clone(),
                    second: CmdRef::of(rec),
                });
            }
        }
    }
}

/// Run the hazard detector over a complete recorded trace and return every
/// unordered conflicting pair, in discovery order.
pub fn find_buffer_hazards(trace: &[CommandRecord]) -> Vec<Hazard> {
    let mut st = HazardState::new();
    st.push(trace);
    st.into_hazards()
}

/// Invariant-checker form, matching `vgpu::verify_engine_exclusive`: `None`
/// when the trace is hazard-free, otherwise all hazards (one per line).
pub fn verify_no_buffer_hazards(trace: &[CommandRecord]) -> Option<String> {
    let hazards = find_buffer_hazards(trace);
    if hazards.is_empty() {
        None
    } else {
        Some(
            hazards
                .iter()
                .map(|h| h.to_string())
                .collect::<Vec<_>>()
                .join("\n"),
        )
    }
}

/// The online mode: an observer that feeds every scheduled command into an
/// incremental [`HazardState`] as it is enqueued and **panics** on the
/// first hazard — turning a latent scheduling bug into an immediate test
/// failure at the exact enqueue that completed the race.
#[derive(Debug, Default)]
pub struct OnlineHazardChecker {
    state: Mutex<HazardState>,
}

impl OnlineHazardChecker {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Build the observer closure to install via
    /// `Platform::set_command_observer`.
    pub fn observer(self: &Arc<Self>) -> CommandObserver {
        let me = Arc::clone(self);
        Arc::new(move |group: &[CommandRecord]| {
            let mut st = me.state.lock();
            let before = st.hazards().len();
            st.push(group);
            if st.hazards().len() > before {
                let msg = st.hazards()[before..]
                    .iter()
                    .map(|h| h.to_string())
                    .collect::<Vec<_>>()
                    .join("\n");
                drop(st);
                panic!("buffer hazard detected by online checker:\n{msg}");
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::{AccessRange, EngineKind};

    fn kernel(seq: u64, dev: usize, start: f64, end: f64) -> CommandRecord {
        CommandRecord::interval(DeviceId(dev), EngineKind::Compute, start, end).with_seq(seq)
    }

    fn copy(seq: u64, dev: usize, start: f64, end: f64) -> CommandRecord {
        CommandRecord::interval(DeviceId(dev), EngineKind::Copy, start, end).with_seq(seq)
    }

    fn whole(b: u64, bytes: u64) -> AccessRange {
        AccessRange::new(BufferId(b), 0, bytes)
    }

    #[test]
    fn stream_program_order_suppresses_conflicts() {
        let trace = vec![
            copy(1, 0, 0.0, 1.0)
                .on_stream(7)
                .asynchronous()
                .with_writes(vec![whole(1, 64)]),
            kernel(2, 0, 1.0, 2.0)
                .on_stream(7)
                .asynchronous()
                .with_reads(vec![whole(1, 64)]),
        ];
        assert_eq!(verify_no_buffer_hazards(&trace), None);
    }

    #[test]
    fn unordered_writes_are_reported_as_waw() {
        let trace = vec![
            kernel(1, 0, 0.0, 1.0)
                .on_stream(1)
                .asynchronous()
                .with_writes(vec![whole(9, 128)]),
            kernel(2, 0, 0.5, 1.5)
                .on_stream(2)
                .asynchronous()
                .with_writes(vec![whole(9, 128)]),
        ];
        let hazards = find_buffer_hazards(&trace);
        assert_eq!(hazards.len(), 1, "{hazards:?}");
        assert_eq!(hazards[0].kind, HazardKind::Waw);
        assert_eq!(hazards[0].buffer, BufferId(9));
        assert_eq!(hazards[0].first.seq, 1);
        assert_eq!(hazards[0].second.seq, 2);
    }

    #[test]
    fn explicit_event_dependency_orders_across_streams() {
        let trace = vec![
            kernel(1, 0, 0.0, 1.0)
                .on_stream(1)
                .asynchronous()
                .with_writes(vec![whole(3, 32)]),
            kernel(2, 0, 1.0, 2.0)
                .on_stream(2)
                .asynchronous()
                .with_deps(vec![1])
                .with_reads(vec![whole(3, 32)]),
        ];
        assert_eq!(verify_no_buffer_hazards(&trace), None);
    }

    #[test]
    fn a_serializing_command_joins_everything_prior_on_its_device() {
        let trace = vec![
            kernel(1, 0, 0.0, 1.0)
                .on_stream(1)
                .asynchronous()
                .with_writes(vec![whole(3, 32)]),
            // classic blocking-style read: no stream link, no deps, but
            // serializing on the same device.
            copy(2, 0, 1.0, 1.5).with_reads(vec![whole(3, 32)]),
        ];
        assert_eq!(verify_no_buffer_hazards(&trace), None);
        // the same read on ANOTHER device is unordered.
        let cross = vec![
            kernel(1, 0, 0.0, 1.0)
                .on_stream(1)
                .asynchronous()
                .with_writes(vec![whole(3, 32)]),
            copy(2, 1, 1.0, 1.5).with_reads(vec![whole(3, 32)]),
        ];
        assert_eq!(find_buffer_hazards(&cross).len(), 1);
    }

    #[test]
    fn host_synchronization_orders_cross_device_work() {
        // A finished at t=1.0 and the host observably waited for it before
        // enqueueing B (host_sync watermark 1.0).
        let ordered = vec![
            kernel(1, 0, 0.0, 1.0)
                .on_stream(1)
                .asynchronous()
                .with_writes(vec![whole(4, 16)]),
            kernel(2, 1, 1.0, 2.0)
                .on_stream(2)
                .asynchronous()
                .with_host_sync(1.0)
                .with_reads(vec![whole(4, 16)]),
        ];
        assert_eq!(verify_no_buffer_hazards(&ordered), None);
        // same timeline without the host wait: racy.
        let racy = vec![
            kernel(1, 0, 0.0, 1.0)
                .on_stream(1)
                .asynchronous()
                .with_writes(vec![whole(4, 16)]),
            kernel(2, 1, 1.0, 2.0)
                .on_stream(2)
                .asynchronous()
                .with_reads(vec![whole(4, 16)]),
        ];
        let hazards = find_buffer_hazards(&racy);
        assert_eq!(hazards.len(), 1);
        assert_eq!(hazards[0].kind, HazardKind::Raw);
    }

    #[test]
    fn disjoint_byte_ranges_of_one_buffer_do_not_conflict() {
        let trace = vec![
            kernel(1, 0, 0.0, 1.0)
                .on_stream(1)
                .asynchronous()
                .with_writes(vec![AccessRange::new(BufferId(5), 0, 64)]),
            kernel(2, 0, 0.0, 1.0)
                .on_stream(2)
                .asynchronous()
                .with_writes(vec![AccessRange::new(BufferId(5), 64, 128)]),
        ];
        assert_eq!(verify_no_buffer_hazards(&trace), None);
    }

    #[test]
    fn happens_before_is_transitive() {
        let trace = vec![
            kernel(1, 0, 0.0, 1.0)
                .on_stream(1)
                .asynchronous()
                .with_writes(vec![whole(6, 8)]),
            kernel(2, 0, 1.0, 2.0)
                .on_stream(2)
                .asynchronous()
                .with_deps(vec![1]),
            kernel(3, 0, 2.0, 3.0)
                .on_stream(3)
                .asynchronous()
                .with_deps(vec![2])
                .with_reads(vec![whole(6, 8)]),
        ];
        assert_eq!(verify_no_buffer_hazards(&trace), None);
    }

    #[test]
    fn cross_device_copy_records_form_one_node() {
        // A cross-device copy emits two records under one seq; a dependent
        // consumer must be ordered against the *pair*, and the pair must
        // not race itself.
        let trace = vec![
            copy(1, 0, 0.0, 1.0)
                .asynchronous()
                .on_stream(1)
                .with_reads(vec![whole(1, 64)])
                .with_writes(vec![whole(2, 64)]),
            copy(1, 1, 0.0, 1.0).asynchronous().on_stream(1),
            kernel(2, 1, 1.0, 2.0)
                .on_stream(2)
                .asynchronous()
                .with_deps(vec![1])
                .with_reads(vec![whole(2, 64)]),
        ];
        assert_eq!(verify_no_buffer_hazards(&trace), None);
    }

    #[test]
    fn war_is_distinguished_from_raw() {
        let trace = vec![
            kernel(1, 0, 0.0, 1.0)
                .on_stream(1)
                .asynchronous()
                .with_reads(vec![whole(2, 32)]),
            copy(2, 0, 0.5, 1.5)
                .on_stream(2)
                .asynchronous()
                .with_writes(vec![whole(2, 32)]),
        ];
        let hazards = find_buffer_hazards(&trace);
        assert_eq!(hazards.len(), 1);
        assert_eq!(hazards[0].kind, HazardKind::War);
    }

    #[test]
    fn incremental_push_matches_batch_results() {
        let trace = vec![
            kernel(1, 0, 0.0, 1.0)
                .on_stream(1)
                .asynchronous()
                .with_writes(vec![whole(9, 128)]),
            kernel(2, 0, 0.5, 1.5)
                .on_stream(2)
                .asynchronous()
                .with_writes(vec![whole(9, 128)]),
        ];
        let mut st = HazardState::new();
        for r in &trace {
            st.push(std::slice::from_ref(r));
        }
        assert_eq!(st.hazards().len(), find_buffer_hazards(&trace).len());
        assert_eq!(st.commands(), 2);
    }

    #[test]
    fn online_checker_panics_at_the_racy_enqueue() {
        let checker = OnlineHazardChecker::new();
        let obs = checker.observer();
        obs(&[kernel(1, 0, 0.0, 1.0)
            .on_stream(1)
            .asynchronous()
            .with_writes(vec![whole(9, 128)])]);
        let racy = kernel(2, 0, 0.5, 1.5)
            .on_stream(2)
            .asynchronous()
            .with_writes(vec![whole(9, 128)]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| obs(&[racy])))
            .expect_err("racy enqueue must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("WAW"), "{msg}");
    }
}
