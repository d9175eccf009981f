//! Per-node Chord state, kept as one flat ring-ordered routing table.
//!
//! Every alive node of the ring is one row of a [`RouteTable`]: its
//! value, its first alive successor, its finger table, its successor list
//! and its predecessor, sized exactly as in the Chord paper (Stoica et
//! al., SIGCOMM 2001, §4): M fingers and an r-entry successor list. Each
//! finger and successor entry is stored already resolved to *usable*
//! (the named node is a row — present and alive) or not, so a lookup
//! never consults a membership map.
//!
//! The table is the ring's only routing state. [`crate::net::SimNet`]
//! patches it in place on every membership and maintenance event, and
//! every lookup — sequential, batched on worker threads, or seeding a
//! joiner's fingers — walks it through [`RouteTable::route_with_path`].
//! The table is `Sync`, so worker threads borrow it directly.

use std::fmt;

use clash_keyspace::hash::HashSpace;

use crate::id::ChordId;
use crate::net::LookupResult;

/// One finger or successor-list entry: the node it names, and whether
/// that node is currently a row of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    value: u64,
    usable: bool,
}

/// Every alive node's routing state in ring order, one row per node.
///
/// Rows are addressed by ring position; a value maps to its row by binary
/// search over the sorted values. Crashed nodes have no row (their
/// identifiers stay taken in the owning [`crate::net::SimNet`]), but the
/// cycle guard still counts them, as it always has.
#[derive(Debug, Clone)]
pub struct RouteTable {
    space: HashSpace,
    /// Successor-list slots per row: the longest list a row may hold.
    stride: usize,
    /// Crashed nodes whose identifiers are still taken.
    corpses: usize,
    /// Alive node values in ring order.
    values: Vec<u64>,
    /// Per row: the first usable entry of its successor list (the row's
    /// own value when there is none).
    first_succ: Vec<u64>,
    /// Per row: the predecessor pointer (maintenance state only).
    preds: Vec<Option<u64>>,
    /// Finger tables, `bits` entries per row.
    fingers: Vec<Entry>,
    /// Successor lists, `stride` slots per row, nearest first.
    succs: Vec<Entry>,
    /// Per row: how many of its `stride` successor slots are in use.
    succ_lens: Vec<usize>,
}

impl RouteTable {
    /// A table of solitary rows (every pointer at the node itself) for
    /// the given strictly increasing values, each row holding up to
    /// `stride` successors.
    pub(crate) fn solitary(space: HashSpace, stride: usize, values: Vec<u64>) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        let own = |&value: &u64| Entry {
            value,
            usable: true,
        };
        let n = values.len();
        RouteTable {
            space,
            stride,
            corpses: 0,
            first_succ: values.clone(),
            preds: vec![None; n],
            fingers: values
                .iter()
                .flat_map(|v| std::iter::repeat_n(own(v), space.bits() as usize))
                .collect(),
            succs: values
                .iter()
                .flat_map(|v| std::iter::repeat_n(own(v), stride))
                .collect(),
            succ_lens: vec![1; n],
            values,
        }
    }

    /// Number of alive nodes (rows).
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Alive node values in ring order.
    pub(crate) fn values(&self) -> &[u64] {
        &self.values
    }

    fn bits(&self) -> usize {
        self.space.bits() as usize
    }

    fn id(&self, value: u64) -> ChordId {
        ChordId::new(value, self.space)
    }

    /// The row of the alive node with this value.
    pub(crate) fn row_of(&self, value: u64) -> Option<usize> {
        self.values.binary_search(&value).ok()
    }

    /// Ground truth: the alive node owning hash `h` (its ring successor),
    /// or `None` on an empty ring.
    pub(crate) fn owner_of(&self, h: u64) -> Option<ChordId> {
        if self.values.is_empty() {
            return None;
        }
        let h = h & self.space.mask();
        let i = self.values.partition_point(|&v| v < h);
        Some(self.id(self.values[i % self.values.len()]))
    }

    /// Ground truth: the alive node strictly preceding `h` on the ring.
    pub(crate) fn predecessor_of(&self, h: u64) -> Option<ChordId> {
        let h = h & self.space.mask();
        let i = self.values.partition_point(|&v| v < h);
        let i = if i == 0 { self.values.len() } else { i };
        i.checked_sub(1).map(|i| self.id(self.values[i]))
    }

    pub(crate) fn first_succ(&self, row: usize) -> u64 {
        self.first_succ[row]
    }

    pub(crate) fn pred(&self, row: usize) -> Option<u64> {
        self.preds[row]
    }

    /// Finger `k` of a row.
    pub(crate) fn finger(&self, row: usize, k: usize) -> u64 {
        self.fingers[row * self.bits() + k].value
    }

    /// The raw finger values of a row.
    pub(crate) fn finger_values(&self, row: usize) -> impl Iterator<Item = u64> + '_ {
        let m = self.bits();
        self.fingers[row * m..(row + 1) * m].iter().map(|e| e.value)
    }

    fn succ_row(&self, row: usize) -> &[Entry] {
        let lo = row * self.stride;
        &self.succs[lo..lo + self.succ_lens[row]]
    }

    /// The raw successor-list values of a row, nearest first.
    pub(crate) fn succ_values(&self, row: usize) -> impl Iterator<Item = u64> + '_ {
        self.succ_row(row).iter().map(|e| e.value)
    }

    /// The usable successor-list values of a row, nearest first.
    pub(crate) fn usable_succs(&self, row: usize) -> impl Iterator<Item = u64> + '_ {
        self.succ_row(row)
            .iter()
            .filter_map(|e| e.usable.then_some(e.value))
    }

    fn entry(&self, value: u64) -> Entry {
        Entry {
            value,
            usable: self.row_of(value).is_some(),
        }
    }

    fn refresh_first_succ(&mut self, row: usize) {
        self.first_succ[row] = self
            .succ_row(row)
            .iter()
            .find_map(|e| e.usable.then_some(e.value))
            .unwrap_or(self.values[row]);
    }

    /// Records how many crashed nodes still hold identifiers.
    pub(crate) fn set_corpses(&mut self, corpses: usize) {
        self.corpses = corpses;
    }

    /// Widens every row to hold `stride` successors (never narrows:
    /// lists written under a longer setting stay as they are).
    pub(crate) fn reserve_successors(&mut self, stride: usize) {
        if stride <= self.stride {
            return;
        }
        let filler = Entry {
            value: 0,
            usable: false,
        };
        let mut succs = Vec::with_capacity(self.values.len() * stride);
        for row in self.succs.chunks(self.stride) {
            succs.extend_from_slice(row);
            succs.extend(std::iter::repeat_n(filler, stride - self.stride));
        }
        self.succs = succs;
        self.stride = stride;
    }

    /// Adds a solitary row for `value` (absent from the table) and marks
    /// every entry naming it usable again. Returns the new row.
    pub(crate) fn insert_solitary(&mut self, value: u64) -> usize {
        let row = self.values.partition_point(|&v| v < value);
        let own = Entry {
            value,
            usable: true,
        };
        let m = self.bits();
        self.values.insert(row, value);
        self.first_succ.insert(row, value);
        self.preds.insert(row, None);
        self.fingers
            .splice(row * m..row * m, std::iter::repeat_n(own, m));
        self.succs.splice(
            row * self.stride..row * self.stride,
            std::iter::repeat_n(own, self.stride),
        );
        self.succ_lens.insert(row, 1);
        self.set_usable(value, true);
        row
    }

    /// Deletes `value`'s row and marks every entry naming it unusable.
    /// Returns false if it had no row.
    pub(crate) fn remove(&mut self, value: u64) -> bool {
        let Some(row) = self.row_of(value) else {
            return false;
        };
        let m = self.bits();
        self.values.remove(row);
        self.first_succ.remove(row);
        self.preds.remove(row);
        self.fingers.drain(row * m..(row + 1) * m);
        self.succs.drain(row * self.stride..(row + 1) * self.stride);
        self.succ_lens.remove(row);
        self.set_usable(value, false);
        true
    }

    /// Re-resolves every entry naming `value` after it gained or lost its
    /// row, and each affected row's first alive successor.
    fn set_usable(&mut self, value: u64, usable: bool) {
        for e in self.fingers.iter_mut().filter(|e| e.value == value) {
            e.usable = usable;
        }
        for row in 0..self.values.len() {
            let lo = row * self.stride;
            let mut touched = false;
            for e in &mut self.succs[lo..lo + self.succ_lens[row]] {
                if e.value == value {
                    e.usable = usable;
                    touched = true;
                }
            }
            if touched {
                self.refresh_first_succ(row);
            }
        }
    }

    /// Replaces a row's successor list.
    ///
    /// # Panics
    ///
    /// Panics if `list` is empty — a node always knows at least one
    /// successor (possibly itself) — or longer than the row stride.
    pub(crate) fn set_successors(&mut self, row: usize, list: &[u64]) {
        assert!(!list.is_empty(), "successor list must be non-empty");
        assert!(list.len() <= self.stride, "successor list exceeds its row");
        let lo = row * self.stride;
        for (k, &s) in list.iter().enumerate() {
            self.succs[lo + k] = self.entry(s);
        }
        self.succ_lens[row] = list.len();
        self.refresh_first_succ(row);
    }

    /// Writes a row's ground-truth state — successor list, predecessor
    /// and every finger — computed from the alive membership, so every
    /// entry is usable without a lookup.
    pub(crate) fn install_row(
        &mut self,
        row: usize,
        succs: &[u64],
        pred: Option<u64>,
        fingers: &[u64],
    ) {
        debug_assert!(
            succs
                .iter()
                .chain(fingers)
                .all(|&v| self.row_of(v).is_some()),
            "ground truth names only alive nodes"
        );
        assert!(!succs.is_empty() && succs.len() <= self.stride);
        let alive = |&value: &u64| Entry {
            value,
            usable: true,
        };
        let (m, lo) = (self.bits(), row * self.stride);
        for (slot, f) in self.fingers[row * m..(row + 1) * m].iter_mut().zip(fingers) {
            *slot = alive(f);
        }
        for (slot, s) in self.succs[lo..lo + succs.len()].iter_mut().zip(succs) {
            *slot = alive(s);
        }
        self.succ_lens[row] = succs.len();
        self.first_succ[row] = succs[0];
        self.preds[row] = pred;
    }

    /// Points finger `k` of a row at `value`.
    pub(crate) fn set_finger(&mut self, row: usize, k: usize, value: u64) {
        let m = self.bits();
        assert!(k < m, "finger index {k} out of range");
        self.fingers[row * m + k] = self.entry(value);
    }

    /// Sets or clears a row's predecessor pointer.
    pub(crate) fn set_pred(&mut self, row: usize, pred: Option<u64>) {
        self.preds[row] = pred;
    }

    /// `closest_preceding` over one row: its farthest usable finger in
    /// `(current, target)`, else its farthest such successor-list entry,
    /// else its first usable successor, else `current`.
    fn closest_preceding(&self, row: usize, current: ChordId, target: ChordId) -> ChordId {
        let m = self.bits();
        let succs = self.succ_row(row);
        let preceding = |e: &&Entry| e.usable && self.id(e.value).in_open_interval(current, target);
        self.fingers[row * m..(row + 1) * m]
            .iter()
            .rev()
            .chain(succs.iter().rev())
            .find(preceding)
            .or_else(|| succs.iter().find(|e| e.usable))
            .map_or(current, |e| self.id(e.value))
    }

    /// The routed lookup: resolves the successor of `h` starting at
    /// `start` using only per-node state, counting hops.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not an alive node, or if routing degenerates
    /// into a cycle (only possible when maintenance has never run after
    /// severe membership changes).
    pub fn route(&self, start: ChordId, h: u64) -> LookupResult {
        self.walk(start, h, |_, _| ())
    }

    /// [`RouteTable::route`], additionally returning the per-hop path as
    /// `(from, to)` pairs — one pair per inter-node message — so callers
    /// can charge each hop its own link cost (latency, loss) through a
    /// transport. `path.len()` always equals the returned hop count.
    pub fn route_with_path(
        &self,
        start: ChordId,
        h: u64,
    ) -> (LookupResult, Vec<(ChordId, ChordId)>) {
        let mut path = Vec::new();
        let result = self.walk(start, h, |from, to| path.push((from, to)));
        debug_assert_eq!(path.len(), result.hops as usize);
        (result, path)
    }

    /// The Chord walk: `visit(from, to)` fires once per inter-node hop,
    /// in order. Each hop forwards to the row's first alive successor
    /// when it owns the target, else to its closest preceding usable
    /// entry. The cycle guard allows `4·bits + nodes + 8` hops, counting
    /// crashed nodes.
    fn walk<F: FnMut(ChordId, ChordId)>(
        &self,
        start: ChordId,
        h: u64,
        mut visit: F,
    ) -> LookupResult {
        let target = self.id(h);
        let mut row = self
            .row_of(start.value())
            .expect("lookup must start at an alive node");
        let hop_limit = 4 * self.space.bits() + (self.values.len() + self.corpses) as u32 + 8;
        let mut hops = 0u32;
        loop {
            let current = self.id(self.values[row]);
            let succ = self.id(self.first_succ[row]);
            // The target is this node, or a solitary (or fully isolated)
            // node owns everything.
            if target == current || succ == current {
                return LookupResult {
                    owner: current,
                    hops,
                };
            }
            if target.in_half_open_interval(current, succ) {
                visit(current, succ);
                return LookupResult {
                    owner: succ,
                    hops: hops + 1,
                };
            }
            let next = self.closest_preceding(row, current, target);
            let next = if next == current { succ } else { next };
            visit(current, next);
            row = self
                .row_of(next.value())
                .expect("routing only visits alive nodes");
            hops += 1;
            assert!(
                hops <= hop_limit,
                "routing cycle: {start:?} -> {h:#x} exceeded {hop_limit} hops"
            );
        }
    }
}

#[cfg(test)]
impl RouteTable {
    /// Every row as plain data — value, first alive successor,
    /// predecessor, fingers, the successor slots in use — so tables
    /// compare without their unused slots.
    #[allow(clippy::type_complexity)]
    fn rows(&self) -> Vec<(u64, u64, Option<u64>, Vec<Entry>, Vec<Entry>)> {
        let m = self.bits();
        (0..self.len())
            .map(|row| {
                (
                    self.values[row],
                    self.first_succ[row],
                    self.preds[row],
                    self.fingers[row * m..(row + 1) * m].to_vec(),
                    self.succ_row(row).to_vec(),
                )
            })
            .collect()
    }

    /// Requires this (incrementally maintained) table to equal one built
    /// from scratch out of the same membership and raw pointers: every
    /// entry's usable flag and every row's first alive successor
    /// re-resolved.
    pub(crate) fn assert_matches_rebuild(&self) {
        let mut fresh = RouteTable::solitary(self.space, self.stride, self.values.clone());
        fresh.corpses = self.corpses;
        for row in 0..self.len() {
            let succs: Vec<u64> = self.succ_values(row).collect();
            fresh.set_successors(row, &succs);
            fresh.set_pred(row, self.pred(row));
            for (k, f) in self.finger_values(row).enumerate() {
                fresh.set_finger(row, k, f);
            }
        }
        assert_eq!(
            self.rows(),
            fresh.rows(),
            "maintained routing table diverged from a rebuild"
        );
    }
}

/// A read-only view of one node: an alive node's row in the
/// [`RouteTable`], or a crashed node whose identifier is still taken
/// (its routing state died with it).
#[derive(Clone, Copy)]
pub struct ChordNode<'a> {
    id: ChordId,
    table: &'a RouteTable,
    row: Option<usize>,
}

impl<'a> ChordNode<'a> {
    pub(crate) fn new(id: ChordId, table: &'a RouteTable) -> Self {
        ChordNode {
            id,
            table,
            row: table.row_of(id.value()),
        }
    }

    /// This node's ring identifier.
    pub fn id(&self) -> ChordId {
        self.id
    }

    /// Whether the node is alive (a crashed node keeps its identifier
    /// but is skipped by routing).
    pub fn is_alive(&self) -> bool {
        self.row.is_some()
    }

    /// The successor list, nearest first (empty for a crashed node).
    pub fn successor_list(&self) -> Vec<ChordId> {
        self.row.map_or_else(Vec::new, |row| {
            self.table
                .succ_values(row)
                .map(|v| self.table.id(v))
                .collect()
        })
    }

    /// The finger table; entry `k` is the node this one believes succeeds
    /// `id + 2^k` (empty for a crashed node).
    pub fn fingers(&self) -> Vec<ChordId> {
        self.row.map_or_else(Vec::new, |row| {
            self.table
                .finger_values(row)
                .map(|v| self.table.id(v))
                .collect()
        })
    }

    /// The predecessor, if known.
    pub fn predecessor(&self) -> Option<ChordId> {
        self.row
            .and_then(|row| self.table.pred(row))
            .map(|v| self.table.id(v))
    }
}

impl fmt::Debug for ChordNode<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChordNode")
            .field("id", &self.id)
            .field("successor_list", &self.successor_list())
            .field("predecessor", &self.predecessor())
            .field("alive", &self.is_alive())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::SimNet;

    fn space() -> HashSpace {
        HashSpace::new(8).unwrap()
    }

    fn id(v: u64) -> ChordId {
        ChordId::new(v, space())
    }

    /// A one-row table for node `start`, every pointer at itself, for
    /// probing the one-step `closest_preceding` in isolation.
    fn lone_row(start: u64) -> RouteTable {
        RouteTable::solitary(space(), 8, vec![start])
    }

    #[test]
    fn solitary_points_to_self() {
        let mut net = SimNet::new(space());
        net.add_node(id(42));
        let n = net.node(id(42)).unwrap();
        assert_eq!(n.successor_list(), vec![id(42)]);
        assert_eq!(n.fingers().len(), 8);
        assert!(n.fingers().iter().all(|&f| f == id(42)));
        assert_eq!(n.predecessor(), None);
        assert!(n.is_alive());
    }

    #[test]
    fn closest_preceding_picks_farthest_usable_finger() {
        let mut t = lone_row(0);
        t.set_finger(0, 0, 1);
        t.set_finger(0, 3, 8);
        t.set_finger(0, 6, 64);
        t.set_finger(0, 7, 128);
        for v in [1, 8, 64, 128] {
            t.set_usable(v, true);
        }
        // Routing toward 100: finger 64 is the closest preceding.
        assert_eq!(t.closest_preceding(0, id(0), id(100)), id(64));
        // Routing toward 200: finger 128 precedes it.
        assert_eq!(t.closest_preceding(0, id(0), id(200)), id(128));
    }

    #[test]
    fn closest_preceding_skips_unusable() {
        let mut t = lone_row(0);
        t.set_finger(0, 6, 64);
        t.set_finger(0, 7, 128);
        t.set_successors(0, &[1]);
        for v in [1, 64] {
            t.set_usable(v, true);
        }
        // 128 names no row: unusable, so 64 is the best route to 200.
        assert_eq!(t.closest_preceding(0, id(0), id(200)), id(64));
    }

    #[test]
    fn closest_preceding_falls_back_to_successor() {
        let mut t = lone_row(10);
        t.set_successors(0, &[20]);
        t.set_usable(20, true);
        // Target just after self; no finger strictly inside (10, 12).
        assert_eq!(t.closest_preceding(0, id(10), id(12)), id(20));
    }

    #[test]
    fn mark_failed() {
        let mut net = SimNet::new(space());
        net.add_node(id(1));
        net.fail(id(1));
        let n = net
            .node(id(1))
            .expect("a crashed node keeps its identifier");
        assert!(!n.is_alive());
        assert!(n.fingers().is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_successor_list_rejected() {
        let mut t = lone_row(1);
        t.set_successors(0, &[]);
    }
}
