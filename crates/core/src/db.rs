//! The per-PE WIR database of §III-C — sparse, versioned storage.
//!
//! "each PE keeps a database that stores the WIR of every PE. Each PE
//! evaluates its WIR and propagates it (as well as the most recent WIRs in
//! its database) to the other PEs using a dissemination algorithm."
//!
//! The paper's phrasing suggests a dense rank-indexed table, which is what
//! this module used to be — `O(P)` per rank and therefore `O(P²)` across a
//! run (~8.6 GB of entries at `P = 16384`). Epidemic dissemination only
//! ever *writes* the entries a rank has actually heard (Demers et al.'s
//! anti-entropy push), so the database is now a sorted run of known entries
//! keyed by rank: memory is proportional to what gossip touched, lookups
//! are binary searches, and every observable behaviour (freshness merge,
//! deterministic rank-ordered snapshots, staleness accounting, the dense
//! default-filled WIR view) is unchanged.
//!
//! Entries are versioned by the iteration at which they were measured; a
//! merge keeps the freshest entry per rank (last-writer-wins on iteration,
//! deterministic tie-break on the value). Orthogonally, the database keeps
//! a local *change clock*: every observable change (insert or overwrite)
//! stamps the entry with the next clock tick, which is what delta gossip
//! ([`crate::gossip::GossipOutbox`]) uses to send a peer only the entries
//! it cannot have seen yet.

use crate::outlier::{add_repeated, RobustParams};
use serde::{Deserialize, Serialize};

/// One database entry: the WIR of `rank` as measured at `iteration`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WirEntry {
    /// The rank this entry describes.
    pub rank: usize,
    /// Workload-increase rate (FLOP/iteration).
    pub wir: f64,
    /// Iteration at which the WIR was measured (freshness version).
    pub iteration: u64,
}

/// Wire size of a gossip payload of `entries`, in bytes (used to charge
/// gossip communication — honest accounting for exactly what is sent).
pub fn wire_bytes(entries: &[WirEntry]) -> usize {
    std::mem::size_of_val(entries)
}

/// A known entry plus the local change-clock tick at which it last changed.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Slot {
    entry: WirEntry,
    version: u64,
}

/// A sparse, versioned WIR database with freshness-based merging.
///
/// Stores only the entries this PE has heard about, as a run sorted by
/// rank. Equality ([`PartialEq`]) compares *observable* state — the size
/// and the entries — never the internal change clock, so two databases
/// that heard the same facts through different message schedules compare
/// equal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WirDatabase {
    /// Number of ranks the database covers (the dense capacity).
    size: usize,
    /// Known entries, sorted by `entry.rank` (at most one per rank).
    slots: Vec<Slot>,
    /// Local change clock: bumped on every observable change.
    clock: u64,
}

impl PartialEq for WirDatabase {
    fn eq(&self, other: &Self) -> bool {
        self.size == other.size
            && self.slots.len() == other.slots.len()
            && self.slots.iter().zip(&other.slots).all(|(a, b)| a.entry == b.entry)
    }
}

impl WirDatabase {
    /// An empty database for `size` ranks. Allocates nothing until entries
    /// arrive — the footprint is `O(known entries)`, not `O(size)`.
    pub fn new(size: usize) -> Self {
        Self { size, slots: Vec::new(), clock: 0 }
    }

    /// Number of ranks the database covers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Record (or refresh) an entry. Stale updates (older iteration than the
    /// stored entry) are ignored; equal-iteration updates overwrite (the
    /// newest local measurement wins). Only observable changes advance the
    /// change clock: re-learning an identical fact leaves the version
    /// untouched, so deltas never resend it.
    pub fn update(&mut self, entry: WirEntry) {
        assert!(entry.rank < self.size, "rank {} out of range", entry.rank);
        match self.slots.binary_search_by_key(&entry.rank, |s| s.entry.rank) {
            Ok(i) => {
                let stored = &mut self.slots[i];
                if stored.entry.iteration > entry.iteration || stored.entry == entry {
                    return;
                }
                self.clock += 1;
                *stored = Slot { entry, version: self.clock };
            }
            Err(i) => {
                self.clock += 1;
                self.slots.insert(i, Slot { entry, version: self.clock });
            }
        }
    }

    /// Merge every entry of `snapshot` (e.g. received via gossip).
    pub fn merge(&mut self, snapshot: &[WirEntry]) {
        for &e in snapshot {
            self.update(e);
        }
    }

    /// The freshest entry known for `rank`.
    pub fn get(&self, rank: usize) -> Option<WirEntry> {
        assert!(rank < self.size, "rank {rank} out of range");
        self.slots.binary_search_by_key(&rank, |s| s.entry.rank).ok().map(|i| self.slots[i].entry)
    }

    /// All known entries (rank order — deterministic).
    pub fn snapshot(&self) -> Vec<WirEntry> {
        self.slots.iter().map(|s| s.entry).collect()
    }

    /// Iterate the known entries in rank order, without allocating.
    pub fn entries(&self) -> impl Iterator<Item = WirEntry> + '_ {
        self.slots.iter().map(|s| s.entry)
    }

    /// Current value of the local change clock. Strictly monotone: each
    /// observable change ([`update`](Self::update) that inserts or
    /// overwrites) advances it by one. `0` means "never changed".
    pub fn version(&self) -> u64 {
        self.clock
    }

    /// The entries that changed *after* change-clock tick `since`, in rank
    /// order. `delta_since(0)` is the full snapshot; `delta_since(version())`
    /// is empty. This is the delta-gossip payload: a peer that merged
    /// everything up to `since` needs exactly these entries.
    ///
    /// Extraction scans the full run — `O(known)` per call, the same CPU a
    /// full snapshot costs; the delta wire's win is the *bytes charged on
    /// the wire*, not sender CPU. A version-ordered side index would make
    /// this `O(log known + |delta|)` if sender CPU ever becomes the
    /// bottleneck.
    pub fn delta_since(&self, since: u64) -> Vec<WirEntry> {
        self.slots.iter().filter(|s| s.version > since).map(|s| s.entry).collect()
    }

    /// Number of ranks with a known entry.
    pub fn known_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether every rank has an entry.
    pub fn is_complete(&self) -> bool {
        self.slots.len() == self.size
    }

    /// Dense WIR vector: unknown ranks default to `default` (rank order).
    ///
    /// Materializes `O(size)`. No hot path uses it: it is the oracle the
    /// sparse statistics ([`z_params`](Self::z_params),
    /// [`robust_params`](Self::robust_params)) are tested against, and a
    /// debugging aid.
    pub fn wirs_or(&self, default: f64) -> Vec<f64> {
        self.wirs_iter(default).collect()
    }

    /// Iterate the dense WIR view — `wir` for known ranks, `default` for
    /// unknown ones, in rank order — without materializing it. Yields
    /// exactly the same sequence as [`wirs_or`](Self::wirs_or). Still
    /// `O(size)` per pass, so like `wirs_or` it is an oracle and debugging
    /// aid; statistics use [`dense_sum`](Self::dense_sum), which folds the
    /// same sequence bit for bit in `O(known · log size)`.
    pub fn wirs_iter(&self, default: f64) -> WirsIter<'_> {
        WirsIter { slots: &self.slots, next_rank: 0, size: self.size, default }
    }

    /// Fold the dense view as runs, in rank order: each known entry as
    /// `(wir, 1)`, each non-empty gap of unknown ranks as `(fill, length)`.
    pub(crate) fn fold_runs<A>(
        &self,
        fill: f64,
        init: A,
        mut f: impl FnMut(A, f64, usize) -> A,
    ) -> A {
        let mut acc = init;
        let mut next_rank = 0;
        for slot in &self.slots {
            let gap = slot.entry.rank - next_rank;
            if gap > 0 {
                acc = f(acc, fill, gap);
            }
            acc = f(acc, slot.entry.wir, 1);
            next_rank = slot.entry.rank + 1;
        }
        match self.size - next_rank {
            0 => acc,
            gap => f(acc, fill, gap),
        }
    }

    /// `self.wirs_iter(fill).map(f).sum::<f64>()`, bit for bit, in
    /// `O(known · log size)`: every gap of unknown ranks adds the one
    /// repeated term `f(fill)` through [`add_repeated`].
    pub fn dense_sum(&self, fill: f64, f: impl Fn(f64) -> f64) -> f64 {
        // `Iterator::sum`'s own starting value (it decides the sign of an
        // all-zero sum), so the two can never drift apart.
        let start: f64 = std::iter::empty::<f64>().sum();
        self.fold_runs(fill, start, |s, w, count| add_repeated(s, f(w), count))
    }

    /// The `(mean, population σ)` of the dense view with unknown ranks at
    /// `fill`: bit for bit `outlier::z_params(self.wirs_iter(fill),
    /// self.size())`, in `O(known · log size)`.
    pub fn z_params(&self, fill: f64) -> (f64, f64) {
        let n = self.size;
        if n == 0 {
            return (0.0, 0.0);
        }
        let m = self.dense_sum(fill, |w| w) / n as f64;
        if n < 2 {
            return (m, 0.0);
        }
        (m, (self.dense_sum(fill, |w| (w - m) * (w - m)) / n as f64).sqrt())
    }

    /// The median/MAD parameters of the dense view with unknown ranks at
    /// `fill`: `score` reproduces `robust_z_scores(&self.wirs_or(fill))`
    /// bit for bit, in `O(known · log known)` — the order statistics come
    /// from the sorted known entries plus one block of fill values.
    pub fn robust_params(&self, fill: f64) -> RobustParams {
        let med = self.dense_median(fill, |w| w);
        let deviation = |w: f64| (w - med).abs();
        RobustParams::new(med, self.dense_median(fill, deviation), || match self.size {
            0 => 0.0,
            n => self.dense_sum(fill, deviation) / n as f64,
        })
    }

    /// `outlier::median` of the dense view mapped through `f`, bit for bit.
    fn dense_median(&self, fill: f64, f: impl Fn(f64) -> f64) -> f64 {
        let n = self.size;
        if n == 0 {
            return 0.0;
        }
        let fill_value = f(fill);
        let gap = n - self.slots.len();
        // Known entries as (slot index, rank, value), stable-sorted by value
        // like the dense sort: equal values stay in rank order.
        let mut known: Vec<(usize, usize, f64)> =
            self.slots.iter().enumerate().map(|(i, s)| (i, s.entry.rank, f(s.entry.wir))).collect();
        known.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite values"));
        let cmp_fill = |v: f64| v.partial_cmp(&fill_value).expect("finite values");
        let (below, equal) = if gap == 0 {
            (known.len(), 0)
        } else {
            let below = known.partition_point(|k| cmp_fill(k.2).is_lt());
            (below, known[below..].partition_point(|k| cmp_fill(k.2).is_eq()))
        };
        // The k-th element of the dense sorted view. Elements equal to the
        // fill sort in rank order, and they need not share its bits (±0.0):
        // a known entry at slot i, rank r, j-th among the equal known ones,
        // sits at j + (r − i) in that group, as r − i unknown ranks precede it.
        let order_stat = |k: usize| {
            if k < below {
                return known[k].2;
            }
            if k >= below + equal + gap {
                return known[k - gap].2;
            }
            let t = k - below;
            known[below..below + equal]
                .iter()
                .enumerate()
                .find(|&(j, &(i, r, _))| j + (r - i) == t)
                .map_or(fill_value, |(_, k)| k.2)
        };
        if n % 2 == 1 {
            order_stat(n / 2)
        } else {
            (order_stat(n / 2 - 1) + order_stat(n / 2)) / 2.0
        }
    }

    /// Maximum staleness (in iterations) of any known entry relative to
    /// `current_iteration`; `None` if the database is empty.
    pub fn max_staleness(&self, current_iteration: u64) -> Option<u64> {
        self.slots.iter().map(|s| current_iteration.saturating_sub(s.entry.iteration)).max()
    }

    /// Wire size of a full snapshot of this database, in bytes (used to
    /// charge gossip communication when sending full snapshots). For delta
    /// payloads use [`wire_bytes`] on the delta actually sent.
    pub fn snapshot_bytes(&self) -> usize {
        self.known_count() * std::mem::size_of::<WirEntry>()
    }

    /// Approximate resident heap footprint of this database, in bytes
    /// (capacity of the slot run; the point of the sparse layout is that
    /// this is `O(known entries)`, not `O(size)`).
    pub fn resident_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }
}

/// Iterator of the dense default-filled WIR view (see
/// [`WirDatabase::wirs_iter`]). `Clone` so two-pass statistics (mean, then
/// deviation) can replay the identical sequence.
#[derive(Debug, Clone)]
pub struct WirsIter<'a> {
    slots: &'a [Slot],
    next_rank: usize,
    size: usize,
    default: f64,
}

impl Iterator for WirsIter<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.next_rank >= self.size {
            return None;
        }
        let rank = self.next_rank;
        self.next_rank += 1;
        match self.slots.first() {
            Some(s) if s.entry.rank == rank => {
                self.slots = &self.slots[1..];
                Some(s.entry.wir)
            }
            _ => Some(self.default),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.size - self.next_rank;
        (left, Some(left))
    }
}

impl ExactSizeIterator for WirsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(rank: usize, wir: f64, iteration: u64) -> WirEntry {
        WirEntry { rank, wir, iteration }
    }

    #[test]
    fn update_and_get() {
        let mut db = WirDatabase::new(4);
        db.update(e(2, 5.0, 10));
        assert_eq!(db.get(2), Some(e(2, 5.0, 10)));
        assert_eq!(db.get(0), None);
        assert_eq!(db.known_count(), 1);
        assert!(!db.is_complete());
    }

    #[test]
    fn freshness_wins() {
        let mut db = WirDatabase::new(2);
        db.update(e(0, 1.0, 5));
        db.update(e(0, 2.0, 3)); // stale: ignored
        assert_eq!(db.get(0), Some(e(0, 1.0, 5)));
        db.update(e(0, 3.0, 7)); // fresher: wins
        assert_eq!(db.get(0), Some(e(0, 3.0, 7)));
        db.update(e(0, 4.0, 7)); // same iteration: newest measurement wins
        assert_eq!(db.get(0), Some(e(0, 4.0, 7)));
    }

    #[test]
    fn merge_snapshot() {
        let mut a = WirDatabase::new(3);
        a.update(e(0, 1.0, 4));
        let mut b = WirDatabase::new(3);
        b.update(e(1, 2.0, 6));
        b.update(e(0, 9.0, 2)); // older than a's entry
        a.merge(&b.snapshot());
        assert_eq!(a.get(0), Some(e(0, 1.0, 4)), "stale merge must not regress");
        assert_eq!(a.get(1), Some(e(1, 2.0, 6)));
        assert_eq!(a.known_count(), 2);
    }

    #[test]
    fn dense_vector_with_default() {
        let mut db = WirDatabase::new(3);
        db.update(e(1, 7.0, 1));
        assert_eq!(db.wirs_or(0.0), vec![0.0, 7.0, 0.0]);
    }

    #[test]
    fn wirs_iter_matches_dense_vector() {
        let mut db = WirDatabase::new(6);
        db.update(e(1, 7.0, 1));
        db.update(e(4, 2.0, 3));
        db.update(e(5, 9.0, 2));
        let streamed: Vec<f64> = db.wirs_iter(-1.0).collect();
        assert_eq!(streamed, db.wirs_or(-1.0));
        assert_eq!(db.wirs_iter(0.0).len(), 6);
    }

    #[test]
    fn staleness() {
        let mut db = WirDatabase::new(3);
        assert_eq!(db.max_staleness(10), None);
        db.update(e(0, 1.0, 4));
        db.update(e(1, 1.0, 9));
        assert_eq!(db.max_staleness(10), Some(6));
    }

    #[test]
    fn snapshot_is_rank_ordered() {
        let mut db = WirDatabase::new(4);
        db.update(e(3, 3.0, 1));
        db.update(e(1, 1.0, 1));
        let ranks: Vec<usize> = db.snapshot().iter().map(|e| e.rank).collect();
        assert_eq!(ranks, vec![1, 3]);
    }

    #[test]
    fn memory_is_proportional_to_known_entries() {
        let mut db = WirDatabase::new(1 << 20);
        for r in 0..10 {
            db.update(e(r * 1000, 1.0, 1));
        }
        assert!(db.resident_bytes() < 4096, "a 2^20-rank db with 10 entries must stay tiny");
    }

    #[test]
    fn version_advances_only_on_observable_change() {
        let mut db = WirDatabase::new(4);
        assert_eq!(db.version(), 0);
        db.update(e(2, 5.0, 10));
        assert_eq!(db.version(), 1);
        db.update(e(2, 5.0, 10)); // identical fact: no change
        assert_eq!(db.version(), 1);
        db.update(e(2, 4.0, 3)); // stale: no change
        assert_eq!(db.version(), 1);
        db.update(e(2, 6.0, 10)); // same iteration, new value: change
        assert_eq!(db.version(), 2);
        db.update(e(0, 1.0, 1)); // new rank: change
        assert_eq!(db.version(), 3);
    }

    #[test]
    fn delta_since_carries_exactly_the_news() {
        let mut db = WirDatabase::new(8);
        db.update(e(3, 1.0, 1));
        db.update(e(5, 2.0, 1));
        let mark = db.version();
        assert_eq!(db.delta_since(mark), vec![]);
        db.update(e(1, 9.0, 2));
        db.update(e(5, 3.0, 4)); // overwrite: fresher
        let delta = db.delta_since(mark);
        let ranks: Vec<usize> = delta.iter().map(|e| e.rank).collect();
        assert_eq!(ranks, vec![1, 5], "delta is rank-ordered and minimal");
        assert_eq!(db.delta_since(0), db.snapshot(), "delta from zero is the full snapshot");
        assert_eq!(wire_bytes(&delta), 2 * std::mem::size_of::<WirEntry>());
    }

    #[test]
    fn equality_ignores_the_change_clock() {
        // Same facts, different message histories: the clock differs, the
        // databases must not.
        let mut a = WirDatabase::new(4);
        a.update(e(1, 1.0, 1));
        a.update(e(1, 2.0, 2));
        a.update(e(2, 3.0, 1));
        let mut b = WirDatabase::new(4);
        b.update(e(2, 3.0, 1));
        b.update(e(1, 2.0, 2));
        assert_eq!(a, b);
        assert_ne!(a.version(), b.version());
        let mut c = WirDatabase::new(5);
        c.update(e(1, 2.0, 2));
        c.update(e(2, 3.0, 1));
        assert_ne!(a, c, "different capacities are observable (is_complete)");
    }
}
