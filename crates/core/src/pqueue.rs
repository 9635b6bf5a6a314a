//! An indexed 4-ary min-heap with `O(log n)` key updates.
//!
//! The key-ranked policies (LFU, SIZE, LFU-DA, LRU-2 and the GreedyDual
//! family) need a priority queue supporting *extract-min* and *arbitrary
//! key change on hit*; the clairvoyant oracle uses it too.
//! [`IndexedHeap`] keeps a position index from item to heap node, so
//! updating or removing any item is `O(log n)` without lazy-deletion
//! garbage.
//!
//! Heap items are small dense integers (interned document slots), so the
//! position index is a plain `Vec<u32>` indexed by the item. Every sift
//! step updates the position of the moved element, so on the simulator
//! hot path — millions of sift steps per run — each update is one vector
//! store, never a hash-map write.
//!
//! The heap is 4-ary rather than binary: extract-min dominates the
//! simulator's heap traffic (every eviction pops), and a fan-out of four
//! halves the tree depth a pop's sift-down must walk. With every key
//! made unique by a tie-breaking sequence number, the extraction order
//! is the sorted key order regardless of arity, so the fan-out is purely
//! a layout choice — it cannot change simulation results.
//!
//! Storage is one vector of child groups, each holding four keys and
//! then their four items. Logical node `i` sits at lane `i + 3`, so the
//! root is the last lane of group 0 and node `i`'s children are exactly
//! group `i + 1`: a sift-down level reads one group's keys side by side
//! and picks the smallest with selects rather than branches
//! (`min_lane`). The policies' keys compare as one integer
//! (`PriorityKey` is a `u128` rank), which is what makes the selects
//! cheap; a pop still counts one comparison per child present and one
//! sift step per level, exactly as a classical `(key, item)` array heap
//! does.

use webcache_obs::HeapCost;
use webcache_trace::{prefetch_read, DocId};

/// Heap fan-out, and the number of lanes in a child group. See the
/// module docs for why 4 beats 2 here.
const ARITY: usize = 4;

/// Lanes before the root: node `i` sits at lane `i + LEAD`, so its
/// children `ARITY * i + 1 ..= ARITY * i + ARITY` fill group `i + 1`.
const LEAD: usize = ARITY - 1;

/// Heap items: small dense non-negative integers.
pub trait DenseItem: Copy {
    /// The dense index of this item. Indices should be contiguous from 0;
    /// the position vector grows to the largest index seen.
    fn dense_index(self) -> usize;
}

impl DenseItem for u32 {
    #[inline]
    fn dense_index(self) -> usize {
        self as usize
    }
}

impl DenseItem for u64 {
    #[inline]
    fn dense_index(self) -> usize {
        self as usize
    }
}

impl DenseItem for DocId {
    #[inline]
    fn dense_index(self) -> usize {
        self.as_u64() as usize
    }
}

/// Sentinel marking an untracked item in the position index.
const ABSENT: u32 = u32::MAX;

/// One group of [`ARITY`] lanes: the keys side by side, then the items.
#[derive(Debug, Clone)]
struct Group<I, K> {
    keys: [K; ARITY],
    items: [I; ARITY],
}

/// The lane holding the smallest of a full group's keys, the first such
/// lane on ties, found with selects instead of branches.
#[inline(always)]
fn min_lane<K: Ord>(keys: &[K; ARITY]) -> usize {
    let low = usize::from(keys[1] < keys[0]);
    let high = 2 + usize::from(keys[3] < keys[2]);
    if keys[high] < keys[low] {
        high
    } else {
        low
    }
}

/// A 4-ary min-heap over `(key, item)` pairs with by-item addressing.
///
/// `I` is the item (e.g. a document slot), `K` the priority key. The
/// heap orders by `K`; ties should be broken inside `K` itself (e.g.
/// with a sequence number) if deterministic extraction order matters.
///
/// Position lookups and updates are single vector accesses. Heap
/// positions are stored as `u32` (a heap cannot meaningfully exceed
/// 4 billion live entries); `u32::MAX` marks absence.
///
/// ```
/// use webcache_core::pqueue::IndexedHeap;
///
/// let mut heap: IndexedHeap<u32, u64> = IndexedHeap::new();
/// heap.insert(7, 5);
/// heap.insert(3, 2);
/// heap.update(7, 1);
/// assert_eq!(heap.pop_min(), Some((7, 1)));
/// assert_eq!(heap.pop_min(), Some((3, 2)));
/// assert!(heap.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct IndexedHeap<I, K> {
    /// Child groups; node `i` is lane `i + LEAD`. Lanes before the root
    /// and at or past `len + LEAD` hold stale copies and are never read;
    /// pops keep emptied groups, as a vector keeps its capacity.
    groups: Vec<Group<I, K>>,
    /// Number of live nodes.
    len: usize,
    /// Item's dense index -> node index, or [`ABSENT`].
    positions: Vec<u32>,
}

impl<I, K> Default for IndexedHeap<I, K>
where
    I: DenseItem,
    K: Ord + Copy,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<I, K> IndexedHeap<I, K>
where
    I: DenseItem,
    K: Ord + Copy,
{
    /// Creates an empty heap.
    pub fn new() -> Self {
        IndexedHeap {
            groups: Vec::new(),
            len: 0,
            positions: Vec::new(),
        }
    }

    /// Pre-sizes the heap for items with dense indices `0..n`.
    pub fn reserve(&mut self, n: usize) {
        self.groups.reserve((n + LEAD).div_ceil(ARITY));
        if n > self.positions.len() {
            self.positions.resize(n, ABSENT);
        }
    }

    /// Number of items in the heap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `item` is present.
    pub fn contains(&self, item: I) -> bool {
        self.position(item).is_some()
    }

    /// The key currently associated with `item`, if present.
    pub fn key_of(&self, item: I) -> Option<K> {
        self.position(item).map(|i| self.key(i))
    }

    /// Inserts a new item, returning the measured sift cost.
    ///
    /// The [`HeapCost`] is deliberately not `#[must_use]`: statement-position
    /// callers drop it and the accounting code is eliminated.
    ///
    /// # Panics
    ///
    /// Panics if `item` is already present — use [`IndexedHeap::update`] to
    /// change an existing key.
    pub fn insert(&mut self, item: I, key: K) -> HeapCost {
        assert!(
            self.position(item).is_none(),
            "item already present; use update"
        );
        let idx = self.len;
        if (idx + LEAD) / ARITY == self.groups.len() {
            self.groups.push(Group {
                keys: [key; ARITY],
                items: [item; ARITY],
            });
        }
        self.len += 1;
        self.set_position(item, idx);
        self.sift_up(idx, key, item)
    }

    /// Changes the key of an existing item, returning the sift cost.
    ///
    /// # Panics
    ///
    /// Panics if `item` is not present.
    pub fn update(&mut self, item: I, key: K) -> HeapCost {
        let idx = self.position(item).expect("update of item not in heap");
        let old = self.key(idx);
        if key < old {
            self.sift_up(idx, key, item)
        } else if key > old {
            self.sift_down(idx, key, item)
        } else {
            self.place(idx, key, item);
            HeapCost::ZERO
        }
    }

    /// The minimum `(item, key)` without removing it.
    pub fn peek_min(&self) -> Option<(I, K)> {
        (self.len > 0).then(|| (self.item(0), self.key(0)))
    }

    /// Removes and returns the minimum `(item, key)`.
    pub fn pop_min(&mut self) -> Option<(I, K)> {
        self.pop_min_counted().map(|(item, key, _)| (item, key))
    }

    /// [`IndexedHeap::pop_min`], also returning the measured sift cost.
    pub fn pop_min_counted(&mut self) -> Option<(I, K, HeapCost)> {
        let (item, key) = self.peek_min()?;
        let cost = self.remove_at(0);
        Some((item, key, cost))
    }

    /// Removes `item`, returning its key if it was present.
    pub fn remove(&mut self, item: I) -> Option<K> {
        self.remove_counted(item).map(|(key, _)| key)
    }

    /// [`IndexedHeap::remove`], also returning the measured sift cost.
    pub fn remove_counted(&mut self, item: I) -> Option<(K, HeapCost)> {
        let idx = self.position(item)?;
        let key = self.key(idx);
        let cost = self.remove_at(idx);
        Some((key, cost))
    }

    /// Removes every item, keeping allocations.
    pub fn clear(&mut self) {
        self.groups.clear();
        self.len = 0;
        // Keep the allocation; the vector is reusable across runs.
        self.positions.fill(ABSENT);
    }

    /// Hints the CPU to load `item`'s position entry ahead of an update
    /// or removal (see [`prefetch_read`]). Untracked or out-of-range
    /// items are fine: the hint never changes the heap.
    #[inline]
    pub fn prefetch(&self, item: I) {
        prefetch_read(&self.positions, item.dense_index());
    }

    /// The key of node `idx`.
    #[inline]
    fn key(&self, idx: usize) -> K {
        let lane = idx + LEAD;
        self.groups[lane / ARITY].keys[lane % ARITY]
    }

    /// The item of node `idx`.
    #[inline]
    fn item(&self, idx: usize) -> I {
        let lane = idx + LEAD;
        self.groups[lane / ARITY].items[lane % ARITY]
    }

    /// Stores `(key, item)` at node `idx` and records the item's position.
    #[inline]
    fn place(&mut self, idx: usize, key: K, item: I) {
        let lane = idx + LEAD;
        let group = &mut self.groups[lane / ARITY];
        group.keys[lane % ARITY] = key;
        group.items[lane % ARITY] = item;
        self.positions[item.dense_index()] = idx as u32;
    }

    /// The node index of `item`, if tracked.
    #[inline]
    fn position(&self, item: I) -> Option<usize> {
        match self.positions.get(item.dense_index()) {
            Some(&pos) if pos != ABSENT => Some(pos as usize),
            _ => None,
        }
    }

    /// Records `item` at node `pos`, growing the index to it.
    #[inline]
    fn set_position(&mut self, item: I, pos: usize) {
        debug_assert!(pos < ABSENT as usize, "heap position overflows u32");
        let index = item.dense_index();
        if index >= self.positions.len() {
            self.positions.resize(index + 1, ABSENT);
        }
        self.positions[index] = pos as u32;
    }

    fn remove_at(&mut self, idx: usize) -> HeapCost {
        let removed = self.item(idx);
        self.positions[removed.dense_index()] = ABSENT;
        self.len -= 1;
        let last = self.len;
        if idx == last {
            return HeapCost::ZERO;
        }
        let (key, item) = (self.key(last), self.item(last));
        if idx == 0 {
            // The root has no parent, so a sift-up would count nothing.
            return self.sift_down(0, key, item);
        }
        // The last node may need to move either way. The sift-down runs
        // on whatever the sift-up left at `idx`, and counts its
        // comparisons even when the sift-up moved the node.
        let up = self.sift_up(idx, key, item);
        up + self.sift_down(idx, self.key(idx), self.item(idx))
    }

    // Both sifts are hole-based: node `idx` is a hole, the moving
    // `(key, item)` is held in registers and written once at its final
    // node, so every level costs one node write and one position write
    // instead of a swap's two of each. The resulting array and the
    // counted costs are identical to the classical swap formulation.

    fn sift_up(&mut self, mut idx: usize, key: K, item: I) -> HeapCost {
        let mut cost = HeapCost::ZERO;
        while idx > 0 {
            let parent = (idx - 1) / ARITY;
            cost.comparisons += 1;
            let parent_key = self.key(parent);
            if key >= parent_key {
                break;
            }
            self.place(idx, parent_key, self.item(parent));
            cost.sift_steps += 1;
            idx = parent;
        }
        self.place(idx, key, item);
        cost
    }

    fn sift_down(&mut self, mut idx: usize, key: K, item: I) -> HeapCost {
        let mut cost = HeapCost::ZERO;
        loop {
            let first = ARITY * idx + 1;
            if first >= self.len {
                break;
            }
            let present = self.len - first;
            let group = &self.groups[idx + 1];
            let lane = if present >= ARITY {
                cost.comparisons += ARITY as u32;
                min_lane(&group.keys)
            } else {
                // The last, partial group: its stale lanes are not keys.
                cost.comparisons += present as u32;
                (1..present).fold(0, |min, lane| {
                    if group.keys[lane] < group.keys[min] {
                        lane
                    } else {
                        min
                    }
                })
            };
            let (child_key, child_item) = (group.keys[lane], group.items[lane]);
            if child_key >= key {
                break;
            }
            self.place(idx, child_key, child_item);
            cost.sift_steps += 1;
            idx = first + lane;
        }
        self.place(idx, key, item);
        cost
    }

    /// Checks the heap invariant and position index; used by tests.
    #[cfg(test)]
    fn check_invariants(&self) {
        if let Some(last) = self.len.checked_sub(1) {
            assert!(
                (last + LEAD) / ARITY < self.groups.len(),
                "last node has no group"
            );
        }
        for idx in 1..self.len {
            let parent = (idx - 1) / ARITY;
            assert!(
                self.key(parent) <= self.key(idx),
                "heap order violated at {idx}"
            );
        }
        for i in 0..self.len {
            assert_eq!(self.position(self.item(i)), Some(i), "position index stale");
        }
        let tracked = self.positions.iter().filter(|&&p| p != ABSENT).count();
        assert_eq!(tracked, self.len, "position index tracks removed items");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ordering() {
        let mut h: IndexedHeap<u64, u64> = IndexedHeap::new();
        for (i, k) in [(1u64, 50u64), (2, 10), (3, 30), (4, 20), (5, 40)] {
            h.insert(i, k);
            h.check_invariants();
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.peek_min(), Some((2, 10)));
        let order: Vec<u64> = std::iter::from_fn(|| h.pop_min().map(|(i, _)| i)).collect();
        assert_eq!(order, vec![2, 4, 3, 5, 1]);
    }

    #[test]
    fn update_moves_items_both_ways() {
        let mut h: IndexedHeap<u32, i32> = IndexedHeap::new();
        h.insert(1, 10);
        h.insert(2, 20);
        h.insert(3, 30);
        h.update(3, 5); // decrease-key
        h.check_invariants();
        assert_eq!(h.peek_min(), Some((3, 5)));
        h.update(3, 25); // increase-key
        h.check_invariants();
        assert_eq!(h.peek_min(), Some((1, 10)));
        assert_eq!(h.key_of(3), Some(25));
    }

    #[test]
    fn remove_arbitrary_items() {
        let mut h: IndexedHeap<u64, u64> = IndexedHeap::new();
        for i in 0u64..20 {
            h.insert(i, (i * 7) % 13);
        }
        assert_eq!(h.remove(10), Some((10 * 7) % 13));
        assert_eq!(h.remove(10), None, "double remove yields None");
        h.check_invariants();
        assert_eq!(h.len(), 19);
        assert!(!h.contains(10));
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn double_insert_panics() {
        let mut h: IndexedHeap<u32, u32> = IndexedHeap::new();
        h.insert(1, 1);
        h.insert(1, 2);
    }

    #[test]
    #[should_panic(expected = "not in heap")]
    fn update_missing_panics() {
        let mut h: IndexedHeap<u32, u32> = IndexedHeap::new();
        h.update(1, 2);
    }

    #[test]
    fn clear_resets() {
        let mut h: IndexedHeap<u32, u32> = IndexedHeap::new();
        h.insert(1, 1);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.pop_min(), None);
    }

    #[test]
    fn dense_positions_grow_clear_and_reuse() {
        let mut h: IndexedHeap<u32, u32> = IndexedHeap::new();
        h.reserve(8);
        for i in 0..8u32 {
            h.insert(i, 100 - i);
        }
        h.check_invariants();
        assert_eq!(h.pop_min(), Some((7, 93)));
        // Sparse-ish index far beyond the reservation still works.
        h.insert(5_000, 1);
        assert_eq!(h.peek_min(), Some((5_000, 1)));
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(0), "clear must forget dense positions");
        // Reuse after clear: same items, fresh keys.
        for i in 0..8u32 {
            h.insert(i, i);
        }
        h.check_invariants();
        assert_eq!(h.pop_min(), Some((0, 0)));
        assert_eq!(h.len(), 7);
    }

    #[test]
    fn sift_costs_are_measured() {
        let mut h: IndexedHeap<u32, u32> = IndexedHeap::new();
        // First insert lands at the root: no parent to compare against.
        assert_eq!(h.insert(0, 10), HeapCost::ZERO);
        // 5 beats the root: one comparison, one swap.
        assert_eq!(
            h.insert(1, 5),
            HeapCost {
                sift_steps: 1,
                comparisons: 1
            }
        );
        // 20 stays put: one (failed) comparison, no swap.
        assert_eq!(
            h.insert(2, 20),
            HeapCost {
                sift_steps: 0,
                comparisons: 1
            }
        );
        let (item, key, cost) = h.pop_min_counted().unwrap();
        assert_eq!((item, key), (1, 5));
        assert!(cost.comparisons >= 1, "{cost:?}");
        // An equal-key update does not sift at all.
        assert_eq!(h.update(0, 10), HeapCost::ZERO);
        let (_, cost) = h.remove_counted(2).unwrap();
        assert_eq!(h.remove_counted(2), None);
        let _ = cost;
        h.check_invariants();
    }

    /// Randomized differential test against a sorted-map reference model.
    /// Random insert, update,
    /// remove and pop sequences run over item universes small enough to
    /// hold the heap at every size 0–9 (where the last child group is
    /// partial) and large enough to grow it three levels deep; the heap
    /// invariant and position index are checked after every operation.
    #[test]
    fn differential_against_btreemap() {
        let mut sizes_seen = 0u64;
        for universe in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 64] {
            sizes_seen |= differential_model_run(universe);
        }
        assert_eq!(sizes_seen & 0x3ff, 0x3ff, "sizes 0-9 not all reached");
    }

    /// One model run over items `0..universe`; returns the bitmask of the
    /// heap sizes below 64 it passed through.
    fn differential_model_run(universe: u32) -> u64 {
        use std::collections::BTreeMap;
        use std::collections::HashMap;

        // Simple deterministic LCG so the test needs no external RNG.
        let mut state = 0x2545F491_4F6CDD1Du64 ^ u64::from(universe);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };

        let mut heap: IndexedHeap<u32, (u32, u32)> = IndexedHeap::new();
        let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new(); // key -> item
        let mut keys: HashMap<u32, (u32, u32)> = HashMap::new();
        let mut tie = 0u32;
        let mut sizes_seen = 0u64;

        for step in 0..5000 {
            match next() % 4 {
                0 | 1 => {
                    // insert or update a random item with a fresh unique key
                    let item = next() % universe;
                    let key = (next() % 1000, tie);
                    tie += 1;
                    if let Some(old) = keys.insert(item, key) {
                        model.remove(&old);
                        heap.update(item, key);
                    } else {
                        heap.insert(item, key);
                    }
                    model.insert(key, item);
                }
                2 => {
                    // pop-min must match the model's first entry
                    let expected = model.iter().next().map(|(&k, &i)| (i, k));
                    let got = heap.pop_min();
                    assert_eq!(got, expected, "step {step}");
                    if let Some((item, key)) = got {
                        model.remove(&key);
                        keys.remove(&item);
                    }
                }
                _ => {
                    // remove a random item
                    let item = next() % universe;
                    let got = heap.remove(item);
                    let expected = keys.remove(&item);
                    assert_eq!(got, expected, "step {step}");
                    if let Some(key) = expected {
                        model.remove(&key);
                    }
                }
            }
            assert_eq!(heap.len(), model.len(), "step {step}");
            heap.check_invariants();
            if heap.len() < 64 {
                sizes_seen |= 1 << heap.len();
            }
        }

        // `clear()` reuse: replay a short prefix after clearing and check
        // the heap still follows the model discipline.
        heap.clear();
        assert!(heap.is_empty());
        for i in 0..32u32 {
            heap.insert(i, (i % 7, i));
        }
        let mut popped = Vec::new();
        while let Some((item, _)) = heap.pop_min() {
            popped.push(item);
        }
        let mut sorted = popped.clone();
        sorted.sort_by_key(|&i| (i % 7, i));
        assert_eq!(popped, sorted, "post-clear ordering must be exact");
        sizes_seen
    }

    /// The classical 4-ary heap the grouped one replaced: one `(key, item)`
    /// array with the same hole-based sifts. Kept as the reference that
    /// pins pop order, tie-breaking among equal keys and every
    /// [`HeapCost`].
    struct Classical<K> {
        slots: Vec<(K, u32)>,
        positions: Vec<u32>,
    }

    impl<K: Ord + Copy> Classical<K> {
        fn position(&self, item: u32) -> Option<usize> {
            let pos = *self.positions.get(item as usize)?;
            (pos != ABSENT).then_some(pos as usize)
        }

        fn set(&mut self, idx: usize, slot: (K, u32)) {
            self.slots[idx] = slot;
            self.positions[slot.1 as usize] = idx as u32;
        }

        fn insert(&mut self, item: u32, key: K) -> HeapCost {
            if item as usize >= self.positions.len() {
                self.positions.resize(item as usize + 1, ABSENT);
            }
            self.slots.push((key, item));
            self.positions[item as usize] = (self.slots.len() - 1) as u32;
            self.sift_up(self.slots.len() - 1)
        }

        fn update(&mut self, item: u32, key: K) -> HeapCost {
            let idx = self.position(item).unwrap();
            let old = std::mem::replace(&mut self.slots[idx].0, key);
            match key.cmp(&old) {
                std::cmp::Ordering::Less => self.sift_up(idx),
                std::cmp::Ordering::Greater => self.sift_down(idx),
                std::cmp::Ordering::Equal => HeapCost::ZERO,
            }
        }

        fn remove_at(&mut self, idx: usize) -> (K, u32, HeapCost) {
            let (key, item) = self.slots.swap_remove(idx);
            self.positions[item as usize] = ABSENT;
            let mut cost = HeapCost::ZERO;
            if idx < self.slots.len() {
                self.set(idx, self.slots[idx]);
                cost = self.sift_up(idx) + self.sift_down(idx);
            }
            (key, item, cost)
        }

        fn sift_up(&mut self, mut idx: usize) -> HeapCost {
            let (mut cost, moving) = (HeapCost::ZERO, self.slots[idx]);
            while idx > 0 {
                let parent = (idx - 1) / ARITY;
                cost.comparisons += 1;
                if moving.0 >= self.slots[parent].0 {
                    break;
                }
                self.set(idx, self.slots[parent]);
                cost.sift_steps += 1;
                idx = parent;
            }
            self.set(idx, moving);
            cost
        }

        fn sift_down(&mut self, mut idx: usize) -> HeapCost {
            let (mut cost, moving) = (HeapCost::ZERO, self.slots[idx]);
            loop {
                let first = ARITY * idx + 1;
                let mut smallest = idx;
                let mut smallest_key = moving.0;
                for child in first..(first + ARITY).min(self.slots.len()) {
                    cost.comparisons += 1;
                    if self.slots[child].0 < smallest_key {
                        (smallest, smallest_key) = (child, self.slots[child].0);
                    }
                }
                if smallest == idx {
                    break;
                }
                self.set(idx, self.slots[smallest]);
                cost.sift_steps += 1;
                idx = smallest;
            }
            self.set(idx, moving);
            cost
        }
    }

    /// The grouped heap against the classical one: random insert, update,
    /// remove and pop sequences must return the same values and
    /// the same [`HeapCost`] after every operation, and leave the same
    /// logical node array. Small key ranges make many keys equal, so the
    /// branch-free pick must break ties exactly as the classical scan
    /// does; the integer-ranked `PriorityKey` runs too. Every size 0–9
    /// (each a partial last group except 1, 5 and 9) and heaps at least
    /// five levels deep are reached.
    #[test]
    fn parity_with_the_classical_heap() {
        use crate::policy::PriorityKey;

        let mut deepest = 0;
        let mut sizes_seen = 0u64;
        for universe in [1, 2, 5, 9, 13, 40, 400] {
            for key_range in [4, 1 << 20] {
                let (sizes, max) = parity_run(universe, key_range, |value, _| value);
                sizes_seen |= sizes;
                deepest = deepest.max(max);
            }
            let (sizes, _) = parity_run(universe, 64, |value, tie| {
                PriorityKey::new(f64::from(value) - 32.0, u64::from(tie))
            });
            sizes_seen |= sizes;
        }
        assert_eq!(sizes_seen & 0x3ff, 0x3ff, "sizes 0-9 not all reached");
        // Five full levels of a 4-ary heap hold 1 + 4 + 16 + 64 nodes.
        assert!(deepest > 85, "deepest heap had {deepest} nodes");
    }

    /// One parity run over items `0..universe` and key values
    /// `0..key_range`; returns the bitmask of the sizes below 64 it
    /// passed through and the largest size.
    fn parity_run<K: Ord + Copy + std::fmt::Debug>(
        universe: u32,
        key_range: u32,
        key: impl Fn(u32, u32) -> K,
    ) -> (u64, usize) {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(universe * 31 + key_range);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut heap: IndexedHeap<u32, K> = IndexedHeap::new();
        let mut reference = Classical {
            slots: Vec::new(),
            positions: Vec::new(),
        };
        let (mut tie, mut sizes_seen, mut largest) = (0u32, 0u64, 0usize);
        for step in 0..20 * universe as usize + 2000 {
            // Grow towards a full universe in the first half of each
            // 1000-step cycle, shrink towards empty in the second.
            let growing = step % 1000 < 500;
            let item = next() % universe;
            tie += 1;
            let new_key = key(next() % key_range, tie);
            let present = reference.position(item).is_some();
            // Five of every eight ops insert or update while growing, two
            // while shrinking; the rest remove or pop.
            match next() % 8 {
                op @ 0..=4 if growing || op > 2 => {
                    if present {
                        assert_eq!(
                            heap.update(item, new_key),
                            reference.update(item, new_key),
                            "update, step {step}"
                        );
                    } else {
                        assert_eq!(
                            heap.insert(item, new_key),
                            reference.insert(item, new_key),
                            "insert, step {step}"
                        );
                    }
                }
                5 => {
                    let want = reference
                        .position(item)
                        .map(|idx| reference.remove_at(idx))
                        .map(|(key, _, cost)| (key, cost));
                    assert_eq!(heap.remove_counted(item), want, "remove, step {step}");
                }
                _ => {
                    let want = (!reference.slots.is_empty())
                        .then(|| reference.remove_at(0))
                        .map(|(key, item, cost)| (item, key, cost));
                    assert_eq!(heap.pop_min_counted(), want, "pop, step {step}");
                }
            }
            heap.check_invariants();
            let nodes: Vec<(K, u32)> = (0..heap.len())
                .map(|i| (heap.key(i), heap.item(i)))
                .collect();
            assert_eq!(nodes, reference.slots, "node array, step {step}");
            if heap.len() < 64 {
                sizes_seen |= 1 << heap.len();
            }
            largest = largest.max(heap.len());
        }
        (sizes_seen, largest)
    }
}
