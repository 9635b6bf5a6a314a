//! The one list structure behind every recency and queue scheme.
//!
//! LRU, FIFO, SLRU, ARC and S3-FIFO all keep each tracked document on one
//! of a few ordered lists (LRU's recency order, SLRU's two segments,
//! ARC's `T1`/`T2`/`B1`/`B2`, S3-FIFO's small, main and ghost queues)
//! and evict from a list's tail. [`SlotLists`] threads `N` such
//! doubly-linked lists through one node per dense document slot: a node
//! holds its neighbours, the list it is on, a one-byte tag (S3-FIFO's
//! access counter) and the size recorded with it, and each list keeps its
//! ends, its length and its byte total. Every operation is `O(1)`, and a
//! document moved or removed leaves nothing stale behind.
//!
//! Lists are numbered `1..=N`; list 0 means "not tracked". Slots are the
//! dense handles the [`Cache`](crate::Cache) interns, so they stay below
//! `u32::MAX`, which marks a missing neighbour.

use webcache_trace::{prefetch_read, DocId};

use super::{slot_entry, slot_of};

/// A missing neighbour or list end.
const NIL: u32 = u32::MAX;

/// What a document's node records besides its neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    /// The list it is on, `1..=N`; 0 = not tracked.
    pub list: u8,
    pub tag: u8,
    pub size: u64,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
    entry: Entry,
}

const UNTRACKED: Node = Node {
    prev: NIL,
    next: NIL,
    entry: Entry {
        list: 0,
        tag: 0,
        size: 0,
    },
};

/// One list's ends and running totals.
#[derive(Debug, Clone, Copy)]
struct Ends {
    /// Most recently pushed.
    head: u32,
    /// Next to pop.
    tail: u32,
    len: usize,
    bytes: u64,
}

const EMPTY: Ends = Ends {
    head: NIL,
    tail: NIL,
    len: 0,
    bytes: 0,
};

/// `N` doubly-linked lists over dense document slots. See the module
/// documentation above.
#[derive(Debug)]
pub(crate) struct SlotLists<const N: usize> {
    /// One node per document slot, tracked or not.
    nodes: Vec<Node>,
    /// List `l`'s ends at index `l - 1`.
    ends: [Ends; N],
}

impl<const N: usize> Default for SlotLists<N> {
    fn default() -> Self {
        SlotLists {
            nodes: Vec::new(),
            ends: [EMPTY; N],
        }
    }
}

impl<const N: usize> SlotLists<N> {
    /// The list `doc` is on; 0 when it is not tracked.
    #[inline]
    pub fn list_of(&self, doc: DocId) -> u8 {
        self.nodes
            .get(slot_of(doc))
            .map_or(0, |node| node.entry.list)
    }

    /// What `doc`'s node records, if it is tracked.
    pub fn entry(&self, doc: DocId) -> Option<Entry> {
        let entry = self.nodes.get(slot_of(doc))?.entry;
        (entry.list != 0).then_some(entry)
    }

    /// Number of documents on `list`.
    #[inline]
    pub fn len(&self, list: u8) -> usize {
        self.ends(list).len
    }

    /// Sum of the sizes recorded on `list`.
    #[inline]
    pub fn bytes(&self, list: u8) -> u64 {
        self.ends(list).bytes
    }

    /// Tracks `doc` at the front of `list`, recording `tag` and `size`.
    /// `doc` must not be tracked yet.
    pub fn push_front(&mut self, list: u8, doc: DocId, tag: u8, size: u64) {
        let slot = slot_of(doc);
        let node = slot_entry(&mut self.nodes, slot, UNTRACKED);
        debug_assert_eq!(node.entry.list, 0, "double insert of {doc}");
        node.entry = Entry { list, tag, size };
        self.link_front(slot);
    }

    /// Untracks `doc`, returning what its node recorded; `None` when it
    /// was not tracked.
    pub fn unlink(&mut self, doc: DocId) -> Option<Entry> {
        let entry = self.entry(doc)?;
        let slot = slot_of(doc);
        self.detach(slot);
        self.nodes[slot].entry.list = 0;
        Some(entry)
    }

    /// Moves the tracked `doc` to the front of `list`, which may be the
    /// list it is on, keeping its tag and size.
    pub fn move_to_front(&mut self, doc: DocId, list: u8) {
        let slot = slot_of(doc);
        debug_assert_ne!(self.list_of(doc), 0, "move of untracked {doc}");
        if self.ends(list).head == slot as u32 {
            return;
        }
        self.detach(slot);
        self.nodes[slot].entry.list = list;
        self.link_front(slot);
    }

    /// Untracks and returns the document at the back of `list`, with what
    /// its node recorded.
    pub fn pop_back(&mut self, list: u8) -> Option<(DocId, Entry)> {
        let tail = self.ends(list).tail;
        if tail == NIL {
            return None;
        }
        let doc = DocId::new(u64::from(tail));
        self.unlink(doc).map(|entry| (doc, entry))
    }

    /// Replaces the tag of the tracked `doc`.
    pub fn set_tag(&mut self, doc: DocId, tag: u8) {
        debug_assert_ne!(self.list_of(doc), 0, "tag of untracked {doc}");
        self.nodes[slot_of(doc)].entry.tag = tag;
    }

    /// Sizes the node vector for slots `0..n` up front.
    pub fn reserve(&mut self, n: usize) {
        if self.nodes.len() < n {
            self.nodes.resize(n, UNTRACKED);
        }
    }

    /// Hints the CPU to load `doc`'s node (see [`webcache_trace::prefetch`]).
    #[inline]
    pub fn prefetch(&self, doc: DocId) {
        prefetch_read(&self.nodes, slot_of(doc));
    }

    fn ends(&self, list: u8) -> &Ends {
        &self.ends[usize::from(list) - 1]
    }

    /// Links the node at `slot` in front of the head of the list its
    /// entry names.
    fn link_front(&mut self, slot: usize) {
        debug_assert!(slot < NIL as usize, "slot {slot} exceeds the u32 range");
        let node = &mut self.nodes[slot];
        let ends = &mut self.ends[usize::from(node.entry.list) - 1];
        let next = ends.head;
        node.prev = NIL;
        node.next = next;
        ends.len += 1;
        ends.bytes += node.entry.size;
        ends.head = slot as u32;
        if next == NIL {
            ends.tail = slot as u32;
        } else {
            self.nodes[next as usize].prev = slot as u32;
        }
    }

    /// Takes the node at `slot` out of the list its entry names, leaving
    /// the entry for the caller to update.
    fn detach(&mut self, slot: usize) {
        let Node { prev, next, entry } = self.nodes[slot];
        let ends = &mut self.ends[usize::from(entry.list) - 1];
        if prev == NIL {
            ends.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            ends.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        ends.len -= 1;
        ends.bytes -= entry.size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(i: u64) -> DocId {
        DocId::new(i)
    }

    /// `list`'s slots front to back, checked against the walk back to
    /// front along the `prev` links.
    fn order<const N: usize>(lists: &SlotLists<N>, list: u8) -> Vec<u64> {
        let mut forward = Vec::new();
        let mut at = lists.ends(list).head;
        while at != NIL {
            forward.push(u64::from(at));
            at = lists.nodes[at as usize].next;
        }
        let mut backward = Vec::new();
        let mut at = lists.ends(list).tail;
        while at != NIL {
            backward.push(u64::from(at));
            at = lists.nodes[at as usize].prev;
        }
        backward.reverse();
        assert_eq!(forward, backward, "list {list}: prev and next disagree");
        forward
    }

    /// Differential test against three `Vec` models (front = index 0):
    /// random pushes, moves within and across lists, tag changes, unlinks
    /// and pops over 40 slots, half of them reserved up front, with every
    /// list's order, length and byte total and every slot's list and
    /// entry checked after each op.
    #[test]
    fn differential_against_vec_models() {
        const SLOTS: u64 = 40;
        let mut lists = SlotLists::<3>::default();
        lists.reserve(SLOTS as usize / 2);
        // Per list: (slot, tag, size), front first.
        let mut model: [Vec<(u64, u8, u64)>; 3] = Default::default();
        let find = |model: &[Vec<(u64, u8, u64)>; 3], d: u64| {
            (0..3).find_map(|l| model[l].iter().position(|e| e.0 == d).map(|i| (l, i)))
        };

        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };

        for step in 0..6000 {
            let d = next() % SLOTS;
            let list = (next() % 3) as u8 + 1;
            let l = usize::from(list) - 1;
            match next() % 4 {
                0 => {
                    if find(&model, d).is_none() {
                        let (tag, size) = ((next() % 4) as u8, next() % 5000);
                        lists.push_front(list, doc(d), tag, size);
                        model[l].insert(0, (d, tag, size));
                    }
                }
                1 => {
                    if let Some((from, i)) = find(&model, d) {
                        lists.move_to_front(doc(d), list);
                        let e = model[from].remove(i);
                        model[l].insert(0, e);
                        if next() % 2 == 0 {
                            let tag = (next() % 4) as u8;
                            lists.set_tag(doc(d), tag);
                            model[l][0].1 = tag;
                        }
                    }
                }
                2 => {
                    let got = lists.pop_back(list);
                    let expected = model[l]
                        .pop()
                        .map(|(d, tag, size)| (doc(d), Entry { list, tag, size }));
                    assert_eq!(got, expected, "step {step}");
                }
                _ => {
                    let expected = find(&model, d).map(|(from, i)| {
                        let (_, tag, size) = model[from].remove(i);
                        Entry {
                            list: from as u8 + 1,
                            tag,
                            size,
                        }
                    });
                    assert_eq!(lists.unlink(doc(d)), expected, "step {step}");
                }
            }
            for (l, model) in model.iter().enumerate() {
                let list = l as u8 + 1;
                let slots: Vec<u64> = model.iter().map(|e| e.0).collect();
                assert_eq!(order(&lists, list), slots, "step {step}, list {list}");
                assert_eq!(lists.len(list), model.len(), "step {step}");
                let bytes: u64 = model.iter().map(|e| e.2).sum();
                assert_eq!(lists.bytes(list), bytes, "step {step}");
            }
            for d in 0..SLOTS {
                let expected = find(&model, d).map(|(l, i)| Entry {
                    list: l as u8 + 1,
                    tag: model[l][i].1,
                    size: model[l][i].2,
                });
                assert_eq!(lists.entry(doc(d)), expected, "step {step}, slot {d}");
                assert_eq!(lists.list_of(doc(d)), expected.map_or(0, |e| e.list));
            }
        }
    }
}
