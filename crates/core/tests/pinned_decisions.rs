//! Pins every replacement decision bit for bit.
//!
//! Each policy configuration replays a fixed pseudo-random mix of hits,
//! miss-fills, invalidations and re-admissions through a dense-slot
//! [`Cache`], once at an ordinary capacity and once at a capacity just
//! below `u64::MAX` that admits near-`u64::MAX` documents. Zero-byte
//! documents appear in both. A recording [`MetricsSink`] sees every heap
//! operation with its measured cost, every inflation step and every
//! eviction reason. The cache's answers (hits, dispositions, victims),
//! the sink's events (op, sift steps, comparisons, the bit pattern of
//! `L`, the reason's JSON), the admission filter's reason JSON for each
//! verdict and the final occupancy are folded into a 64-bit FNV-1a hash
//! per configuration, compared with a recorded constant. Any change to a
//! victim, a tie-break, a key's bits, a heap cost, an admission verdict
//! or a reason payload changes the hash.
//!
//! FNV-1a is written out here rather than taken from `DefaultHasher`,
//! whose algorithm the standard library may change between releases.

use std::sync::{Arc, Mutex};

use webcache_core::policy::{BetaMode, GdStarRule, KeyedPolicy};
use webcache_core::{
    AdmissionSpec, Cache, CostModel, InsertDisposition, PolicyKind, PolicySpec, ReplacementPolicy,
};
use webcache_obs::{HeapCost, HeapOp, MetricsSink, Reason, ReasonChannel};
use webcache_trace::{ByteSize, DocId, DocumentType};

/// A 64-bit FNV-1a hash state.
#[derive(Debug)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }
}

type Shared = Arc<Mutex<Fnv>>;

/// A sink folding every policy event into the shared hash.
#[derive(Debug)]
struct Recorder(Shared);

impl MetricsSink for Recorder {
    fn heap_op(&mut self, op: HeapOp, cost: HeapCost) {
        let mut h = self.0.lock().unwrap();
        h.bytes(b"heap");
        h.bytes(op.label().as_bytes());
        h.u64(u64::from(cost.sift_steps));
        h.u64(u64::from(cost.comparisons));
    }

    fn inflation(&mut self, l: f64) {
        let mut h = self.0.lock().unwrap();
        h.bytes(b"inflation");
        h.u64(l.to_bits());
    }

    fn evict_reason(&mut self, reason: Reason) {
        let mut h = self.0.lock().unwrap();
        h.bytes(b"reason");
        h.bytes(reason.to_json().unwrap_or_default().as_bytes());
    }
}

/// SplitMix64: a fixed, dependency-free op generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Document handles `0..UNIVERSE`; the cache reserves only `RESERVED`
/// slots, so the rest grow policy state on demand.
const UNIVERSE: u64 = 300;
const RESERVED: usize = 256;
const OPS: usize = 4_000;

/// One scenario: a capacity and a size distribution.
#[derive(Clone, Copy)]
enum Scale {
    /// 256 KiB, documents up to 32 KiB plus some larger than the cache.
    Ordinary,
    /// `u64::MAX - 1` bytes (saturating sums stay exact below it), with
    /// near-`u64::MAX` documents that evict almost everything else.
    Huge,
}

impl Scale {
    fn capacity(self) -> u64 {
        match self {
            Scale::Ordinary => 256 * 1024,
            Scale::Huge => u64::MAX - 1,
        }
    }

    fn size(self, rng: &mut Rng) -> u64 {
        let pick = rng.below(100);
        if pick < 8 {
            return 0;
        }
        match self {
            Scale::Ordinary if pick < 10 => 300 * 1024 + rng.below(1 << 20),
            Scale::Ordinary => {
                let bits = 5 + rng.below(11);
                1 + rng.below(1 << bits)
            }
            Scale::Huge if pick < 30 => u64::MAX - 1 - rng.below(1 << 32),
            Scale::Huge if pick < 50 => u64::MAX / 3 + rng.below(1 << 40),
            Scale::Huge => 1 + rng.below(1 << 20),
        }
    }
}

fn doc_type(rng: &mut Rng) -> DocumentType {
    DocumentType::ALL[rng.below(DocumentType::ALL.len() as u64) as usize]
}

/// Replays the scenario through `policy` behind `admission`, folding
/// into `hash`. Admit-everything verdicts carry no reason, so they add
/// nothing to the hash beyond the dispositions.
fn replay(
    policy: Box<dyn ReplacementPolicy>,
    admission: AdmissionSpec,
    scale: Scale,
    seed: u64,
    hash: &Shared,
) {
    let mut rng = Rng(seed);
    let mut cache =
        Cache::with_dense_slots(ByteSize::new(scale.capacity()), policy, admission, RESERVED);
    let verdicts = ReasonChannel::new();
    cache.set_admit_reasons(verdicts.clone());
    let mut sizes: Vec<u64> = (0..UNIVERSE).map(|_| scale.size(&mut rng)).collect();
    let mut types: Vec<DocumentType> = (0..UNIVERSE).map(|_| doc_type(&mut rng)).collect();
    for _ in 0..OPS {
        let slot = rng.below(UNIVERSE);
        let doc = DocId::new(slot);
        let op = rng.below(100);
        let (tag, outcome) = if op < 55 {
            // A proxy request: a hit, or a miss followed by a fill.
            if cache.access(doc) {
                (b'h', None)
            } else {
                let size = ByteSize::new(sizes[slot as usize]);
                (b'm', Some(cache.insert(doc, types[slot as usize], size)))
            }
        } else if op < 70 {
            let tag = if cache.access(doc) { b'l' } else { b'k' };
            (tag, None)
        } else if op < 85 {
            let tag = if cache.invalidate(doc) { b'i' } else { b'j' };
            (tag, None)
        } else {
            // A re-admission: the document changed at the origin.
            sizes[slot as usize] = scale.size(&mut rng);
            types[slot as usize] = doc_type(&mut rng);
            let size = ByteSize::new(sizes[slot as usize]);
            (b'r', Some(cache.insert(doc, types[slot as usize], size)))
        };
        let mut h = hash.lock().unwrap();
        h.bytes(&[tag]);
        h.u64(slot);
        if let Some(outcome) = outcome {
            h.bytes(&[match outcome.disposition {
                InsertDisposition::Inserted => 0,
                InsertDisposition::RejectedByAdmission => 1,
                InsertDisposition::TooLarge => 2,
            }]);
            h.u64(outcome.evicted.len() as u64);
            for victim in &outcome.evicted {
                h.u64(victim.doc.as_u64());
                h.u64(victim.size.as_u64());
            }
        }
        while let Some(reason) = verdicts.pop() {
            if let Some(json) = reason.to_json() {
                h.bytes(b"admit");
                h.bytes(json.as_bytes());
            }
        }
    }
    cache.debug_validate();
    let mut h = hash.lock().unwrap();
    h.u64(cache.len() as u64);
    h.u64(cache.used_bytes().as_u64());
}

/// The decision hash of one configuration over both scenarios.
fn decision_hash(
    admission: AdmissionSpec,
    build: impl Fn(Recorder) -> Box<dyn ReplacementPolicy>,
) -> u64 {
    let hash: Shared = Arc::new(Mutex::new(Fnv(Fnv::OFFSET)));
    for (scale, seed) in [(Scale::Ordinary, 0x5eed_0001), (Scale::Huge, 0x5eed_0002)] {
        replay(
            build(Recorder(Arc::clone(&hash))),
            admission,
            scale,
            seed,
            &hash,
        );
    }
    let value = hash.lock().unwrap().0;
    value
}

fn gdstar(cost: CostModel, mode: BetaMode, sink: Recorder) -> Box<dyn ReplacementPolicy> {
    Box::new(KeyedPolicy::with_sink(GdStarRule::new(cost, mode), sink))
}

/// The GD\* configurations beyond `PolicyKind`'s default adaptive β.
const GDSTAR_MODES: [(&str, BetaMode); 3] = [
    ("fixed(0.7)", BetaMode::Fixed(0.7)),
    (
        "adaptive(200)",
        BetaMode::Adaptive {
            initial: 1.0,
            refresh_interval: 200,
        },
    ),
    (
        "per-type(200)",
        BetaMode::AdaptivePerType {
            initial: 1.0,
            refresh_interval: 200,
        },
    ),
];

/// The admission filters pinned in front of LRU and GD\*(P).
const ADMISSIONS: [&str; 3] = ["max:65536", "2hit:64", "tinylfu"];

/// Decision hashes recorded before the key-ranked policies shared one
/// heap core; LRU-2's was recorded again when it joined that core and
/// its one-timers began to evict oldest first. The admission hashes were
/// recorded while the filters ran behind a trait object.
const PINNED: [(&str, u64); 27] = [
    ("LRU", 0x7aebdb45744e8abe),
    ("FIFO", 0x8a9ee96b404c03d3),
    ("LFU", 0x80ecb1e535bbda70),
    ("SIZE", 0x131aac6c817397c4),
    ("LFU-DA", 0xc97c82df6fb4b060),
    ("SLRU", 0x6ebbba86a448016a),
    ("LRU-2", 0xa25f6be34894c46b),
    ("GDS(1)", 0x7d839de4c67fa018),
    ("GDS(P)", 0x72be68c8bddbad37),
    ("GDSF(1)", 0x27946825692a06e9),
    ("GDSF(P)", 0xd7c71831b2ddf74a),
    ("GD*(1)", 0x27946825692a06e9),
    ("GD*(P)", 0xd7c71831b2ddf74a),
    ("ARC", 0xd06fe3c84b5e5806),
    ("S3-FIFO", 0x96b8d9383b96fa0e),
    ("GD*(1) fixed(0.7)", 0x8df1025d02714ed3),
    ("GD*(1) adaptive(200)", 0xf490addd7db0e0ee),
    ("GD*(1) per-type(200)", 0x1f1580b6afead481),
    ("GD*(P) fixed(0.7)", 0x941d5ca5eb6e483d),
    ("GD*(P) adaptive(200)", 0x0d2bbd475e55c92c),
    ("GD*(P) per-type(200)", 0x1068f797175a0937),
    ("MAX:65536+LRU", 0x7b09efa0cdc2e3e7),
    ("MAX:65536+GD*(P)", 0x65ae31fe70bd06ec),
    ("2HIT:64+LRU", 0xe9595f570b9c6cbb),
    ("2HIT:64+GD*(P)", 0x26185f3a1775ff4e),
    ("TinyLFU+LRU", 0xad20f1822b9af87e),
    ("TinyLFU+GD*(P)", 0x0354bacdf935c19a),
];

#[test]
fn decisions_match_the_recorded_hashes() {
    let mut actual: Vec<(String, u64)> = PolicyKind::ALL
        .iter()
        .map(|kind| {
            (
                kind.label(),
                decision_hash(AdmissionSpec::All, |sink| kind.build_instrumented(sink)),
            )
        })
        .collect();
    for cost in [CostModel::Constant, CostModel::Packet] {
        for (name, mode) in GDSTAR_MODES {
            let label = format!("{} {name}", PolicyKind::GdStar(cost).label());
            let hash = decision_hash(AdmissionSpec::All, |sink| gdstar(cost, mode, sink));
            actual.push((label, hash));
        }
    }
    for admission in ADMISSIONS {
        for kind in [PolicyKind::Lru, PolicyKind::GdStar(CostModel::Packet)] {
            let spec: PolicySpec = format!("{admission}+{kind}").parse().unwrap();
            let hash = decision_hash(spec.admission, |sink| spec.build_instrumented(sink));
            actual.push((spec.label(), hash));
        }
    }
    let expected: Vec<(String, u64)> = PINNED
        .iter()
        .map(|&(label, hash)| (label.to_owned(), hash))
        .collect();
    let listing: String = actual
        .iter()
        .map(|(label, hash)| format!("    (\"{label}\", {hash:#018x}),\n"))
        .collect();
    assert_eq!(actual, expected, "decision hashes changed:\n{listing}");
}
