//! Approximate frequency sketch for admission filtering.
//!
//! [`FrequencySketch`] is the TinyLFU frequency estimator (Einziger &
//! Friedman): a Count-Min sketch of 4-bit saturating counters fronted by
//! a *doorkeeper* bloom filter that absorbs the one-hit-wonder majority,
//! with periodic halving (the *reset* operation) so estimates track a
//! sliding window of recent popularity instead of all of history.
//!
//! The sketch is sized at construction and never reallocates, so its
//! estimates are a pure function of the recorded key sequence — the
//! property the dense-vs-hashed and concurrent-vs-serial differential
//! proptests rely on when a TinyLFU admission filter is attached.
//!
//! All state is deterministic: hashing is a fixed splitmix64-style mix,
//! and aging triggers on an exact sample count, never on wall time.

/// Number of Count-Min rows (independent hash functions).
const ROWS: usize = 4;

/// 4-bit counters saturate here.
const COUNTER_MAX: u8 = 15;

/// Default counter-table width per row (must be a power of two). 16 Ki
/// counters per row × 4 rows × 4 bits = 32 KiB of counter state, enough
/// for the catalog sizes the scaled DFN/RTP workloads produce while
/// staying fixed-size (see the module docs on determinism).
const DEFAULT_WIDTH: usize = 1 << 14;

/// Recorded samples between halvings, as a multiple of the row width.
/// Caffeine uses 10 × the cache's entry capacity; 8 × width lands in the
/// same regime for our fixed-width sketch.
const SAMPLE_FACTOR: usize = 8;

/// A Count-Min frequency sketch with doorkeeper and periodic aging.
#[derive(Debug, Clone)]
pub struct FrequencySketch {
    /// `ROWS` rows of packed 4-bit counters, 16 counters per `u64` word;
    /// row `r` occupies `table[r * words_per_row ..][..words_per_row]`.
    table: Vec<u64>,
    /// Doorkeeper bloom filter: one bit set per hash position, 2 probes.
    doorkeeper: Vec<u64>,
    /// Counter-index mask (`width - 1`).
    mask: u64,
    /// Doorkeeper bit-index mask.
    door_mask: u64,
    /// Records since the last halving.
    additions: usize,
    /// Halving threshold.
    sample_size: usize,
}

impl Default for FrequencySketch {
    fn default() -> Self {
        FrequencySketch::new()
    }
}

impl FrequencySketch {
    /// A sketch of the default (fixed) width.
    pub fn new() -> Self {
        FrequencySketch::with_width(DEFAULT_WIDTH)
    }

    /// A sketch with `width` counters per row, rounded up to a power of
    /// two (minimum 64).
    pub fn with_width(width: usize) -> Self {
        let width = width.max(64).next_power_of_two();
        let words_per_row = width / 16;
        // Doorkeeper: 8 bits per counter keeps its false-positive rate
        // negligible next to the counters' own collision noise.
        let door_bits = (width * 8).next_power_of_two();
        FrequencySketch {
            table: vec![0; words_per_row * ROWS],
            doorkeeper: vec![0; door_bits / 64],
            mask: (width - 1) as u64,
            door_mask: (door_bits - 1) as u64,
            additions: 0,
            sample_size: width * SAMPLE_FACTOR,
        }
    }

    /// Counters per row.
    pub fn width(&self) -> usize {
        self.mask as usize + 1
    }

    /// Records since the last halving (diagnostic).
    pub fn additions(&self) -> usize {
        self.additions
    }

    /// Records one occurrence of `key` and returns the estimate
    /// *including* this occurrence — the admission-filter fast path
    /// (record + estimate in one pass).
    pub fn record(&mut self, key: u64) -> u32 {
        let h = mix(key);
        let estimate = if self.door_set(h) {
            self.bump(h) + 1
        } else {
            1
        };
        self.additions += 1;
        if self.additions >= self.sample_size {
            self.halve();
        }
        estimate
    }

    /// Estimates how often `key` was recorded in the current window,
    /// without recording it.
    pub fn estimate(&self, key: u64) -> u32 {
        let h = mix(key);
        if self.door_contains(h) {
            self.min_count(h) + 1
        } else {
            0
        }
    }

    /// Tests and sets the doorkeeper bits for `h`; returns whether the
    /// key had already passed the door.
    fn door_set(&mut self, h: u64) -> bool {
        let (a, b) = door_probes(h, self.door_mask);
        let was = bit(&self.doorkeeper, a) && bit(&self.doorkeeper, b);
        set_bit(&mut self.doorkeeper, a);
        set_bit(&mut self.doorkeeper, b);
        was
    }

    fn door_contains(&self, h: u64) -> bool {
        let (a, b) = door_probes(h, self.door_mask);
        bit(&self.doorkeeper, a) && bit(&self.doorkeeper, b)
    }

    /// Conservative-update increment: only the minimal counters grow, so
    /// over-estimation from collisions stays as small as the structure
    /// allows. Returns the post-increment minimum.
    fn bump(&mut self, h: u64) -> u32 {
        let min = self.min_count(h);
        if min >= u32::from(COUNTER_MAX) {
            return min;
        }
        let words_per_row = self.table.len() / ROWS;
        for row in 0..ROWS {
            let index = (row_hash(h, row) & self.mask) as usize;
            let word = row * words_per_row + index / 16;
            let shift = (index % 16) * 4;
            let current = ((self.table[word] >> shift) & 0xF) as u32;
            if current == min {
                self.table[word] += 1u64 << shift;
            }
        }
        min + 1
    }

    fn min_count(&self, h: u64) -> u32 {
        let words_per_row = self.table.len() / ROWS;
        let mut min = u32::from(COUNTER_MAX);
        for row in 0..ROWS {
            let index = (row_hash(h, row) & self.mask) as usize;
            let word = row * words_per_row + index / 16;
            let shift = (index % 16) * 4;
            min = min.min(((self.table[word] >> shift) & 0xF) as u32);
        }
        min
    }

    /// The TinyLFU reset: every counter is halved and the doorkeeper is
    /// cleared, so stale popularity decays geometrically.
    fn halve(&mut self) {
        for word in &mut self.table {
            // Halve all sixteen 4-bit counters in the word at once.
            *word = (*word >> 1) & 0x7777_7777_7777_7777;
        }
        for word in &mut self.doorkeeper {
            *word = 0;
        }
        self.additions /= 2;
    }
}

/// splitmix64 finalizer: spreads dense slot ids over the hash space.
fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-row index derivation: rotate the mixed hash so the rows probe
/// independent positions.
fn row_hash(h: u64, row: usize) -> u64 {
    h.rotate_right(row as u32 * 17)
}

fn door_probes(h: u64, mask: u64) -> (u64, u64) {
    (h & mask, (h >> 32) & mask)
}

fn bit(words: &[u64], index: u64) -> bool {
    words[(index / 64) as usize] & (1 << (index % 64)) != 0
}

fn set_bit(words: &mut [u64], index: u64) {
    words[(index / 64) as usize] |= 1 << (index % 64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_record_passes_the_doorkeeper_only() {
        let mut s = FrequencySketch::new();
        assert_eq!(s.estimate(7), 0);
        assert_eq!(s.record(7), 1, "first occurrence");
        assert_eq!(s.estimate(7), 1);
        assert_eq!(s.record(7), 2, "second occurrence hits the counters");
        assert!(s.estimate(7) >= 2);
    }

    #[test]
    fn estimates_grow_with_recorded_frequency_and_saturate() {
        let mut s = FrequencySketch::new();
        for _ in 0..40 {
            s.record(42);
        }
        let hot = s.estimate(42);
        assert!(hot >= 10, "hot key underestimated: {hot}");
        assert!(hot <= 16, "4-bit counters + door bound: {hot}");
        s.record(43);
        assert!(s.estimate(43) < hot);
    }

    #[test]
    fn halving_decays_estimates_and_clears_the_door() {
        let mut s = FrequencySketch::with_width(64);
        for _ in 0..12 {
            s.record(1);
        }
        let before = s.estimate(1);
        // Drive additions to the sample threshold with distinct keys.
        let mut k = 1_000u64;
        while s.additions() > 0 && k < 1_000 + 2 * 64 * SAMPLE_FACTOR as u64 {
            s.record(k);
            k += 1;
        }
        let after = s.estimate(1);
        assert!(
            after < before,
            "halving must decay the hot key: {before} -> {after}"
        );
    }

    #[test]
    fn deterministic_across_instances() {
        let run = || {
            let mut s = FrequencySketch::new();
            let mut acc = Vec::new();
            for i in 0..5_000u64 {
                acc.push(s.record((i * 7) % 300));
            }
            acc
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn width_rounds_to_power_of_two() {
        assert_eq!(FrequencySketch::with_width(1000).width(), 1024);
        assert_eq!(FrequencySketch::with_width(1).width(), 64);
    }
}
