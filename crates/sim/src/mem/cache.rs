//! Set-associative cache timing model with in-flight fill (MSHR-style)
//! merging.
//!
//! The cache tracks tags only — data always lives in the functional global
//! memory image. A lookup returns how the access would have been served,
//! which the memory system converts into latency.

use crate::config::CacheConfig;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Tag present and fill complete.
    Hit,
    /// Tag present but the line is still being filled; carries the cycle the
    /// fill completes (hit-under-miss merge).
    HitPending {
        /// Cycle at which the in-flight fill completes.
        ready_at: u64,
    },
    /// Tag absent; a new fill was allocated. Carries the evicted dirty line
    /// address if a writeback is required.
    Miss {
        /// Sector-aligned address of the evicted dirty line, if any.
        writeback: Option<u32>,
    },
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    /// Cycle at which the fill completes (0 when resident).
    ready_at: u64,
    /// LRU timestamp.
    last_use: u64,
}

const INVALID: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    ready_at: 0,
    last_use: 0,
};

/// Statistics kept by each cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit a resident line.
    pub hits: u64,
    /// Accesses merged into an in-flight fill.
    pub pending_hits: u64,
    /// Accesses that allocated a new fill.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.pending_hits + self.misses
    }

    /// Hit rate counting pending hits as hits; 0 when no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            (self.hits + self.pending_hits) as f64 / total as f64
        }
    }
}

/// A set-associative, write-back, LRU cache timing model.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
    /// `log2(line_bytes)` — geometry is power-of-two, so the per-access
    /// set/tag extraction is two shifts instead of two integer divisions
    /// (which dominated the lookup cost on the issue hot path).
    line_shift: u32,
    /// `log2(line_bytes * sets)`.
    tag_shift: u32,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero sets or ways, or a non-power-of-
    /// two line size or set count (configurations from
    /// [`crate::config::GpuConfig::validate`] never do).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.sets > 0 && cfg.ways > 0, "degenerate cache geometry");
        assert!(
            cfg.sets.is_power_of_two() && cfg.line_bytes.is_power_of_two(),
            "cache geometry must be power-of-two"
        );
        let lines = vec![INVALID; cfg.sets * cfg.ways];
        let line_shift = cfg.line_bytes.trailing_zeros();
        let tag_shift = line_shift + cfg.sets.trailing_zeros();
        Self {
            cfg,
            lines,
            clock: 0,
            stats: CacheStats::default(),
            line_shift,
            tag_shift,
        }
    }

    #[inline]
    fn set_of(&self, addr: u32) -> usize {
        (addr as usize >> self.line_shift) & (self.cfg.sets - 1)
    }

    #[inline]
    fn tag_of(&self, addr: u32) -> u32 {
        addr >> self.tag_shift
    }

    /// Looks up `addr` at time `now`. On a miss the caller must complete the
    /// allocation with [`Cache::fill`]. `is_write` marks the line dirty on
    /// hit (write-back).
    pub fn access(&mut self, now: u64, addr: u32, is_write: bool) -> CacheOutcome {
        self.clock += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.cfg.ways;
        let sets = self.cfg.sets as u32;
        let line_bytes = self.cfg.line_bytes as u32;
        let ways = &mut self.lines[base..base + self.cfg.ways];

        for line in ways.iter_mut() {
            if line.valid && line.tag == tag {
                line.last_use = self.clock;
                if is_write {
                    line.dirty = true;
                }
                if line.ready_at > now {
                    self.stats.pending_hits += 1;
                    return CacheOutcome::HitPending {
                        ready_at: line.ready_at,
                    };
                }
                self.stats.hits += 1;
                return CacheOutcome::Hit;
            }
        }

        // Miss: evict LRU (prefer invalid ways).
        self.stats.misses += 1;
        let victim_idx = (0..self.cfg.ways)
            .min_by_key(|&w| {
                let l = &ways[w];
                if l.valid {
                    (1u8, l.last_use)
                } else {
                    (0u8, 0)
                }
            })
            .expect("ways > 0");
        let victim = ways[victim_idx];
        let writeback = if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            Some((victim.tag * sets + set as u32) * line_bytes)
        } else {
            None
        };
        ways[victim_idx] = Line {
            tag,
            valid: true,
            dirty: is_write,
            ready_at: u64::MAX, // provisional until fill() is called
            last_use: self.clock,
        };
        CacheOutcome::Miss { writeback }
    }

    /// Completes the fill started by a miss on `addr`: the line becomes
    /// usable at cycle `ready_at`.
    pub fn fill(&mut self, addr: u32, ready_at: u64) {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.cfg.ways;
        for line in &mut self.lines[base..base + self.cfg.ways] {
            if line.valid && line.tag == tag {
                line.ready_at = ready_at;
                return;
            }
        }
        // The line may have been evicted between access() and fill() by a
        // conflicting allocation in the same batch; that is benign.
    }

    /// Invalidates `addr` if present (used by write-through L1s on stores).
    pub fn invalidate(&mut self, addr: u32) {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.cfg.ways;
        for line in &mut self.lines[base..base + self.cfg.ways] {
            if line.valid && line.tag == tag {
                *line = INVALID;
                return;
            }
        }
    }

    /// Drops all content (used between independent experiment runs).
    pub fn flush(&mut self) {
        self.lines.fill(INVALID);
    }

    /// Zeroes the accumulated statistics.
    pub fn clear_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(matches!(
            c.access(0, 0x100, false),
            CacheOutcome::Miss { writeback: None }
        ));
        c.fill(0x100, 10);
        assert!(matches!(
            c.access(5, 0x100, false),
            CacheOutcome::HitPending { ready_at: 10 }
        ));
        assert!(matches!(c.access(20, 0x100, false), CacheOutcome::Hit));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().pending_hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_word_hits() {
        let mut c = tiny();
        c.access(0, 0x100, false);
        c.fill(0x100, 0);
        assert!(matches!(c.access(1, 0x120, false), CacheOutcome::Hit));
    }

    #[test]
    fn lru_eviction_and_dirty_writeback() {
        let mut c = tiny();
        // Set 0 lines: addresses with (addr/64) % 2 == 0 → 0x000, 0x080, 0x100...
        c.access(0, 0x000, true); // dirty
        c.fill(0x000, 0);
        c.access(1, 0x080, false);
        c.fill(0x080, 0);
        // Touch 0x080 so 0x000 is LRU.
        c.access(2, 0x080, false);
        // New line in set 0 evicts dirty 0x000.
        match c.access(3, 0x100, false) {
            CacheOutcome::Miss { writeback } => assert_eq!(writeback, Some(0x000)),
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn lru_matches_a_naive_model_on_random_streams() {
        // Per set, a plain list of (tag, last use); fills complete at once
        // so pending hits cannot diverge from the model.
        let (sets, ways, line) = (4usize, 2usize, 64u32);
        let mut rng = StdRng::seed_from_u64(0xCAC4_E000);
        for case in 0..64 {
            let mut cache = Cache::new(CacheConfig {
                sets,
                ways,
                line_bytes: line as usize,
            });
            let mut model: Vec<Vec<(u32, u64)>> = vec![Vec::new(); sets];
            for now in 0..rng.gen_range(1..200u64) {
                let addr = rng.gen_range(0..8192u32);
                let got = cache.access(now, addr, false);
                if matches!(got, CacheOutcome::Miss { .. }) {
                    cache.fill(addr, now);
                }
                let entries = &mut model[(addr / line) as usize % sets];
                let tag = addr / (line * sets as u32);
                let hit = match entries.iter_mut().find(|(t, _)| *t == tag) {
                    Some(e) => {
                        e.1 = now;
                        true
                    }
                    None => {
                        if entries.len() == ways {
                            let lru = (0..ways).min_by_key(|&i| entries[i].1).expect("full");
                            entries.remove(lru);
                        }
                        entries.push((tag, now));
                        false
                    }
                };
                assert_eq!(
                    matches!(got, CacheOutcome::Hit | CacheOutcome::HitPending { .. }),
                    hit,
                    "case {case}, access #{now} to {addr:#x}"
                );
            }
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(0, 0x100, false);
        c.fill(0x100, 0);
        c.invalidate(0x100);
        assert!(matches!(
            c.access(1, 0x100, false),
            CacheOutcome::Miss { .. }
        ));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.access(0, 0x0, false);
        c.fill(0x0, 0);
        c.flush();
        assert!(matches!(c.access(1, 0x0, false), CacheOutcome::Miss { .. }));
    }

    #[test]
    fn hit_rate_reports_fraction() {
        let mut c = tiny();
        c.access(0, 0x0, false);
        c.fill(0x0, 0);
        c.access(1, 0x0, false);
        c.access(2, 0x0, false);
        let s = c.stats();
        assert_eq!(s.accesses(), 3);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
