//! Memory access coalescing: collapses the per-lane addresses of a warp
//! memory instruction into the minimal set of 32-byte sector transactions.

/// Size of one memory transaction (sector) in bytes.
pub const SECTOR_BYTES: u32 = 32;

/// A single memory transaction produced by the coalescer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Transaction {
    /// Sector-aligned byte address.
    pub addr: u32,
    /// True for stores.
    pub write: bool,
}

/// A fixed-capacity buffer of coalesced transactions — one warp memory
/// instruction produces at most 32 (one sector per lane), so the buffer
/// lives inline and the hot path never touches the heap.
pub type TxBuf = crate::inline_vec::InlineVec<Transaction>;

/// Coalesces the active lanes' addresses into unique sector transactions,
/// writing them into `out` (cleared first). Allocation-free: sorting and
/// de-duplication happen in a stack scratch array.
///
/// `addrs` holds one byte address per lane; `mask` selects the active lanes.
/// The result is sorted by address and de-duplicated, matching the behaviour
/// of hardware coalescers for naturally aligned 4-byte accesses.
pub fn coalesce_into(addrs: &[u32; 32], mask: u32, write: bool, out: &mut TxBuf) {
    out.clear();
    if mask == 0 {
        return;
    }
    // Span of the active sectors. Unit-stride and broadcast accesses — the
    // overwhelming majority — touch a handful of adjacent sectors, so the
    // span almost always fits a 64-bit occupancy bitmap and the sort below
    // never runs: set a bit per sector, then emit set bits in order
    // (already sorted and de-duplicated by construction).
    let mut lo = u32::MAX;
    let mut hi = 0u32;
    let mut m = mask;
    while m != 0 {
        let s = addrs[m.trailing_zeros() as usize] / SECTOR_BYTES;
        lo = lo.min(s);
        hi = hi.max(s);
        m &= m - 1;
    }
    if hi - lo < 64 {
        let mut bits = 0u64;
        let mut m = mask;
        while m != 0 {
            bits |= 1u64 << (addrs[m.trailing_zeros() as usize] / SECTOR_BYTES - lo);
            m &= m - 1;
        }
        while bits != 0 {
            out.push(Transaction {
                addr: (lo + bits.trailing_zeros()) * SECTOR_BYTES,
                write,
            });
            bits &= bits - 1;
        }
        return;
    }
    // Scattered access (span over 64 sectors): sort-and-dedup fallback.
    let mut sectors = [0u32; 32];
    let mut n = 0usize;
    for (lane, &a) in addrs.iter().enumerate() {
        if mask & (1u32 << lane) != 0 {
            sectors[n] = a / SECTOR_BYTES;
            n += 1;
        }
    }
    sectors[..n].sort_unstable();
    let mut prev = None;
    for &s in &sectors[..n] {
        if prev != Some(s) {
            out.push(Transaction {
                addr: s * SECTOR_BYTES,
                write,
            });
            prev = Some(s);
        }
    }
}

/// Heap-allocating convenience wrapper around [`coalesce_into`] for tests
/// and offline analysis. The execution hot path uses [`coalesce_into`].
pub fn coalesce(addrs: &[u32], mask: u32, write: bool) -> Vec<Transaction> {
    let mut padded = [0u32; 32];
    for (lane, &a) in addrs.iter().take(32).enumerate() {
        padded[lane] = a;
    }
    // Lanes beyond the provided slice stay inactive.
    let provided = addrs.len().min(32) as u32;
    let mask = if provided == 32 {
        mask
    } else {
        mask & ((1u32 << provided) - 1)
    };
    let mut buf = TxBuf::new();
    coalesce_into(&padded, mask, write, &mut buf);
    buf.as_slice().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fully_coalesced_warp_uses_four_sectors() {
        // 32 lanes × 4 bytes = 128 bytes = 4 sectors.
        let addrs: Vec<u32> = (0..32).map(|i| 0x1000 + i * 4).collect();
        let txs = coalesce(&addrs, u32::MAX, false);
        assert_eq!(txs.len(), 4);
        assert_eq!(txs[0].addr, 0x1000);
        assert_eq!(txs[3].addr, 0x1000 + 96);
    }

    #[test]
    fn strided_access_explodes_transactions() {
        // Stride of 128 bytes: every lane in its own sector.
        let addrs: Vec<u32> = (0..32).map(|i| i * 128).collect();
        let txs = coalesce(&addrs, u32::MAX, true);
        assert_eq!(txs.len(), 32);
        assert!(txs.iter().all(|t| t.write));
    }

    #[test]
    fn same_address_broadcast_is_one_transaction() {
        let addrs = [0x40u32; 32];
        let txs = coalesce(&addrs, u32::MAX, false);
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].addr, 0x40);
    }

    #[test]
    fn inactive_lanes_are_ignored() {
        let addrs: Vec<u32> = (0..32).map(|i| i * 128).collect();
        let txs = coalesce(&addrs, 0b1, false);
        assert_eq!(txs.len(), 1);
        let txs = coalesce(&addrs, 0, false);
        assert!(txs.is_empty());
    }

    #[test]
    fn coalesce_into_matches_vec_path() {
        let addrs: [u32; 32] = std::array::from_fn(|i| (i as u32 % 7) * 40 + 13);
        for mask in [u32::MAX, 0b1010, 0, 0xffff_0000] {
            let mut buf = TxBuf::new();
            coalesce_into(&addrs, mask, true, &mut buf);
            assert_eq!(buf.as_slice(), coalesce(&addrs, mask, true).as_slice());
        }
    }

    #[test]
    fn txbuf_accumulates_and_compares_by_content() {
        let mut a = TxBuf::new();
        assert!(a.is_empty());
        a.push(Transaction {
            addr: 32,
            write: false,
        });
        assert_eq!(a.len(), 1);
        let mut b = TxBuf::new();
        b.push(Transaction {
            addr: 32,
            write: false,
        });
        assert_eq!(a, b, "equality ignores unused capacity");
        b.push(Transaction {
            addr: 64,
            write: true,
        });
        assert_ne!(a, b);
    }

    #[test]
    fn full_warp_fills_txbuf_to_capacity() {
        // 32 lanes, each in its own sector: the worst case exactly fits.
        let addrs: [u32; 32] = std::array::from_fn(|i| i as u32 * 128);
        let mut buf = TxBuf::new();
        coalesce_into(&addrs, u32::MAX, false, &mut buf);
        assert_eq!(buf.len(), 32);
    }

    #[test]
    fn bitmap_fast_path_matches_sort_reference() {
        // Address patterns straddling the 64-sector window boundary on both
        // sides, plus seeded random ones, compared against a plain
        // sort-and-dedup reference model. Matching it means every active
        // lane's sector is covered by exactly one aligned transaction.
        let mut patterns: Vec<[u32; 32]> = vec![
            std::array::from_fn(|i| 0x1000 + i as u32 * 4), // unit stride
            std::array::from_fn(|i| i as u32 * 63),         // just inside
            std::array::from_fn(|i| i as u32 * 65),         // just outside
            std::array::from_fn(|i| (i as u32).wrapping_mul(0x9e37_79b9) % 8192),
        ];
        let mut rng = StdRng::seed_from_u64(0xC0A1_E5CE);
        patterns.extend((0..64).map(|_| std::array::from_fn(|_| rng.gen_range(0..1_000_000u32))));
        for addrs in &patterns {
            let random_mask = rng.gen_range(0..u64::MAX) as u32;
            for mask in [u32::MAX, 1, 0x8000_0001, 0xaaaa_5555, random_mask] {
                let mut reference: Vec<u32> = (0..32)
                    .filter(|l| mask & (1u32 << l) != 0)
                    .map(|l| addrs[l as usize] / SECTOR_BYTES * SECTOR_BYTES)
                    .collect();
                reference.sort_unstable();
                reference.dedup();
                let mut buf = TxBuf::new();
                coalesce_into(addrs, mask, false, &mut buf);
                let got: Vec<u32> = buf.as_slice().iter().map(|t| t.addr).collect();
                assert_eq!(got, reference, "pattern {addrs:?} mask {mask:#x}");
            }
        }
    }

    #[test]
    fn transactions_are_sector_aligned() {
        let addrs: Vec<u32> = (0..32).map(|i| 13 + i * 4).collect();
        for t in coalesce(&addrs, u32::MAX, false) {
            assert_eq!(t.addr % SECTOR_BYTES, 0);
        }
    }
}
