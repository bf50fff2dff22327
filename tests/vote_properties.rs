//! Property-style randomized tests of the NMR majority voter, driven by
//! the offline `rand` compat shim (seeded, reproducible — no external
//! crates).

use higpu::core::vote::{majority_vote, VoteOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 300;

fn random_words(rng: &mut StdRng, words: usize, span: u32) -> Vec<u32> {
    (0..words).map(|_| rng.gen_range(0..span)).collect()
}

/// Corrupting strictly fewer than half of N replicas — at arbitrary words,
/// with arbitrary wrong values — is always outvoted: the vote is never
/// `Tied`, and the voted value equals the clean data.
#[test]
fn minority_corruption_is_always_outvoted() {
    let mut rng = StdRng::seed_from_u64(0xB07E5);
    for case in 0..CASES {
        let replicas = rng.gen_range(3..8usize);
        let words = rng.gen_range(1..24usize);
        let clean = random_words(&mut rng, words, 50);
        let mut copies = vec![clean.clone(); replicas];
        // Corrupt a strict minority of replicas (the shim's gen_range is
        // half-open, hence the + 1).
        let corrupt = rng.gen_range(1..(replicas - 1) / 2 + 1);
        for copy in copies.iter_mut().take(corrupt) {
            let w = rng.gen_range(0..words);
            copy[w] ^= 1 << rng.gen_range(0..32u32);
        }
        let refs: Vec<&[u32]> = copies.iter().map(Vec::as_slice).collect();
        let v = majority_vote(&refs, words);
        assert_eq!(
            v.value, clean,
            "case {case}: N={replicas}, {corrupt} corrupt minority must be outvoted"
        );
        assert!(
            !matches!(v.outcome, VoteOutcome::Tied { .. }),
            "case {case}: a strict minority can never tie: {:?}",
            v.outcome
        );
    }
}

/// The voter never invents data: every voted word is bitwise equal to that
/// word in at least one replica, and a strict-majority word always carries
/// the majority count.
#[test]
fn voted_words_always_come_from_some_replica() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case in 0..CASES {
        let replicas = rng.gen_range(2..7usize);
        let words = rng.gen_range(1..16usize);
        // Small value span forces plenty of accidental agreement and ties.
        let copies: Vec<Vec<u32>> = (0..replicas)
            .map(|_| random_words(&mut rng, words, 4))
            .collect();
        let refs: Vec<&[u32]> = copies.iter().map(Vec::as_slice).collect();
        let v = majority_vote(&refs, words);
        for w in 0..words {
            assert!(
                copies.iter().any(|c| c[w] == v.value[w]),
                "case {case} word {w}: voted value not present in any replica"
            );
            let winners = copies.iter().filter(|c| c[w] == v.value[w]).count();
            let max_count = (0..replicas)
                .map(|i| copies.iter().filter(|c| c[w] == copies[i][w]).count())
                .max()
                .expect("non-empty");
            if max_count * 2 > replicas {
                assert_eq!(
                    winners, max_count,
                    "case {case} word {w}: strict majority must win the word"
                );
            } else {
                assert_eq!(
                    v.value[w], copies[0][w],
                    "case {case} word {w}: tie-break is replica 0"
                );
            }
        }
    }
}

/// Outcome bookkeeping is exact: `corrected_words + tied_words` equals the
/// number of disagreeing words, `first_word` is the earliest disagreement,
/// and unanimity holds iff no word disagrees.
#[test]
fn outcome_counters_match_a_direct_recount() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for case in 0..CASES {
        let replicas = rng.gen_range(2..6usize);
        let words = rng.gen_range(1..16usize);
        let copies: Vec<Vec<u32>> = (0..replicas)
            .map(|_| random_words(&mut rng, words, 3))
            .collect();
        let refs: Vec<&[u32]> = copies.iter().map(Vec::as_slice).collect();
        let v = majority_vote(&refs, words);
        let disagreeing: Vec<usize> = (0..words)
            .filter(|&w| copies.iter().any(|c| c[w] != copies[0][w]))
            .collect();
        assert_eq!(
            v.outcome.disagreeing_words(),
            disagreeing.len(),
            "case {case}: {:?}",
            v.outcome
        );
        assert_eq!(
            v.outcome.first_disagreement(),
            disagreeing.first().copied(),
            "case {case}"
        );
        assert_eq!(
            v.outcome.is_unanimous(),
            disagreeing.is_empty(),
            "case {case}"
        );
    }
}

/// With exactly two replicas the voter is the DCLS pairwise compare:
/// unanimity iff the copies are equal, otherwise a tie whose surviving
/// value is replica 0's — bit for bit.
#[test]
fn two_replica_vote_is_the_pairwise_compare() {
    let mut rng = StdRng::seed_from_u64(0xD0C5);
    for case in 0..CASES {
        let words = rng.gen_range(1..32usize);
        let a = random_words(&mut rng, words, 6);
        let b = if rng.gen_bool(0.5) {
            a.clone()
        } else {
            random_words(&mut rng, words, 6)
        };
        let v = majority_vote(&[&a, &b], words);
        assert_eq!(v.value, a, "case {case}: replica 0 always survives at N=2");
        let diffs: Vec<usize> = (0..words).filter(|&w| a[w] != b[w]).collect();
        match v.outcome {
            VoteOutcome::Unanimous => assert!(diffs.is_empty(), "case {case}"),
            VoteOutcome::Tied {
                first_word,
                tied_words,
                corrected_words,
            } => {
                assert_eq!(Some(first_word), diffs.first().copied(), "case {case}");
                assert_eq!(tied_words, diffs.len(), "case {case}");
                assert_eq!(corrected_words, 0, "case {case}: N=2 never corrects");
            }
            VoteOutcome::Corrected { .. } => {
                panic!("case {case}: two replicas can never reach a strict majority")
            }
        }
    }
}
