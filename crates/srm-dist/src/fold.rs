//! The cross-shard fold: the carry, and the coordinator's chain.
//!
//! The shards' [`crate::split::KeyRange`]s ascend with the shard index
//! and the splitters are a pure function of `(spec, P)`, so every key of
//! shard `i` is `<=` every key of shard `i + 1`: the global output *is*
//! the shards' sorted runs **in splitter order**, left where the shards wrote them.
//! What the check needs of it — the FNV-1a digest of every key in
//! order, `key >= previous` on every key, the record count and the
//! multiset [`srm_server::fingerprint`] — is a left fold, so it travels
//! as a [`Carry`]: the coordinator asks each non-empty shard in turn to
//! fold its own keys onto the carry the shards before it left
//! ([`Chain`]), and holds the last carry to the input's count and
//! fingerprint ([`Carry::holds`]).  No key crosses to the coordinator,
//! and the global digest is byte-identical to digesting the
//! concatenation, by construction.

use crate::error::{DistError, Result};
pub use srm_server::{Carry, Disorder};

/// What the chain needs next.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Ask this shard to fold its run onto this carry.
    Ask(usize, Carry),
    /// The next shard to fold is still sorting.
    Wait,
    /// Every shard is folded: the global output's carry.
    Complete(Carry),
}

/// The coordinator's side of the fold: the carry, and the first shard
/// not yet folded onto it.
#[derive(Debug, Default)]
pub(crate) struct Chain {
    carry: Carry,
    next: usize,
}

impl Chain {
    /// What to do next, given each shard's sorted record count (`None`
    /// while its sort runs).  An empty shard folds as the identity, so
    /// the chain passes over it without a request.
    pub(crate) fn step(&mut self, records: &[Option<u64>]) -> Step {
        while records.get(self.next) == Some(&Some(0)) {
            self.next += 1;
        }
        match records.get(self.next) {
            None => Step::Complete(self.carry),
            Some(None) => Step::Wait,
            Some(Some(_)) => Step::Ask(self.next, self.carry),
        }
    }

    /// Adopt shard `s`'s reply if it answers the outstanding request.
    /// The carry advances once per shard, so a duplicate or a reply of
    /// a shard already folded is refused (`false`).  `records` is the
    /// count the shard's sort reported; a fold that adds another count
    /// is a typed error, never a recovery.
    pub(crate) fn adopt(&mut self, s: usize, reply: std::result::Result<Carry, Disorder>, records: u64) -> Result<bool> {
        if s != self.next {
            return Ok(false);
        }
        match reply {
            Err(Disorder { first, key, prev }) => Err(DistError::Order { shard: s as u32, first, key, prev }),
            Ok(to) if to.records != self.carry.records + records => Err(DistError::Shard {
                shard: s as u32,
                msg: format!(
                    "its fold took the record count from {} to {}, but its sort reported {records} records",
                    self.carry.records, to.records
                ),
            }),
            Ok(to) => {
                self.carry = to;
                self.next += 1;
                Ok(true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use srm_server::digest_keys;

    /// Drive a chain over canned runs the way the coordinator does: ask
    /// whichever shard is due, fold its run (`b` = 4), adopt the reply.
    /// Returns the shards asked, in order, and the outcome.
    fn drive(runs: &[Vec<u64>], reported: &[u64]) -> (Vec<usize>, Result<Carry>) {
        let records: Vec<Option<u64>> = reported.iter().copied().map(Some).collect();
        let (mut chain, mut asked) = (Chain::default(), Vec::new());
        loop {
            match chain.step(&records) {
                Step::Complete(carry) => return (asked, Ok(carry)),
                Step::Wait => panic!("every shard is done"),
                Step::Ask(s, carry) => {
                    asked.push(s);
                    let reply = carry.fold(runs[s].iter().copied(), 4);
                    if let Err(e) = chain.adopt(s, reply, reported[s]) {
                        return (asked, Err(e));
                    }
                }
            }
        }
    }

    #[test]
    fn empty_shards_are_skipped_without_a_request() {
        let runs = vec![vec![], (0..20).collect(), vec![], vec![], (20..27).collect(), vec![]];
        let all: Vec<u64> = runs.iter().flatten().copied().collect();
        let (asked, carry) = drive(&runs, &[0, 20, 0, 0, 7, 0]);
        let carry = carry.unwrap();
        assert_eq!(asked, vec![1, 4]);
        assert_eq!((carry.records, carry.prev), (27, 26));
        assert_eq!(carry.digest, digest_keys(all));
        assert_eq!(drive(&[vec![], vec![]], &[0, 0]).1.unwrap(), Carry::default());
    }

    #[test]
    fn swapped_partitions_are_a_typed_order_error() {
        let (asked, out) = drive(&[(10..18).collect(), (0..8).collect()], &[8, 8]);
        assert_eq!(asked, vec![0, 1]);
        match out {
            Err(DistError::Order { shard: 1, first: 0, key: 0, prev: 17 }) => {}
            other => panic!("want the order error, got {other:?}"),
        }
        // The offending key's block: the fifth key of a 4-key-block run.
        let carry = Carry { prev: 4, ..Carry::default() };
        assert_eq!(carry.fold([5, 6, 7, 8, 3], 4), Err(Disorder { first: 1, key: 3, prev: 8 }));
    }

    #[test]
    fn a_fold_that_disagrees_with_the_sorts_count_is_a_typed_error() {
        // The coordinator believes shard 0 sorted 16 records; it holds 8.
        let (asked, out) = drive(&[(0..8).collect(), (8..16).collect()], &[16, 8]);
        assert_eq!(asked, vec![0]);
        match out {
            Err(DistError::Shard { shard: 0, msg }) => assert!(msg.contains("reported 16"), "{msg}"),
            other => panic!("want a shard error, got {other:?}"),
        }
    }

    /// A reply is adopted by the request it answers, once: another
    /// shard's reply and a duplicate of the adopted one never advance
    /// the carry.
    #[test]
    fn the_outstanding_request_adopts_its_reply_exactly_once() {
        let records = [Some(2), Some(3), None];
        let mut chain = Chain::default();
        let Step::Ask(0, carry) = chain.step(&records) else { panic!("shard 0 is due") };
        let first = carry.fold([1, 2], 4);
        assert!(!chain.adopt(1, carry.fold([3, 4, 5], 4), 3).unwrap(), "a shard not yet asked");
        assert!(chain.adopt(0, first, 2).unwrap());
        assert!(!chain.adopt(0, first, 2).unwrap(), "a duplicate of the adopted reply");
        let Step::Ask(1, next) = chain.step(&records) else { panic!("shard 1 is due") };
        assert_eq!(Ok(next), first);
        assert!(chain.adopt(1, next.fold([3, 4, 5], 4), 3).unwrap());
        assert!(!chain.adopt(1, next.fold([3, 4, 5], 4), 3).unwrap(), "a resend's late reply");
        assert_eq!(chain.step(&records), Step::Wait, "shard 2 still sorts");
    }

    /// The coordinator's verdict, `oracle_ok`, is the last carry holding
    /// the input's count and fingerprint: a shard whose run gained or
    /// lost a key — its sort reporting the count it holds, so the chain
    /// adopts its fold — or swapped one for another fails it.
    #[test]
    fn a_carry_that_gains_or_loses_a_key_fails_the_verdict() {
        let input: Vec<u64> = (0..40).map(|k| k * 3).collect();
        let want = (input.len() as u64, srm_server::fingerprint(input.iter().copied()));
        let verdict = |runs: [Vec<u64>; 2]| {
            let reported = [runs[0].len() as u64, runs[1].len() as u64];
            drive(&runs, &reported).1.unwrap().holds(want.0, want.1)
        };
        let (lo, hi) = (input[..25].to_vec(), input[25..].to_vec());
        assert!(verdict([lo.clone(), hi.clone()]));
        let lost: Vec<u64> = lo.iter().copied().filter(|&k| k != 30).collect();
        assert!(!verdict([lost, hi.clone()]), "a lost key");
        let mut gained = hi.clone();
        gained.insert(3, gained[3]);
        assert!(!verdict([lo.clone(), gained]), "a gained key");
        let mut swapped = hi.clone();
        swapped[0] += 1;
        assert!(!verdict([lo, swapped]), "a substituted key");
    }

    proptest! {
        /// Folding any split of a sorted key sequence through the carry,
        /// empty pieces included, is `digest_keys` of the whole.
        #[test]
        fn any_split_folds_to_the_digest_of_the_whole(
            keys in vec(any::<u64>(), 0..200usize),
            cuts in vec(any::<usize>(), 0..8usize),
            b in 1usize..9,
        ) {
            let mut keys = keys;
            keys.sort_unstable();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (keys.len() + 1)).collect();
            cuts.push(0);
            cuts.push(keys.len());
            cuts.sort_unstable();
            let mut carry = Carry::default();
            for piece in cuts.windows(2) {
                carry = carry.fold(keys[piece[0]..piece[1]].iter().copied(), b).unwrap();
            }
            prop_assert_eq!(carry.digest, digest_keys(keys.iter().copied()));
            prop_assert_eq!(carry.records, keys.len() as u64);
            prop_assert_eq!(carry.prev, keys.last().copied().unwrap_or(0));
            prop_assert!(carry.holds(keys.len() as u64, srm_server::fingerprint(keys.iter().rev().copied())));
        }
    }
}
