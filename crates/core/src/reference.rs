//! The full-scan reference round loop: Algorithm 1 with the §5.5 caching
//! as the paper states it, one O(clusters) pass per phase and no index
//! structures. [`Session`](crate::Session) must be observationally
//! identical to it — same targets, same RNG draw stream, same checkpoint
//! bytes at every round boundary — which the lockstep tests below pin.
//!
//! The reference works on [`EngineCheckpoint`]s, the engine's
//! round-boundary state, so comparing the two is comparing bytes.

use crate::budget::BudgetTracker;
use crate::checkpoint::{CachedCheckpoint, EngineCheckpoint, SlotCheckpoint};
use crate::cluster::Cluster;
use crate::draw::bounded_draw;
use crate::engine::Cached;
use crate::select::SelectKey;
use crate::{SixGen, Step, Termination};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The reference selection scan: walk the keys in slot order carrying a
/// running best; a tie with it draws `bounded_draw(t)` for the `t`-th tie
/// and adopts the slot on 0 (a reservoir over slot order).
pub(crate) fn scan_select(keys: &[SelectKey], mut next_word: impl FnMut() -> u64) -> Option<usize> {
    let mut best: Option<(usize, SelectKey)> = None;
    let mut ties: u64 = 0;
    for (i, key) in keys.iter().enumerate().filter(|(_, k)| k.is_ready()) {
        match best.map(|(_, best_key)| key.preference(&best_key)) {
            None | Some(core::cmp::Ordering::Greater) => {
                best = Some((i, *key));
                ties = 1;
            }
            Some(core::cmp::Ordering::Equal) => {
                ties += 1;
                if bounded_draw(&mut next_word, ties) == 0 {
                    best = Some((i, *key));
                }
            }
            Some(core::cmp::Ordering::Less) => {}
        }
    }
    best.map(|(i, _)| i)
}

/// InitClusters: the round-0 state of a run, plus the termination of a
/// run that cannot start.
pub(crate) fn start(engine: &SixGen) -> (EngineCheckpoint, Option<Termination>) {
    let config = &engine.config;
    let mut budget = BudgetTracker::new(config.budget);
    let mut slots = Vec::new();
    let mut done = engine.seeds().is_empty().then_some(Termination::NoSeeds);
    for &seed in engine.seeds() {
        if !budget.add_address(seed) {
            done = Some(Termination::ExhaustedAtInit);
            break;
        }
        slots.push(SlotCheckpoint {
            range: Cluster::singleton(seed).range,
            seed_count: 1,
            cached: CachedCheckpoint::Stale,
        });
    }
    let checkpoint = EngineCheckpoint {
        mode: config.mode,
        unfused_growth: config.unfused_growth,
        rng_seed: config.rng_seed,
        budget: config.budget,
        rng_state: StdRng::seed_from_u64(config.rng_seed).state(),
        rounds: 0,
        growths: 0,
        subsumed: 0,
        worker_panics: 0,
        cpu_time: Duration::ZERO,
        wall_time: Duration::ZERO,
        seeds: engine.seeds().to_vec(),
        stale: (0..slots.len() as u64).collect(),
        slots,
        generated: budget.into_targets(),
    };
    (checkpoint, done)
}

/// One round of Algorithm 1 the old way: fill the stale caches through
/// the engine's own growth evaluation, scan-select on the checkpoint's
/// RNG, charge the budget, commit, and stably compact away the clusters
/// the grown range subsumes. Returns the round's step and the next
/// round-boundary state.
pub(crate) fn step(engine: &SixGen, mut state: EngineCheckpoint) -> (Step, EngineCheckpoint) {
    state.rounds += 1;
    for i in std::mem::take(&mut state.stale) {
        let slot = &mut state.slots[i as usize];
        let cluster = Cluster {
            range: slot.range.clone(),
            seed_count: slot.seed_count,
        };
        let cached = engine.compute_growth(
            &cluster,
            false,
            None,
            None,
            sixgen_obs::SpanId::NONE,
            &mut Duration::default(),
        );
        slot.cached = (&cached).into();
    }
    let keys: Vec<SelectKey> = state
        .slots
        .iter()
        .map(|s| SelectKey::of(&Cached::from(s.cached.clone())))
        .collect();
    let mut rng = StdRng::from_state(state.rng_state);
    let Some(best) = scan_select(&keys, || rng.gen::<u64>()) else {
        return (Step::Done(Termination::AllSeedsClustered), state);
    };
    let CachedCheckpoint::Ready {
        range, seed_count, ..
    } = state.slots[best].cached.clone()
    else {
        unreachable!("selected slot is Ready");
    };
    let mut budget = BudgetTracker::restore(state.budget, std::mem::take(&mut state.generated))
        .expect("generated addresses are unique");
    let done = if budget.cost_if_fits(&range).is_none() {
        budget.charge(&range, &mut rng);
        Some(Termination::BudgetExhausted)
    } else if seed_count == state.seeds.len() as u64 {
        Some(Termination::AllSeedsClustered)
    } else {
        budget.charge(&range, &mut rng);
        None
    };
    state.rng_state = rng.state();
    state.generated = budget.into_targets();
    if let Some(termination) = done {
        return (Step::Done(termination), state);
    }
    state.growths += 1;
    let before = state.slots.len();
    let mut slot_index = 0..;
    let mut grown_index = 0u64;
    state.slots.retain(|s| {
        let i = slot_index.next().unwrap();
        let keep = i == best || !s.range.is_subset(&range);
        grown_index += u64::from(keep && i < best);
        keep
    });
    state.subsumed += (before - state.slots.len()) as u64;
    state.slots[grown_index as usize] = SlotCheckpoint {
        range,
        seed_count,
        cached: CachedCheckpoint::Stale,
    };
    state.stale = vec![grown_index];
    (Step::Grew, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterMode, Config, Outcome};
    use proptest::prelude::*;
    use sixgen_addr::NybbleAddr;

    /// Ten dense three-seed groups plus five stragglers one nybble off a
    /// group member: many rounds, tie-heavy selection (draws every
    /// round), and stragglers swallowed by grown ranges (subsumption).
    fn seeds() -> Vec<NybbleAddr> {
        let groups = (0..30u128).map(|i| ((i / 3 + 1) * 0x1110) | (i % 3));
        let stragglers = (1..=5u128).map(|g| (g * 0x1110) | 8);
        groups
            .chain(stragglers)
            .map(|low| NybbleAddr::from_bits(0x2001_0db8 << 96 | low))
            .collect()
    }

    /// The checkpoint bytes minus the two fields that record real elapsed
    /// time, the one thing two separately executing runs never share.
    fn timeless_bytes(mut checkpoint: EngineCheckpoint) -> Vec<u8> {
        checkpoint.cpu_time = Duration::ZERO;
        checkpoint.wall_time = Duration::ZERO;
        checkpoint.to_bytes()
    }

    /// Asserts that `outcome` is what the reference's final `state`
    /// describes: targets, clusters and stats.
    fn assert_outcome_matches(outcome: &Outcome, state: &EngineCheckpoint, done: Termination) {
        assert_eq!(outcome.targets.as_slice(), state.generated, "targets");
        let clusters = outcome.clusters.iter().map(|c| (&c.range, c.seed_count));
        let slots = state.slots.iter().map(|s| (&s.range, s.seed_count));
        assert!(clusters.eq(slots), "clusters");
        let stats = &outcome.stats;
        let counts = (
            stats.rounds,
            stats.growths,
            stats.subsumed,
            stats.budget_used,
        );
        let used = state.generated.len() as u64;
        let expected = (state.rounds, state.growths, state.subsumed, used);
        assert_eq!((counts, stats.termination), (expected, done), "stats");
    }

    /// Steps a session and the reference side by side, requiring
    /// byte-identical checkpoints at every round boundary — the
    /// checkpoint embeds the RNG state, so this pins the tie-break draw
    /// stream round by round — and identical final outcomes. Returns the
    /// outcome.
    fn lockstep(seeds: Vec<NybbleAddr>, config: Config) -> Outcome {
        let engine = SixGen::new(seeds, config);
        let (mut state, mut done) = start(&engine);
        let mut session = engine.clone().session();
        loop {
            let round = state.rounds;
            assert_eq!(
                timeless_bytes(session.checkpoint()),
                timeless_bytes(state.clone()),
                "checkpoints diverged at round boundary {round}"
            );
            if let Some(termination) = done {
                assert_eq!(session.step(), Step::Done(termination));
                let outcome = session.finish();
                assert_outcome_matches(&outcome, &state, termination);
                return outcome;
            }
            let step;
            (step, state) = super::step(&engine, state);
            assert_eq!(session.step(), step, "step diverged at round {round}");
            if let Step::Done(termination) = step {
                done = Some(termination);
            }
        }
    }

    #[test]
    fn lockstep_checkpoints_are_byte_identical_every_round() {
        for mode in [ClusterMode::Loose, ClusterMode::Tight] {
            for (budget, termination) in [
                (20, Termination::ExhaustedAtInit),
                (400, Termination::BudgetExhausted),
                (1 << 40, Termination::AllSeedsClustered),
            ] {
                let config = Config {
                    mode,
                    budget,
                    ..Config::default()
                };
                let stats = lockstep(seeds(), config).stats;
                assert_eq!(stats.termination, termination, "{mode:?} budget {budget}");
                if budget == 400 {
                    assert!(stats.rounds > 5, "workload must be multi-round");
                    assert!(stats.subsumed > 0, "workload must subsume");
                }
            }
        }
    }

    /// A whole run through `SixGen::run` — parallel cache fills, metrics
    /// attached, no checkpoints taken — ends where the reference ends.
    #[test]
    fn scan_and_incremental_outcomes_are_byte_identical() {
        for mode in [ClusterMode::Loose, ClusterMode::Tight] {
            let config = Config {
                mode,
                budget: 400,
                threads: 4,
                metrics: Some(sixgen_obs::MetricsRegistry::shared()),
                ..Config::default()
            };
            let engine = SixGen::new(seeds(), config);
            let (mut state, _) = start(&engine);
            let done = loop {
                let step;
                (step, state) = super::step(&engine, state);
                if let Step::Done(termination) = step {
                    break termination;
                }
            };
            assert_outcome_matches(&engine.run(), &state, done);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary small seed sets in two /64s, with budgets from below
        /// the seed count (exhausted at init) through mid-run exhaustion
        /// to enough for every seed to cluster.
        #[test]
        fn lockstep_holds_on_random_workloads(
            lows in prop::collection::vec((0u128..2, 0u128..0x1000), 1..40),
            tight in any::<bool>(),
            budget in prop_oneof![1u64..40, 40u64..3000, Just(1u64 << 20)],
            rng_seed in any::<u64>(),
        ) {
            let seeds = lows
                .iter()
                .map(|&(net, host)| NybbleAddr::from_bits(0x2001_0db8 << 96 | net << 64 | host));
            let mode = if tight { ClusterMode::Tight } else { ClusterMode::Loose };
            lockstep(seeds.collect(), Config { mode, budget, rng_seed, ..Config::default() });
        }
    }
}
