//! Search algorithms over parameter spaces.
//!
//! All algorithms implement [`SearchAlgorithm`]: given the space and the
//! performance database so far, suggest the next configuration to evaluate.
//! Determinism comes from the caller-provided RNG.

mod anneal;
mod forest;
mod hillclimb;

pub use anneal::AnnealingSearch;
pub use forest::ForestSearch;
pub use hillclimb::HillClimbSearch;

use crate::db::PerfDatabase;
use crate::space::{Config, ParamSpace};
use rand::rngs::SmallRng;
use serde::Deserialize;

/// Every search algorithm the framework ships, as fresh instances — the
/// single source of truth for name ↔ checkpoint-schema pairs. The static
/// model (`pstack-analyze`) audits this list, and the PSA015 lint holds
/// each entry to the [`SearchState`] versioning contract.
pub fn shipped_algorithms() -> Vec<Box<dyn SearchAlgorithm>> {
    vec![
        Box::new(RandomSearch::new()),
        Box::new(ExhaustiveSearch::new()),
        Box::new(ForestSearch::new()),
        Box::new(HillClimbSearch::new()),
        Box::new(AnnealingSearch::default_schedule()),
    ]
}

/// Checkpointable search state: serialize the algorithm's *mutable*
/// position (cursor, walker, frontier, temperature) so a crashed session
/// resumes exactly where it stopped.
///
/// The defaults describe a stateless algorithm — one whose suggestions
/// depend only on `(space, db, rng)`, all of which the session snapshot
/// already carries ([`RandomSearch`], [`ForestSearch`](crate::ForestSearch)).
/// Stateful algorithms override all three methods; `schema_version` must
/// be bumped whenever the shape `save_state` produces changes, so a
/// snapshot from an older build is rejected instead of misread (the
/// PSA015 lint audits every shipped algorithm for this contract).
pub trait SearchState {
    /// Version of the `save_state` schema (≥ 1).
    fn schema_version(&self) -> u32 {
        1
    }

    /// Serialize the mutable search state ([`serde::Value::Null`] for
    /// stateless algorithms).
    fn save_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restore state produced by [`save_state`](Self::save_state).
    ///
    /// # Errors
    /// A description of the mismatch when `state` does not have the shape
    /// this algorithm saves.
    fn load_state(&mut self, _state: &serde::Value) -> Result<(), String> {
        Ok(())
    }
}

/// A sequential search strategy.
pub trait SearchAlgorithm: SearchState {
    /// Algorithm name for reports.
    fn name(&self) -> &str;

    /// Propose the next configuration, or `None` when the strategy is
    /// exhausted (e.g. grid complete). Implementations should avoid
    /// re-suggesting configurations already in `db` where feasible; the
    /// tuner also guards against duplicates.
    fn suggest(
        &mut self,
        space: &ParamSpace,
        db: &PerfDatabase,
        rng: &mut SmallRng,
    ) -> Option<Config>;

    /// Ask for up to `k` proposals to evaluate concurrently (the "ask" half
    /// of an ask-tell loop; results are told back via `db` on the next call).
    ///
    /// Contract:
    /// - Proposals may duplicate `db` entries or each other. The tuner
    ///   filters duplicates and counts them toward its consecutive-duplicate
    ///   early exit, exactly as in the serial loop — implementations should
    ///   avoid duplicates where feasible but must not loop forever trying.
    /// - An empty vec means the strategy is exhausted (e.g. grid complete);
    ///   returning fewer than `k` proposals is otherwise allowed.
    /// - A batch of one is a serial step: `suggest_batch(space, db, rng, 1)`
    ///   returns exactly the configuration [`suggest`](Self::suggest) would
    ///   (nothing where it returns `None`) and leaves `rng` and the
    ///   algorithm's own state as `suggest` would. The serial drivers run
    ///   rounds of one through this method.
    ///
    /// The default implementation asks [`suggest`](Self::suggest) `k` times.
    /// Because `suggest` cannot see proposals that are still in flight, it
    /// may repeat them within the batch; algorithms with cheap membership
    /// awareness (e.g. [`RandomSearch`]) or a rankable candidate pool (e.g.
    /// [`ForestSearch`](crate::ForestSearch)) override this with batch-aware
    /// selection.
    fn suggest_batch(
        &mut self,
        space: &ParamSpace,
        db: &PerfDatabase,
        rng: &mut SmallRng,
        k: usize,
    ) -> Vec<Config> {
        let mut batch = Vec::with_capacity(k);
        for _ in 0..k {
            match self.suggest(space, db, rng) {
                Some(cfg) => batch.push(cfg),
                None => break,
            }
        }
        batch
    }
}

/// Uniform random sampling (the baseline every tuner must beat).
#[derive(Debug, Default)]
pub struct RandomSearch;

impl RandomSearch {
    /// Construct.
    pub fn new() -> Self {
        RandomSearch
    }
}

/// Stateless: every suggestion is derived from `(space, db, rng)` alone.
impl SearchState for RandomSearch {}

impl SearchAlgorithm for RandomSearch {
    fn name(&self) -> &str {
        "random"
    }

    fn suggest(
        &mut self,
        space: &ParamSpace,
        db: &PerfDatabase,
        rng: &mut SmallRng,
    ) -> Option<Config> {
        // A few attempts to dodge duplicates, then accept repetition (the
        // space may be almost fully explored).
        for _ in 0..32 {
            let c = space.sample(rng);
            if !db.contains(&c) {
                return Some(c);
            }
        }
        Some(space.sample(rng))
    }

    /// Batch-aware sampling: each slot draws exactly like the serial
    /// [`suggest`](SearchAlgorithm::suggest) loop, but also dodges proposals
    /// already in this batch. Slot `i` consumes the same RNG stream the
    /// serial loop would on iteration `i` (where the serial loop's freshly
    /// recorded configs are this batch's pending proposals), so a batched
    /// random run visits the identical configuration sequence.
    fn suggest_batch(
        &mut self,
        space: &ParamSpace,
        db: &PerfDatabase,
        rng: &mut SmallRng,
        k: usize,
    ) -> Vec<Config> {
        let mut batch: Vec<Config> = Vec::with_capacity(k);
        for _ in 0..k {
            let mut accepted = None;
            for _ in 0..32 {
                let c = space.sample(rng);
                if !db.contains(&c) && !batch.contains(&c) {
                    accepted = Some(c);
                    break;
                }
            }
            // Mirror the serial fallback draw: accept repetition after 32
            // attempts (the tuner counts the duplicate).
            batch.push(accepted.unwrap_or_else(|| space.sample(rng)));
        }
        batch
    }
}

/// Exhaustive lattice sweep (grid search over every valid configuration).
#[derive(Debug, Default)]
pub struct ExhaustiveSearch {
    /// Raw lattice index (mixed-radix over parameter value counts); invalid
    /// points are skipped at suggest time, keeping each call O(dims)
    /// amortized instead of re-enumerating the lattice prefix.
    raw_cursor: u128,
}

impl ExhaustiveSearch {
    /// Construct.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode a raw lattice index into a configuration (odometer order,
    /// last parameter fastest — matching `ParamSpace::enumerate`).
    fn decode(space: &ParamSpace, mut raw: u128) -> Config {
        let mut cfg = vec![0usize; space.dims()];
        for (slot, p) in cfg.iter_mut().zip(space.params()).rev() {
            let radix = p.values.len() as u128;
            // `raw % radix` is < radix, which itself came from a usize, so
            // the narrowing cast cannot truncate.
            *slot = (raw % radix) as usize;
            raw /= radix;
        }
        cfg
    }
}

impl SearchState for ExhaustiveSearch {
    fn save_state(&self) -> serde::Value {
        // u128 split into two u64 halves: the vendored serde's integer
        // model tops out at u64.
        serde::Value::Map(vec![
            (
                "cursor_hi".to_string(),
                serde::Value::UInt((self.raw_cursor >> 64) as u64),
            ),
            (
                "cursor_lo".to_string(),
                serde::Value::UInt(self.raw_cursor as u64),
            ),
        ])
    }

    fn load_state(&mut self, state: &serde::Value) -> Result<(), String> {
        let half = |key: &str| {
            u64::from_value(state.field(key))
                .map_err(|e| format!("exhaustive cursor field {key}: {e}"))
        };
        self.raw_cursor = ((half("cursor_hi")? as u128) << 64) | half("cursor_lo")? as u128;
        Ok(())
    }
}

impl SearchAlgorithm for ExhaustiveSearch {
    fn name(&self) -> &str {
        "exhaustive"
    }

    fn suggest(
        &mut self,
        space: &ParamSpace,
        _db: &PerfDatabase,
        _rng: &mut SmallRng,
    ) -> Option<Config> {
        let total = space.cardinality();
        while self.raw_cursor < total {
            let cfg = Self::decode(space, self.raw_cursor);
            self.raw_cursor += 1;
            if space.is_valid(&cfg) {
                return Some(cfg);
            }
        }
        None
    }

    /// The next `k` valid lattice points. The cursor advances exactly as in
    /// `k` serial calls, and the grid never repeats itself, so batching is
    /// trivially equivalent to the serial sweep. Returns fewer than `k`
    /// (possibly none) when the grid completes.
    fn suggest_batch(
        &mut self,
        space: &ParamSpace,
        db: &PerfDatabase,
        rng: &mut SmallRng,
        k: usize,
    ) -> Vec<Config> {
        let mut batch = Vec::with_capacity(k);
        while batch.len() < k {
            match self.suggest(space, db, rng) {
                Some(cfg) => batch.push(cfg),
                None => break,
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Param;
    use rand::SeedableRng;

    fn space() -> ParamSpace {
        ParamSpace::new()
            .with(Param::ints("a", [0, 1, 2]))
            .with(Param::ints("b", [0, 1]))
    }

    #[test]
    fn random_avoids_duplicates_when_possible() {
        let s = space();
        let mut db = PerfDatabase::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut alg = RandomSearch::new();
        for _ in 0..6 {
            let c = alg.suggest(&s, &db, &mut rng).unwrap();
            assert!(!db.contains(&c));
            db.record(c, 1.0, Default::default());
        }
        assert_eq!(db.len(), 6); // the whole space, duplicate-free
    }

    #[test]
    fn random_batch_avoids_db_and_in_batch_duplicates() {
        let s = space();
        let mut db = PerfDatabase::new();
        db.record(vec![0, 0], 1.0, Default::default());
        let mut rng = SmallRng::seed_from_u64(3);
        let batch = RandomSearch::new().suggest_batch(&s, &db, &mut rng, 5);
        assert_eq!(batch.len(), 5, "a slot per request, even when repeating");
        let fresh: Vec<_> = batch.iter().filter(|c| !db.contains(c)).collect();
        // 6-point space minus the recorded one leaves exactly 5 fresh.
        let mut uniq = fresh.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 5, "batch-aware sampling found all fresh points");
    }

    #[test]
    fn exhaustive_batch_walks_the_grid_in_order() {
        let s = space();
        let db = PerfDatabase::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut alg = ExhaustiveSearch::new();
        let first = alg.suggest_batch(&s, &db, &mut rng, 4);
        let rest = alg.suggest_batch(&s, &db, &mut rng, 4);
        assert_eq!(first.len(), 4);
        assert_eq!(rest.len(), 2, "grid exhausted mid-batch");
        assert!(alg.suggest_batch(&s, &db, &mut rng, 4).is_empty());
        let mut all = first;
        all.extend(rest);
        all.dedup();
        assert_eq!(all.len(), 6, "every point exactly once, in sweep order");
    }

    #[test]
    fn exhaustive_state_round_trips_mid_sweep() {
        let s = space();
        let db = PerfDatabase::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut alg = ExhaustiveSearch::new();
        for _ in 0..3 {
            alg.suggest(&s, &db, &mut rng);
        }
        let saved = alg.save_state();
        let mut restored = ExhaustiveSearch::new();
        restored.load_state(&saved).expect("well-formed state");
        let mut rest_a = Vec::new();
        while let Some(c) = alg.suggest(&s, &db, &mut rng) {
            rest_a.push(c);
        }
        let mut rest_b = Vec::new();
        while let Some(c) = restored.suggest(&s, &db, &mut rng) {
            rest_b.push(c);
        }
        assert_eq!(rest_a, rest_b, "restored sweep continues identically");
        assert!(ExhaustiveSearch::new()
            .load_state(&serde::Value::Str("junk".into()))
            .is_err());
    }

    #[test]
    fn every_shipped_algorithm_declares_a_schema_version() {
        let shipped = shipped_algorithms();
        assert_eq!(shipped.len(), 5);
        let mut names: Vec<String> = shipped.iter().map(|a| a.name().to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 5, "algorithm names are unique");
        for alg in &shipped {
            assert!(alg.schema_version() >= 1, "{}: version floor", alg.name());
        }
    }

    #[test]
    fn stateful_algorithms_round_trip_through_save_load() {
        // Drive each shipped algorithm a few steps, save, restore into a
        // fresh instance, and check the next suggestions agree (with the
        // RNG stream also cloned — the session snapshot carries both).
        let s = space();
        for make in [
            || -> Box<dyn SearchAlgorithm> { Box::new(RandomSearch::new()) },
            || -> Box<dyn SearchAlgorithm> { Box::new(ExhaustiveSearch::new()) },
            || -> Box<dyn SearchAlgorithm> { Box::new(ForestSearch::new()) },
            || -> Box<dyn SearchAlgorithm> { Box::new(HillClimbSearch::new()) },
            || -> Box<dyn SearchAlgorithm> { Box::new(AnnealingSearch::default_schedule()) },
        ] {
            let mut db = PerfDatabase::new();
            let mut rng = SmallRng::seed_from_u64(17);
            let mut alg = make();
            for _ in 0..4 {
                if let Some(c) = alg.suggest(&s, &db, &mut rng) {
                    if !db.contains(&c) {
                        let o = (c[0] + 2 * c[1]) as f64;
                        db.record(c, o, Default::default());
                    }
                }
            }
            let mut restored = make();
            restored
                .load_state(&alg.save_state())
                .unwrap_or_else(|e| panic!("{}: load failed: {e}", alg.name()));
            let mut rng_b = rng.clone();
            assert_eq!(
                alg.suggest(&s, &db, &mut rng),
                restored.suggest(&s, &db, &mut rng_b),
                "{} diverged after state round-trip",
                restored.name()
            );
        }
    }

    #[test]
    fn batch_of_one_is_a_serial_suggestion() {
        let s = ParamSpace::new()
            .with(Param::ints("a", 0..5))
            .with(Param::ints("b", 0..6))
            .with(Param::boolean("c"));
        let objective = |c: &Config| (c[0] as f64 - 3.0).powi(2) + c[1] as f64 + c[2] as f64;
        let shipped = shipped_algorithms().len();
        // Every shipped algorithm, plus a forest whose initial design ends
        // inside a warm-start prior.
        let make = |i: usize| -> Box<dyn SearchAlgorithm> {
            if i == shipped {
                Box::new(ForestSearch::new().with_init(3))
            } else {
                shipped_algorithms().swap_remove(i)
            }
        };
        for i in 0..=shipped {
            for prior in [0, 5] {
                let mut db = PerfDatabase::new();
                let mut prior_rng = SmallRng::seed_from_u64(99);
                while db.len() < prior {
                    let c = s.sample(&mut prior_rng);
                    if !db.contains(&c) {
                        let o = objective(&c);
                        db.record(c, o, Default::default());
                    }
                }
                let (mut serial, mut batched) = (make(i), make(i));
                let mut rng_serial = SmallRng::seed_from_u64(7);
                let mut rng_batched = SmallRng::seed_from_u64(7);
                // 24 steps carry the default forest's 8-point initial
                // design well into its surrogate phase.
                for step in 0..24 {
                    let what = format!("{} (prior {prior}, step {step})", serial.name());
                    let one = serial.suggest(&s, &db, &mut rng_serial);
                    let batch = batched.suggest_batch(&s, &db, &mut rng_batched, 1);
                    assert_eq!(batch, one.iter().cloned().collect::<Vec<_>>(), "{what}");
                    assert_eq!(rng_serial.state(), rng_batched.state(), "{what}: RNG");
                    let Some(c) = one else { break };
                    if !db.contains(&c) {
                        let o = objective(&c);
                        db.record(c, o, Default::default());
                    }
                }
            }
        }
    }

    #[test]
    fn exhaustive_covers_space_then_stops() {
        let s = space();
        let db = PerfDatabase::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut alg = ExhaustiveSearch::new();
        let mut seen = Vec::new();
        while let Some(c) = alg.suggest(&s, &db, &mut rng) {
            seen.push(c);
        }
        assert_eq!(seen.len(), 6);
        assert!(alg.suggest(&s, &db, &mut rng).is_none());
    }
}
