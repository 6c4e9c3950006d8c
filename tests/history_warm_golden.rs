//! Golden-file regression for history-warmed campaigns.
//!
//! A fixed-seed uc1 (Hypre co-tune, min-EDP) campaign warm-started from the
//! **committed** fixture store under `tests/fixtures/history_store/` must
//! reproduce `tests/goldens/history_warm_uc1.json` byte-for-byte. This pins
//! three things at once: the on-disk shard format (the fixture is read by
//! every future toolchain), the canonical space fingerprint (a silent key
//! change would find zero priors and shift the whole trajectory), and the
//! warm-start arithmetic itself.
//!
//! To regenerate after an intentional format or behaviour change:
//!
//! ```text
//! UPDATE_HISTORY_FIXTURE=1 cargo test --test history_warm_golden
//! UPDATE_GOLDENS=1         cargo test --test history_warm_golden
//! ```
//!
//! then commit the refreshed fixture and golden together. This is the one
//! golden under `tests/goldens/`: `golden_results` holds the cold-run
//! artifacts to their committed `results/` copies instead.

// Integration tests are exempt from the workspace unwrap policy.
#![allow(clippy::disallowed_methods)]

use powerstack::autotune::{history_key, record_report, ForestSearch, Tuner};
use powerstack::core::cotune::HypreCoTune;
use powerstack::core::interfaces::Objective;
use powerstack::history::{HistoryKey, HistoryStore};
use std::path::PathBuf;
use std::sync::Once;

/// Seed of the donor campaign baked into the committed fixture store.
const DONOR_SEED: u64 = 0x5EED_D001;
/// Evaluation budget of the committed donor campaign.
const DONOR_EVALS: usize = 60;
/// Seed of the warmed campaign whose report is the golden.
const CAMPAIGN_SEED: u64 = 20200914;
/// Evaluation budget of the warmed campaign.
const CAMPAIGN_EVALS: usize = 24;
/// `best_k` priors pulled from the fixture store.
const WARM_K: usize = 12;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("history_store")
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("history_warm_uc1.json")
}

fn uc1_key(space: &powerstack::autotune::ParamSpace) -> HistoryKey {
    history_key(space, "hypre", "min-edp")
}

/// Open the committed fixture store, regenerating it first when
/// `UPDATE_HISTORY_FIXTURE=1` (guarded so parallel tests regenerate once).
fn fixture_store() -> HistoryStore {
    static REGEN: Once = Once::new();
    REGEN.call_once(|| {
        if std::env::var("UPDATE_HISTORY_FIXTURE").as_deref() != Ok("1") {
            return;
        }
        let dir = fixture_dir();
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear old fixture");
        }
        let store = HistoryStore::open(&dir).expect("create fixture store");
        let scenario = HypreCoTune::new(Objective::MinEdp);
        let space = scenario.space();
        let donor = Tuner::new(space.clone())
            .max_evals(DONOR_EVALS)
            .seed(DONOR_SEED)
            .run(&mut ForestSearch::new(), |s, c| scenario.evaluate(s, c))
            .expect("donor campaign");
        record_report(&store, &uc1_key(&space), "fixture-donor", &donor)
            .expect("record fixture donor");
        eprintln!("regenerated fixture store at {}", dir.display());
    });
    assert!(
        fixture_dir().join("meta.json").exists(),
        "missing committed fixture store at {} — regenerate with \
         UPDATE_HISTORY_FIXTURE=1 cargo test --test history_warm_golden",
        fixture_dir().display()
    );
    HistoryStore::open(fixture_dir()).expect("open committed fixture store")
}

#[test]
fn fixture_store_is_readable_and_keyed_correctly() {
    let store = fixture_store();
    let scenario = HypreCoTune::new(Objective::MinEdp);
    let space = scenario.space();
    let key = uc1_key(&space);
    let records = store.records(&key).expect("read fixture records");
    assert_eq!(
        records.len(),
        DONOR_EVALS,
        "fixture store must hold exactly the donor campaign's observations"
    );
    assert!(records.iter().all(|r| r.session == "fixture-donor"));
    let stats = store.stats(&key).expect("fixture stats");
    assert!(stats.best_objective.expect("non-empty key").is_finite());
    // The committed records were filed under today's canonical fingerprint:
    // a drift in fingerprint canonicalisation would orphan them.
    assert!(store
        .matching_space(&key.space)
        .expect("matching_space")
        .contains(&key));
}

#[test]
fn warmed_uc1_campaign_matches_golden_byte_for_byte() {
    let store = fixture_store();
    let scenario = HypreCoTune::new(Objective::MinEdp);
    let space = scenario.space();
    let key = uc1_key(&space);

    let report = Tuner::new(space.clone())
        .max_evals(CAMPAIGN_EVALS)
        .seed(CAMPAIGN_SEED)
        .warm_start_from_history(&store, &key, WARM_K)
        .expect("warm start from fixture")
        .run(&mut ForestSearch::new(), |s, c| scenario.evaluate(s, c))
        .expect("warmed campaign");
    assert!(
        report.db.len() > report.evals,
        "campaign received no priors — fixture key did not match"
    );
    let got = serde_json::to_string_pretty(&report).expect("serialize report");

    let path = golden_path();
    if std::env::var("UPDATE_GOLDENS").as_deref() == Ok("1") {
        std::fs::write(&path, &got).expect("bless golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}) — bless with UPDATE_GOLDENS=1 cargo \
             test --test history_warm_golden",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "history-warmed uc1 report drifted from its golden; if intentional, \
         re-bless with UPDATE_GOLDENS=1 and commit fixture + golden together"
    );
}
