//! Campaign/shard isolation, property-tested: whatever campaign runs —
//! any axis combination, enumerated or parametric, exact or Monte-Carlo
//! — the live shard must come out bit-identical to a twin engine that
//! never saw a campaign: same epoch, same cache residency, and the full
//! 45-perspective USI batch byte-for-byte the same.

use std::sync::Arc;

use netgen::usi::{
    all_printing_perspectives, perspective_mapping, printing_service, usi_infrastructure,
};
use proptest::prelude::*;
use upsim_server::{CampaignSpec, Counter, Engine, EngineConfig, ModelSnapshot};

fn usi_engine(workers: usize) -> Engine {
    let snapshot = ModelSnapshot::new(usi_infrastructure(), printing_service())
        .expect("USI models are consistent");
    Engine::new(
        snapshot,
        EngineConfig {
            workers,
            mapper: Arc::new(|_, client, provider| perspective_mapping(client, provider)),
            ..EngineConfig::default()
        },
    )
}

/// The full 45-perspective batch as bit patterns (the observable the
/// isolation property compares).
fn batch_bits(engine: &Engine) -> Vec<u64> {
    let pairs: Vec<(String, String)> = all_printing_perspectives()
        .iter()
        .map(|(c, p, _)| (c.clone(), p.clone()))
        .collect();
    engine
        .batch(&pairs)
        .into_iter()
        .map(|result| {
            result
                .expect("USI perspective evaluates")
                .availability
                .to_bits()
        })
        .collect()
}

/// Builds a random-but-valid campaign spec from sampled toggles: at least
/// one axis, a small explicit scope, optionally Monte-Carlo pricing.
fn spec_text(kill: bool, cut: bool, drop: bool, scale: u8, mc: Option<u16>) -> String {
    let mut clauses: Vec<String> = Vec::new();
    if kill {
        clauses.push("kill-each-component".to_string());
    }
    if cut {
        clauses.push("cut-each-link".to_string());
    }
    if drop {
        clauses.push("substitute-each-service".to_string());
    }
    match scale {
        1 => clauses.push("scale-mtbf:Printer:0.5".to_string()),
        2 => clauses.push("scale-mtbf:*:0.5,2".to_string()),
        _ => {}
    }
    if clauses.is_empty() {
        clauses.push("kill-each-component".to_string());
    }
    clauses.push("pairs:t1:p2,t6:p1".to_string());
    clauses.push("limit:20000".to_string());
    if let Some(samples) = mc {
        clauses.push(format!("mc:{}:7", 512 + samples as usize));
    }
    clauses.join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Run an arbitrary campaign on one engine and nothing on its twin;
    /// the two must be indistinguishable afterwards (campaign counters
    /// aside).
    #[test]
    fn any_campaign_leaves_the_live_shard_bit_identical_to_a_twin(
        kill in any::<bool>(),
        cut in any::<bool>(),
        drop in any::<bool>(),
        scale in 0u8..3u8,
        mc_on in any::<bool>(),
        mc_samples in 0u16..1024u16,
        warm_first in any::<bool>(),
    ) {
        let campaigned = usi_engine(2);
        let twin = usi_engine(2);

        // Half the cases pre-warm the cache so the property also covers
        // "campaign must not invalidate what is already resident".
        if warm_first {
            batch_bits(&campaigned);
            batch_bits(&twin);
        }
        let epoch_before = campaigned.epoch();
        let cache_before = campaigned.stats().cache_len;

        let text = spec_text(kill, cut, drop, scale, mc_on.then_some(mc_samples));
        let spec = CampaignSpec::parse(&text)
            .unwrap_or_else(|e| panic!("generated spec `{text}` must parse: {e}"));
        let report = campaigned
            .campaign(spec, |_, _| {})
            .unwrap_or_else(|e| panic!("campaign `{text}` must run: {e}"));
        prop_assert!(report.scenarios > 0);

        // Epoch and cache residency are exactly as the twin's.
        prop_assert_eq!(campaigned.epoch(), epoch_before);
        prop_assert_eq!(campaigned.epoch(), twin.epoch());
        prop_assert_eq!(campaigned.stats().cache_len, cache_before);
        prop_assert_eq!(campaigned.stats().cache_len, twin.stats().cache_len);

        // Only the campaign counters distinguish the engines.
        prop_assert_eq!(campaigned.stats()[Counter::CampaignsRun], 1);
        prop_assert_eq!(
            campaigned.stats()[Counter::ScenariosEvaluated],
            report.scenarios as u64
        );
        prop_assert_eq!(twin.stats()[Counter::CampaignsRun], 0);

        // The post-campaign 45-perspective batch is byte-identical.
        prop_assert_eq!(batch_bits(&campaigned), batch_bits(&twin));

        campaigned.shutdown();
        twin.shutdown();
    }
}
