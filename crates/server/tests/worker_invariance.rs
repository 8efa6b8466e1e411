//! Worker-count invariance of campaign reports, property-tested: under
//! the chunked scatter scheduler, copy-on-write scenario overlays, and
//! per-chunk reused evaluation scratch, the rendered JSON report must be
//! byte-identical at 1, 2, 4, and 8 workers for any campaign the spec
//! grammar can express — exact or Monte-Carlo, CRN on or off. `MC`
//! replies, whose trial blocks are shared with helper jobs on idle
//! workers, must be byte-identical across the same pool sizes.

use std::sync::Arc;

use dependability::montecarlo::MonteCarloResult;
use netgen::usi::{perspective_mapping, printing_service, usi_infrastructure};
use proptest::prelude::*;
use upsim_server::protocol::render_mc;
use upsim_server::{
    CampaignSpec, Engine, EngineConfig, ModelSnapshot, UpdateCommand, WireRequest, WireResponse,
};

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

/// Builds a valid campaign spec from sampled toggles: at least one axis,
/// a small explicit scope, optionally Monte-Carlo pricing with or
/// without common random numbers.
fn spec_text(kill: bool, cut: bool, scale: bool, mc: Option<(u16, bool)>) -> String {
    let mut clauses: Vec<String> = Vec::new();
    if kill {
        clauses.push("kill-each-component".to_string());
    }
    if cut {
        clauses.push("cut-each-link".to_string());
    }
    if scale {
        clauses.push("scale-mtbf:*:0.5,2".to_string());
    }
    if clauses.is_empty() {
        clauses.push("kill-each-component".to_string());
    }
    clauses.push("pairs:t1:p2,t6:p1".to_string());
    clauses.push("limit:20000".to_string());
    if let Some((samples, crn)) = mc {
        clauses.push(format!("mc:{}:7", 512 + samples as usize));
        if !crn {
            clauses.push("independent-seeds".to_string());
        }
    }
    clauses.join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same campaign priced by pools of 1, 2, 4, and 8 workers
    /// renders to the same JSON bytes — chunk boundaries, steal order,
    /// and receive order must all be invisible in the report.
    #[test]
    fn campaign_json_is_byte_identical_across_worker_counts(
        kill in any::<bool>(),
        cut in any::<bool>(),
        scale in any::<bool>(),
        mc_on in any::<bool>(),
        mc_samples in 0u16..1024u16,
        crn in any::<bool>(),
    ) {
        let text = spec_text(kill, cut, scale, mc_on.then_some((mc_samples, crn)));
        let mut reference: Option<String> = None;
        for workers in [1usize, 2, 4, 8] {
            let engine = usi_engine(workers);
            let spec = CampaignSpec::parse(&text)
                .unwrap_or_else(|e| panic!("generated spec `{text}` must parse: {e}"));
            let report = engine
                .campaign(spec, |_, _| {})
                .unwrap_or_else(|e| panic!("campaign `{text}` must run: {e}"));
            let json = report.render_json();
            match &reference {
                None => reference = Some(json),
                Some(expected) => prop_assert_eq!(
                    expected,
                    &json,
                    "report bytes diverged at {} workers for `{}`",
                    workers,
                    text
                ),
            }
            engine.shutdown();
        }
    }
}

/// The per-scenario `progress` callback still ticks once per scenario
/// (not per chunk) under chunked submission — the server's PROGRESS
/// milestones depend on it — and the scatter-chunk counters show the
/// coalescing actually happened.
#[test]
fn progress_ticks_per_scenario_under_chunked_scatter() {
    let engine = usi_engine(4);
    let spec =
        CampaignSpec::parse("kill-each-component pairs:t1:p2,t6:p1").expect("literal spec parses");
    let mut seen: Vec<(usize, usize)> = Vec::new();
    let report = engine
        .campaign(spec, |done, total| seen.push((done, total)))
        .expect("campaign runs");
    assert_eq!(seen.len(), report.scenarios);
    let expected: Vec<(usize, usize)> = (1..=report.scenarios)
        .map(|done| (done, report.scenarios))
        .collect();
    assert_eq!(seen, expected, "progress must tick 1..=total in order");
    let stats = engine.stats();
    assert!(
        stats.scatter_chunks > 0,
        "campaign fan-out must be accounted as scatter chunks"
    );
    assert!(
        (stats.scatter_chunks as usize) < report.scenarios + stats.workers * 2,
        "chunking must coalesce scenarios: {} chunks for {} scenarios",
        stats.scatter_chunks,
        report.scenarios
    );
    // Busy-time accounting lands on the worker *after* it streams its
    // last result, so give the counters a moment to settle.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        let stats = engine.stats();
        if stats.tasks_executed >= stats.scatter_chunks {
            assert!(stats.worker_busy_ns > 0, "executed chunks accrue busy time");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "every scatter chunk executes as a pool task ({} < {})",
            stats.tasks_executed,
            stats.scatter_chunks
        );
        std::thread::yield_now();
    }
    engine.shutdown();
}

/// One `MC` reply as the wire renders it, plus the result and interval
/// behind it.
fn mc_reply(
    engine: &Engine,
    samples: usize,
    seed: u64,
    interval: bool,
) -> (String, MonteCarloResult, Option<(f64, f64)>) {
    let (reply_tx, reply_rx) = std::sync::mpsc::channel();
    let request = WireRequest::MonteCarlo {
        client: "t1".into(),
        provider: "p1".into(),
        samples,
        seed,
        interval,
    };
    engine.execute_wire(
        None,
        request,
        Box::new(move |result| {
            let _ = reply_tx.send(result);
        }),
    );
    match reply_rx.recv().expect("MC answers") {
        Ok(WireResponse::MonteCarlo {
            result,
            entry,
            cached,
            interval,
        }) => {
            let source = if cached { "hit" } else { "miss" };
            (
                render_mc(&entry, &result, interval, source),
                result,
                interval,
            )
        }
        Ok(_) => panic!("MC answered with another response"),
        Err(err) => panic!("MC failed: {err}"),
    }
}

/// Point and `interval` `MC` replies are the same bytes at 1, 2, 4 and 8
/// workers, however many helper jobs shared the trial blocks, and equal
/// the in-process kernel run on one thread. The perspective carries
/// observed components, so `interval` runs posterior-resampled.
#[test]
fn mc_replies_are_byte_identical_across_worker_counts() {
    // One trial, one short block, a block and a bit, fewer trials than
    // one full 64-block steal chunk, and a run of many claims.
    const SAMPLES: [usize; 5] = [1, 511, 513, 20_000, 200_000];
    const SEED: u64 = 2013;
    let mut reference: Option<Vec<String>> = None;
    for workers in [1usize, 2, 4, 8] {
        let engine = usi_engine(workers);
        // Closed down-sojourns on the terminal and a core switch.
        let events = vec![
            ("t1".to_string(), false, 1000),
            ("t1".to_string(), true, 1360),
            ("c1".to_string(), false, 2000),
            ("c1".to_string(), true, 2090),
        ];
        engine
            .update(UpdateCommand::ObserveBatch { events })
            .expect("observations apply");
        let entry = engine.query("t1", "p1").expect("perspective evaluates");
        assert!(entry.observed > 0, "t1 -> p1 carries observed components");
        let sampler = entry.mc_program.posterior_sampler(&entry.posterior);
        let mut lines = Vec::new();
        for samples in SAMPLES {
            let (line, result, interval) = mc_reply(&engine, samples, SEED, false);
            assert_eq!(result, entry.mc_program.run(samples, 1, SEED));
            assert_eq!(interval, None);
            lines.push(line);
            let (line, result, interval) = mc_reply(&engine, samples, SEED, true);
            let (expected, band) = entry.mc_program.run_posterior(samples, 1, SEED, &sampler);
            assert_eq!((result, interval), (expected, Some(band)));
            assert!(line.ends_with("sampling=posterior"), "{line}");
            lines.push(line);
        }
        match &reference {
            None => reference = Some(lines),
            Some(expected) => {
                assert_eq!(expected, &lines, "MC replies diverged at {workers} workers")
            }
        }
        engine.shutdown();
    }
}
