//! The acceptance path for mass what-if campaigns: a
//! `kill-each-component` campaign over the 358-device generated campus,
//! driven end-to-end through the `CAMPAIGN` wire verb — streamed
//! `PROGRESS` lines, a ranked report whose top entry matches the analytic
//! Birnbaum importance, and a live shard left bit-identical to a twin
//! engine that never ran a campaign.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use dependability::perturb::kill_deltas;
use dependability::transform::{AnalysisOptions, ServiceAvailabilityModel};
use netgen::campus::{campus_scenario, CampusParams};
use upsim_core::pipeline::UpsimPipeline;
use upsim_server::{pingpong_mapper, serve, Counter, Engine, EngineConfig, ModelSnapshot};

/// The 358-device campus: 2 cores, 32 distribution switches, 2 edge
/// switches each, 4 clients per edge, 3 servers + server switch.
fn big_campus() -> CampusParams {
    CampusParams {
        core: 2,
        distributions: 32,
        edges_per_distribution: 2,
        clients_per_edge: 4,
        servers: 3,
        dual_homed_edges: false,
    }
}

fn campus_engine(workers: usize) -> Engine {
    let (infrastructure, service, _) = campus_scenario(big_campus());
    let snapshot =
        ModelSnapshot::new(infrastructure, service).expect("campus models are consistent");
    Engine::new(
        snapshot,
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
    )
}

const PAIRS: [(&str, &str); 3] = [("t0_0_0", "srv0"), ("t7_1_2", "srv1"), ("t31_0_3", "srv2")];

fn pairs_clause() -> String {
    let rendered: Vec<String> = PAIRS.iter().map(|(c, p)| format!("{c}:{p}")).collect();
    format!("pairs:{}", rendered.join(","))
}

/// Per-victim (mean delta, worst delta) over the scoped perspectives,
/// from fresh single-shot pipelines and the shared-BDD restrict helper —
/// the analytic reference the ranked report must agree with.
fn analytic_kill_ranking() -> Vec<(String, f64, f64)> {
    let (infrastructure, service, _) = campus_scenario(big_campus());
    let mapper = pingpong_mapper();
    let mut per_victim: std::collections::HashMap<String, (f64, f64)> =
        std::collections::HashMap::new();
    for (client, provider) in PAIRS {
        let mapping = mapper(&service, client, provider);
        let mut pipeline = UpsimPipeline::new(infrastructure.clone(), service.clone(), mapping)
            .expect("campus models consistent");
        pipeline.record_paths = false;
        let run = pipeline.run().expect("pipeline runs");
        let model = ServiceAvailabilityModel::from_run(
            pipeline.infrastructure(),
            &run,
            AnalysisOptions::default(),
        );
        for (victim, delta) in kill_deltas(&model) {
            let entry = per_victim.entry(victim).or_insert((0.0, 0.0));
            entry.0 += delta / PAIRS.len() as f64;
            entry.1 = entry.1.max(delta);
        }
    }
    let mut ranking: Vec<(String, f64, f64)> = per_victim
        .into_iter()
        .map(|(victim, (mean, worst))| (victim, mean, worst))
        .collect();
    // The report's ordering: mean delta desc, worst delta desc, label asc.
    ranking.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then(b.2.total_cmp(&a.2))
            .then(a.0.cmp(&b.0))
    });
    ranking
}

/// Every (client, provider) pair of the campaign scope queried through
/// the normal engine path, as bit patterns.
fn batch_bits(engine: &Engine) -> Vec<u64> {
    let pairs: Vec<(String, String)> = PAIRS
        .iter()
        .map(|(c, p)| (c.to_string(), p.to_string()))
        .collect();
    engine
        .batch(&pairs)
        .into_iter()
        .map(|result| {
            result
                .expect("campus perspective evaluates")
                .availability
                .to_bits()
        })
        .collect()
}

#[test]
fn campus_kill_campaign_over_the_wire_matches_analytic_importance() {
    let engine = campus_engine(4);
    let server = serve(engine, "127.0.0.1:0").expect("ephemeral bind");
    let addr = server.local_addr();

    // An untouched twin of the served engine: same models, no campaign.
    let twin = campus_engine(4);
    let twin_bits = batch_bits(&twin);

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    writer
        .write_all(format!("CAMPAIGN kill-each-component {} json\n", pairs_clause()).as_bytes())
        .and_then(|()| writer.flush())
        .expect("send campaign");

    // The exchange streams PROGRESS milestones and ends with one OK line.
    let mut progress_lines = 0usize;
    let final_line = loop {
        let mut line = String::new();
        assert_ne!(
            reader.read_line(&mut line).expect("read response"),
            0,
            "server closed the connection mid-campaign"
        );
        let line = line.trim_end().to_string();
        if line.starts_with("PROGRESS campaign ") {
            progress_lines += 1;
            continue;
        }
        break line;
    };
    assert!(progress_lines >= 1, "campaign must stream progress");
    assert!(
        final_line.starts_with("OK campaign-json {"),
        "unexpected final line: {final_line}"
    );
    let json = final_line.trim_start_matches("OK campaign-json ");

    // One kill scenario per device — ≥300 on the 358-device campus.
    let devices = big_campus().device_count();
    assert_eq!(devices, 358);
    assert!(json.contains(&format!("\"scenarios\":{devices},")));

    // The top-ranked row is the analytic Birnbaum winner.
    let ranking = analytic_kill_ranking();
    let (winner, winner_mean, _) = &ranking[0];
    let first_label = json
        .split("\"rows\":[{\"label\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("report has ranked rows");
    assert_eq!(first_label, format!("kill:{winner}"));
    let first_mean_delta: f64 = json
        .split("\"mean_delta\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .expect("row has mean_delta")
        .parse()
        .expect("mean_delta is a number");
    assert!(
        (first_mean_delta - winner_mean).abs() < 1e-9,
        "top mean_delta {first_mean_delta} vs analytic {winner_mean}"
    );

    // The live shard is bit-identical to the campaign-free twin: epoch
    // still 0, cache untouched by the campaign, and the same batch of
    // perspectives returns the same bits.
    assert_eq!(server.engine().epoch(), 0);
    assert_eq!(twin.epoch(), 0);
    let stats = server.engine().stats();
    assert_eq!(stats[Counter::CampaignsRun], 1);
    assert_eq!(stats[Counter::ScenariosEvaluated], devices as u64);
    assert_eq!(stats.cache_len, 0, "campaign must not populate the cache");
    assert_eq!(batch_bits(server.engine()), twin_bits);

    writer
        .write_all(b"SHUTDOWN\n")
        .and_then(|()| writer.flush())
        .expect("send shutdown");
    server.join();
    twin.shutdown();
}

/// A campaign request with a bad scope comes back as a single `ERR` line
/// and the connection keeps serving.
#[test]
fn bad_campaign_spec_is_an_err_line_not_a_dead_connection() {
    let engine = campus_engine(2);
    let server = serve(engine, "127.0.0.1:0").expect("ephemeral bind");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;

    let mut request = |line: &str| {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| writer.flush())
            .expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        response.trim_end().to_string()
    };

    let err = request("CAMPAIGN kill-each-component pairs:t0_0_0:nowhere");
    assert!(err.starts_with("ERR "), "{err}");
    assert!(err.contains("nowhere"), "{err}");
    // Still alive: a normal query works on the same connection.
    let ok = request("QUERY t0_0_0 srv0");
    assert!(ok.starts_with("OK query "), "{ok}");

    let bye = request("SHUTDOWN");
    assert!(bye.starts_with("OK shutdown"), "{bye}");
    server.join();
}
