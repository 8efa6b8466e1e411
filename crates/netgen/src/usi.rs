//! The paper's case study: the USI campus network, printing service and
//! Table I mapping.
//!
//! The topology is the reconstruction documented in DESIGN.md §4.1. It is
//! provably consistent with every machine-readable ground truth in the
//! paper:
//!
//! * the two discovery paths printed in Sec. VI-G for the pair
//!   (t1, printS) — `t1—e1—d1—c1—d4—printS` and
//!   `t1—e1—d1—c1—c2—d4—printS` — exist,
//! * the Fig. 11 UPSIM (printing from T1 to P2 via printS) contains exactly
//!   {t1, e1, d1, d2, c1, c2, d4, e3, p2, printS},
//! * the Fig. 12 UPSIM (printing from T15 to P3 via printS) contains
//!   exactly {t15, e4, d1, d2, c1, c2, d4, p3, printS} — note `d1`
//!   appearing purely as a redundant core transit c1–d1–c2,
//! * `d3` appears in neither UPSIM, forcing it single-homed.
//!
//! Class dependability attributes follow Fig. 8 (see DESIGN.md §4.2 for the
//! one ambiguous C6500/C2960 assignment).

use upsim_core::infrastructure::{DeviceClassSpec, Infrastructure};
use upsim_core::mapping::{ServiceMapping, ServiceMappingPair};
use upsim_core::service::CompositeService;

/// The five atomic services of the printing service (Fig. 10), in order.
pub const PRINTING_ATOMIC_SERVICES: [&str; 5] = [
    "Request printing",
    "Login to printer",
    "Send document list",
    "Select documents",
    "Send documents",
];

/// Expected UPSIM node set of Fig. 11 (perspective T1 → P2 via printS).
pub const EXPECTED_FIG11_NODES: [&str; 10] = [
    "t1", "e1", "d1", "d2", "c1", "c2", "d4", "e3", "p2", "printS",
];

/// Expected UPSIM node set of Fig. 12 (perspective T15 → P3 via printS).
pub const EXPECTED_FIG12_NODES: [&str; 9] =
    ["t15", "e4", "d1", "d2", "c1", "c2", "d4", "p3", "printS"];

/// The two discovery paths printed in Sec. VI-G for (t1, printS).
pub const PRINTED_PATHS_T1_PRINTS: [&[&str]; 2] = [
    &["t1", "e1", "d1", "c1", "d4", "printS"],
    &["t1", "e1", "d1", "c1", "c2", "d4", "printS"],
];

/// Builds the class diagram of Fig. 8 and the topology of Figs. 5/9.
pub fn usi_infrastructure() -> Infrastructure {
    let mut infra = Infrastructure::new("usi");

    // Fig. 8 classes — MTBF/MTTR in hours, redundantComponents = 0.
    for spec in [
        DeviceClassSpec::server("Server", 60_000.0, 0.1),
        DeviceClassSpec::switch("C6500", 183_498.0, 0.5)
            .with_manufacturer("Cisco")
            .with_model("Catalyst 6500"),
        DeviceClassSpec::switch("C2960", 61_320.0, 0.5)
            .with_manufacturer("Cisco")
            .with_model("Catalyst 2960"),
        DeviceClassSpec::switch("HP2650", 199_000.0, 0.5)
            .with_manufacturer("HP")
            .with_model("ProCurve 2650"),
        DeviceClassSpec::switch("C3750", 188_575.0, 0.5)
            .with_manufacturer("Cisco")
            .with_model("Catalyst 3750"),
        DeviceClassSpec::client("Comp", 3_000.0, 24.0),
        DeviceClassSpec::printer("Printer", 2_880.0, 1.0),
    ] {
        infra
            .define_device_class(spec)
            .expect("static class table is consistent");
    }

    // Devices (Fig. 5): core, distribution, edge, clients, printers, servers.
    let devices: [(&str, &str); 34] = [
        ("c1", "C6500"),
        ("c2", "C6500"),
        ("d1", "C3750"),
        ("d2", "C3750"),
        ("d3", "C2960"),
        ("d4", "C2960"),
        ("e1", "HP2650"),
        ("e2", "HP2650"),
        ("e3", "HP2650"),
        ("e4", "HP2650"),
        ("t1", "Comp"),
        ("t2", "Comp"),
        ("t3", "Comp"),
        ("t4", "Comp"),
        ("t5", "Comp"),
        ("t6", "Comp"),
        ("t7", "Comp"),
        ("t8", "Comp"),
        ("t9", "Comp"),
        ("t10", "Comp"),
        ("t11", "Comp"),
        ("t12", "Comp"),
        ("t13", "Comp"),
        ("t14", "Comp"),
        ("t15", "Comp"),
        ("p1", "Printer"),
        ("p2", "Printer"),
        ("p3", "Printer"),
        ("db", "Server"),
        ("backup", "Server"),
        ("email", "Server"),
        ("file1", "Server"),
        ("file2", "Server"),
        ("printS", "Server"),
    ];
    for (name, class) in devices {
        infra
            .add_device(name, class)
            .expect("device table is consistent");
    }

    // Links (36). Core mesh with redundant connections; d1/d2/d4 dual-homed,
    // d3 single-homed (see module docs for the evidence).
    let links: [(&str, &str); 36] = [
        // core
        ("c1", "c2"),
        // distribution to core
        ("d1", "c1"),
        ("d1", "c2"),
        ("d2", "c1"),
        ("d2", "c2"),
        ("d4", "c1"),
        ("d4", "c2"),
        ("d3", "c1"),
        // edge to distribution
        ("e1", "d1"),
        ("e2", "d1"),
        ("e3", "d2"),
        ("e4", "d2"),
        // clients and printers to edge switches
        ("t1", "e1"),
        ("t2", "e1"),
        ("t3", "e1"),
        ("t4", "e1"),
        ("t5", "e1"),
        ("t6", "e2"),
        ("t7", "e2"),
        ("t8", "e2"),
        ("t9", "e2"),
        ("p1", "e2"),
        ("t10", "e3"),
        ("t11", "e3"),
        ("t12", "e3"),
        ("t13", "e3"),
        ("p2", "e3"),
        ("t14", "e4"),
        ("t15", "e4"),
        ("p3", "e4"),
        // servers to server-distribution switches
        ("db", "d3"),
        ("backup", "d3"),
        ("email", "d3"),
        ("file1", "d4"),
        ("file2", "d4"),
        ("printS", "d4"),
    ];
    for (a, b) in links {
        infra.connect(a, b).expect("link table is consistent");
    }

    infra
}

/// The printing service of Fig. 10: five atomic services in sequence.
pub fn printing_service() -> CompositeService {
    CompositeService::sequential("printing", &PRINTING_ATOMIC_SERVICES)
        .expect("the printing service is well-formed")
}

/// Table I: the service mapping for the perspective *requester T1, printer
/// P2, print server printS*.
pub fn table_i_mapping() -> ServiceMapping {
    ServiceMapping::new()
        .with(ServiceMappingPair::new("Request printing", "t1", "printS"))
        .with(ServiceMappingPair::new("Login to printer", "p2", "printS"))
        .with(ServiceMappingPair::new(
            "Send document list",
            "printS",
            "p2",
        ))
        .with(ServiceMappingPair::new("Select documents", "p2", "printS"))
        .with(ServiceMappingPair::new("Send documents", "printS", "p2"))
}

/// The backup service the paper names among the campus services
/// (Sec. VI: "Atomic services can compose composite services (e.g.
/// printing, backup)"). Three atomic services: authenticate against the
/// db, request the backup, transfer the data back.
pub fn backup_service() -> CompositeService {
    CompositeService::sequential(
        "backup",
        &["Authenticate", "Request backup", "Transfer data"],
    )
    .expect("the backup service is well-formed")
}

/// A mapping for the backup service: client `t3` backing up to the
/// `backup` server, authenticating against `db`.
pub fn backup_mapping() -> ServiceMapping {
    ServiceMapping::new()
        .with(ServiceMappingPair::new("Authenticate", "t3", "db"))
        .with(ServiceMappingPair::new("Request backup", "t3", "backup"))
        .with(ServiceMappingPair::new("Transfer data", "backup", "t3"))
}

/// All printing perspectives: one Table-I-shaped mapping per
/// (client, printer) combination, always through `printS`. The paper's
/// founding observation — *"every pair may utilize different ICT
/// components"* — becomes measurable by sweeping these.
pub fn all_printing_perspectives() -> Vec<(String, String, ServiceMapping)> {
    let clients: Vec<String> = (1..=15).map(|i| format!("t{i}")).collect();
    let printers = ["p1", "p2", "p3"];
    let mut out = Vec::with_capacity(clients.len() * printers.len());
    for client in &clients {
        for printer in printers {
            out.push((
                client.clone(),
                printer.to_string(),
                perspective_mapping(client, printer),
            ));
        }
    }
    out
}

/// The Table-I-shaped mapping of one printing perspective: requester
/// `client`, printer `printer`, always through `printS`. This is the
/// per-pair form of [`all_printing_perspectives`], used by resident query
/// engines that materialize perspectives on demand.
pub fn perspective_mapping(client: &str, printer: &str) -> ServiceMapping {
    ServiceMapping::new()
        .with(ServiceMappingPair::new(
            "Request printing",
            client,
            "printS",
        ))
        .with(ServiceMappingPair::new(
            "Login to printer",
            printer,
            "printS",
        ))
        .with(ServiceMappingPair::new(
            "Send document list",
            "printS",
            printer,
        ))
        .with(ServiceMappingPair::new(
            "Select documents",
            printer,
            "printS",
        ))
        .with(ServiceMappingPair::new("Send documents", "printS", printer))
}

/// The second perspective of Sec. VI-H: *requester T15, printer P3, same
/// print server* — "only minor adjustments to the service mapping".
pub fn second_perspective_mapping() -> ServiceMapping {
    let mut mapping = table_i_mapping();
    mapping.move_requester("t1", "t15");
    mapping.move_requester("p2", "p3");
    mapping.migrate_provider("p2", "p3");
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsim_core::discovery::discover;
    use upsim_core::mapping::ServiceMappingPair;

    #[test]
    fn census_matches_fig5() {
        let infra = usi_infrastructure();
        assert_eq!(infra.device_count(), 34);
        assert_eq!(infra.link_count(), 36);
        let census = infra.census();
        let get = |class: &str| census.iter().find(|(c, _)| c == class).map(|(_, n)| *n);
        assert_eq!(get("Comp"), Some(15));
        assert_eq!(get("Printer"), Some(3));
        assert_eq!(get("Server"), Some(6));
        assert_eq!(get("C6500"), Some(2));
        assert_eq!(get("C3750"), Some(2));
        assert_eq!(get("C2960"), Some(2));
        assert_eq!(get("HP2650"), Some(4));
    }

    #[test]
    fn class_attributes_match_fig8() {
        let infra = usi_infrastructure();
        for (inst, mtbf, mttr) in [
            ("printS", 60_000.0, 0.1),
            ("c1", 183_498.0, 0.5),
            ("d3", 61_320.0, 0.5),
            ("e1", 199_000.0, 0.5),
            ("d1", 188_575.0, 0.5),
            ("t1", 3_000.0, 24.0),
            ("p2", 2_880.0, 1.0),
        ] {
            assert_eq!(infra.mtbf(inst), Some(mtbf), "{inst} MTBF");
            assert_eq!(infra.mttr(inst), Some(mttr), "{inst} MTTR");
            assert_eq!(
                infra.redundant_components(inst),
                Some(0),
                "{inst} redundancy"
            );
        }
    }

    #[test]
    fn model_is_well_formed() {
        usi_infrastructure().validate().unwrap();
    }

    #[test]
    fn printed_paths_of_sec_vi_g_are_discovered() {
        let infra = usi_infrastructure();
        let d = discover(
            &infra,
            &ServiceMappingPair::new("Request printing", "t1", "printS"),
        )
        .unwrap();
        let found = d.named_paths();
        for expected in PRINTED_PATHS_T1_PRINTS {
            let expected: Vec<String> = expected.iter().map(|s| s.to_string()).collect();
            assert!(
                found.contains(&expected),
                "missing printed path {expected:?}; found {found:?}"
            );
        }
        // The reconstruction yields exactly 6 paths through the redundant
        // core (see module docs).
        assert_eq!(d.len(), 6);
    }

    #[test]
    fn table_i_mapping_is_complete_and_valid() {
        let infra = usi_infrastructure();
        let svc = printing_service();
        let mapping = table_i_mapping();
        mapping.validate(&svc, &infra).unwrap();
        assert_eq!(mapping.pairs().len(), 5);
    }

    #[test]
    fn backup_service_is_valid_and_runs() {
        let infra = usi_infrastructure();
        let svc = backup_service();
        let mapping = backup_mapping();
        mapping.validate(&svc, &infra).unwrap();
        let mut pipeline = upsim_core::pipeline::UpsimPipeline::new(infra, svc, mapping).unwrap();
        let run = pipeline.run().unwrap();
        // Backup traffic stays on the e1/d1/d3 side plus the core.
        assert!(run.upsim.instance("t3").is_some());
        assert!(run.upsim.instance("db").is_some());
        assert!(run.upsim.instance("backup").is_some());
        assert!(
            run.upsim.instance("d3").is_some(),
            "server switch on the path"
        );
        // Edge switches of other subtrees are never transits (leaf side)...
        assert!(run.upsim.instance("e3").is_none());
        assert!(run.upsim.instance("e4").is_none());
        // ...but the dual-homed d4 shows up as a redundant c1–d4–c2 transit.
        assert!(run.upsim.instance("d4").is_some());
    }

    #[test]
    fn perspective_sweep_covers_every_combination() {
        let perspectives = all_printing_perspectives();
        assert_eq!(perspectives.len(), 45);
        let infra = usi_infrastructure();
        let svc = printing_service();
        for (client, printer, mapping) in &perspectives {
            mapping.validate(&svc, &infra).unwrap();
            assert_eq!(&mapping.pair("Request printing").unwrap().requester, client);
            assert_eq!(&mapping.pair("Send documents").unwrap().provider, printer);
        }
        // Table I is the (t1, p2) member of the sweep.
        let t1p2 = perspectives
            .iter()
            .find(|(c, p, _)| c == "t1" && p == "p2")
            .map(|(_, _, m)| m.clone())
            .unwrap();
        assert_eq!(t1p2, table_i_mapping());
    }

    #[test]
    fn second_perspective_only_touches_the_mapping() {
        let mapping = second_perspective_mapping();
        assert_eq!(mapping.pair("Request printing").unwrap().requester, "t15");
        assert_eq!(mapping.pair("Login to printer").unwrap().requester, "p3");
        assert_eq!(mapping.pair("Send documents").unwrap().provider, "p3");
        assert_eq!(mapping.pair("Send documents").unwrap().requester, "printS");
    }
}
