//! Parameterized campus-network generator.
//!
//! Scales the USI architecture (redundant core mesh, dual-homed
//! distribution layer, tree-shaped edge periphery, a server distribution
//! block) to arbitrary sizes for the scalability experiments. Paper Sec. V-D: *"real networks usually contain few loops,
//! while most clients are located in tree-like structures with a low number
//! of edges"* — this generator produces exactly that shape, with the loop
//! density controlled by `core` and the dual-homing.

use upsim_core::infrastructure::{DeviceClassSpec, Infrastructure};
use upsim_core::mapping::{ServiceMapping, ServiceMappingPair};
use upsim_core::service::CompositeService;

/// Shape parameters of a generated campus network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampusParams {
    /// Core switches, connected in a full mesh (≥ 1).
    pub core: usize,
    /// Distribution switches, each dual-homed to two cores (round-robin).
    pub distributions: usize,
    /// Edge switches per distribution switch.
    pub edges_per_distribution: usize,
    /// Client computers per edge switch.
    pub clients_per_edge: usize,
    /// Servers, attached to a dedicated dual-homed server switch.
    pub servers: usize,
    /// Dual-home every edge switch to two distribution switches (requires
    /// `distributions ≥ 2`); gives clients two node-disjoint uplinks, the
    /// topology upgrade E14 suggests for the USI periphery.
    pub dual_homed_edges: bool,
}

impl Default for CampusParams {
    /// Roughly USI-sized.
    fn default() -> Self {
        CampusParams {
            core: 2,
            distributions: 2,
            edges_per_distribution: 2,
            clients_per_edge: 4,
            servers: 3,
            dual_homed_edges: false,
        }
    }
}

impl CampusParams {
    /// Total device count of the generated network.
    pub fn device_count(&self) -> usize {
        let edges = self.distributions * self.edges_per_distribution;
        self.core + self.distributions + 1 /* server switch */ + edges
            + edges * self.clients_per_edge
            + self.servers
    }
}

/// Builds the campus infrastructure. Naming scheme: `core<i>`, `dist<i>`,
/// `edge<d>_<i>`, `t<d>_<e>_<i>`, `srvsw`, `srv<i>`.
pub fn campus_infrastructure(params: CampusParams) -> Infrastructure {
    assert!(params.core >= 1, "need at least one core switch");
    let mut infra = Infrastructure::new("campus");
    for spec in [
        DeviceClassSpec::switch("CoreSwitch", 183_498.0, 0.5),
        DeviceClassSpec::switch("DistSwitch", 188_575.0, 0.5),
        DeviceClassSpec::switch("EdgeSwitch", 199_000.0, 0.5),
        DeviceClassSpec::client("Comp", 3_000.0, 24.0),
        DeviceClassSpec::server("Server", 60_000.0, 0.1),
    ] {
        infra.define_device_class(spec).expect("static classes");
    }

    // Core mesh.
    for i in 0..params.core {
        infra
            .add_device(format!("core{i}"), "CoreSwitch")
            .expect("unique");
    }
    for i in 0..params.core {
        for j in (i + 1)..params.core {
            infra
                .connect(&format!("core{i}"), &format!("core{j}"))
                .expect("live");
        }
    }

    // Dual-homed distribution switches.
    let home = |i: usize| {
        if params.core == 1 {
            (0, 0)
        } else {
            (i % params.core, (i + 1) % params.core)
        }
    };
    for d in 0..params.distributions {
        let name = format!("dist{d}");
        infra.add_device(&name, "DistSwitch").expect("unique");
        let (h1, h2) = home(d);
        infra.connect(&name, &format!("core{h1}")).expect("live");
        if h2 != h1 {
            infra.connect(&name, &format!("core{h2}")).expect("live");
        }
    }

    // Edge trees with clients.
    for d in 0..params.distributions {
        for e in 0..params.edges_per_distribution {
            let edge = format!("edge{d}_{e}");
            infra.add_device(&edge, "EdgeSwitch").expect("unique");
            infra.connect(&edge, &format!("dist{d}")).expect("live");
            if params.dual_homed_edges && params.distributions >= 2 {
                let backup = (d + 1) % params.distributions;
                infra
                    .connect(&edge, &format!("dist{backup}"))
                    .expect("live");
            }
            for c in 0..params.clients_per_edge {
                let client = format!("t{d}_{e}_{c}");
                infra.add_device(&client, "Comp").expect("unique");
                infra.connect(&client, &edge).expect("live");
            }
        }
    }

    // Server block: one dual-homed server switch.
    infra.add_device("srvsw", "DistSwitch").expect("unique");
    let (h1, h2) = home(params.distributions);
    infra.connect("srvsw", &format!("core{h1}")).expect("live");
    if h2 != h1 {
        infra.connect("srvsw", &format!("core{h2}")).expect("live");
    }
    for s in 0..params.servers {
        let srv = format!("srv{s}");
        infra.add_device(&srv, "Server").expect("unique");
        infra.connect(&srv, "srvsw").expect("live");
    }

    infra
}

/// A full scenario: the campus network plus a printing-shaped five-step
/// service between the first client (`t0_0_0`) and the first server
/// (`srv0`), alternating request/response directions like Table I.
pub fn campus_scenario(params: CampusParams) -> (Infrastructure, CompositeService, ServiceMapping) {
    assert!(params.servers >= 1 && params.clients_per_edge >= 1 && params.distributions >= 1);
    let infra = campus_infrastructure(params);
    let service = CompositeService::sequential(
        "fetch",
        &["request", "authorize", "deliver", "acknowledge", "log"],
    )
    .expect("well-formed");
    let client = "t0_0_0";
    let server = "srv0";
    let mapping = ServiceMapping::new()
        .with(ServiceMappingPair::new("request", client, server))
        .with(ServiceMappingPair::new("authorize", server, client))
        .with(ServiceMappingPair::new("deliver", server, client))
        .with(ServiceMappingPair::new("acknowledge", client, server))
        .with(ServiceMappingPair::new("log", server, server));
    (infra, service, mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsim_core::pipeline::UpsimPipeline;

    #[test]
    fn default_campus_is_valid_and_sized_right() {
        let params = CampusParams::default();
        let infra = campus_infrastructure(params);
        infra.validate().unwrap();
        assert_eq!(infra.device_count(), params.device_count());
    }

    #[test]
    fn device_count_formula_matches_generator() {
        for params in [
            CampusParams {
                core: 1,
                distributions: 1,
                edges_per_distribution: 1,
                clients_per_edge: 1,
                servers: 1,
                dual_homed_edges: false,
            },
            CampusParams {
                core: 3,
                distributions: 4,
                edges_per_distribution: 2,
                clients_per_edge: 5,
                servers: 2,
                dual_homed_edges: false,
            },
            CampusParams {
                core: 2,
                distributions: 6,
                edges_per_distribution: 3,
                clients_per_edge: 8,
                servers: 4,
                dual_homed_edges: true,
            },
        ] {
            assert_eq!(
                campus_infrastructure(params).device_count(),
                params.device_count()
            );
        }
    }

    #[test]
    fn dual_homed_edges_double_the_disjoint_routes() {
        let single = CampusParams::default();
        let dual = CampusParams {
            dual_homed_edges: true,
            ..Default::default()
        };
        let disjoint = |params: CampusParams| {
            let infra = campus_infrastructure(params);
            let (g, index) = infra.to_graph();
            ict_graph::disjoint::max_disjoint_paths(&g, index["edge0_0"], index["srvsw"])
        };
        assert_eq!(disjoint(single), 1);
        assert_eq!(disjoint(dual), 2);
    }

    #[test]
    fn scenario_runs_end_to_end() {
        let (infra, service, mapping) = campus_scenario(CampusParams::default());
        let mut pipeline = UpsimPipeline::new(infra, service, mapping).unwrap();
        let run = pipeline.run().unwrap();
        assert!(!run.upsim.instances.is_empty());
        // Client and server are always in the UPSIM.
        assert!(run.upsim.instance("t0_0_0").is_some());
        assert!(run.upsim.instance("srv0").is_some());
        // Other clients never are.
        assert!(run.upsim.instance("t0_0_1").is_none());
        assert!(run.reduction_ratio < 1.0);
    }

    #[test]
    fn single_core_degenerates_gracefully() {
        let params = CampusParams {
            core: 1,
            ..Default::default()
        };
        let infra = campus_infrastructure(params);
        infra.validate().unwrap();
        // Tree-like: exactly one path client → server.
        let (infra, service, mapping) = campus_scenario(params);
        let mut pipeline = UpsimPipeline::new(infra, service, mapping).unwrap();
        let run = pipeline.run().unwrap();
        assert_eq!(run.paths_of("request").unwrap().len(), 1);
    }

    #[test]
    fn dual_homing_gives_redundant_paths() {
        let (infra, service, mapping) = campus_scenario(CampusParams::default());
        let mut pipeline = UpsimPipeline::new(infra, service, mapping).unwrap();
        let run = pipeline.run().unwrap();
        assert!(run.paths_of("request").unwrap().len() >= 2);
    }
}
