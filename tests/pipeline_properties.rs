//! Property-based end-to-end tests of the methodology pipeline on generated
//! campus networks: the UPSIM invariants of Definition 2 must hold for
//! every topology shape and every mapping.

use ict_graph::paths::{for_each_simple_path, DiscoveryScratch, PathLimits};
use netgen::campus::{campus_infrastructure, CampusParams};
use netgen::services::{random_mapping, sequential_service};
use proptest::prelude::*;
use upsim_core::discovery::DiscoveryOptions;
use upsim_core::pipeline::UpsimPipeline;

fn params_strategy() -> impl Strategy<Value = CampusParams> {
    (1usize..=3, 1usize..=4, 1usize..=2, 1usize..=4, 1usize..=3).prop_map(
        |(core, distributions, edges, clients, servers)| CampusParams {
            core,
            distributions,
            edges_per_distribution: edges,
            clients_per_edge: clients,
            servers,
            dual_homed_edges: false,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn upsim_invariants_hold_on_random_campuses(
        params in params_strategy(),
        service_len in 1usize..5,
        seed in 0u64..1000,
    ) {
        let infra = campus_infrastructure(params);
        let service = sequential_service("svc", service_len);
        let mapping = random_mapping(&service, &infra, seed);
        let mut pipeline = UpsimPipeline::new(infra, service, mapping.clone()).unwrap();
        let run = pipeline.run().unwrap();

        // Definition 2: UPSIM ⊆ N with identical signatures.
        prop_assert!(run.upsim.is_subdiagram_of(&pipeline.infrastructure().objects));
        run.upsim.validate(&pipeline.infrastructure().classes).unwrap();
        prop_assert!(run.reduction_ratio <= 1.0 + 1e-12);

        // Campus networks are connected, so every pair has ≥ 1 path and
        // requester + provider are always in the UPSIM.
        for d in &run.discovered {
            prop_assert!(!d.is_empty(), "pair {:?} found no path", d.pair);
            prop_assert!(run.upsim.instance(&d.pair.requester).is_some());
            prop_assert!(run.upsim.instance(&d.pair.provider).is_some());
            // Every path starts at the requester and ends at the provider.
            for path in d.named_paths() {
                prop_assert_eq!(path.first().unwrap(), &d.pair.requester);
                prop_assert_eq!(path.last().unwrap(), &d.pair.provider);
            }
        }

        // Every UPSIM instance lies on some discovered path.
        for inst in &run.upsim.instances {
            let on_some_path = run.discovered.iter().any(|d| {
                let id = d.name_table().id(&inst.name);
                id.is_some_and(|id| d.interned().iter().any(|p| p.contains(&id)))
            });
            prop_assert!(on_some_path, "{} not on any path", inst.name);
        }
    }

    #[test]
    fn rerun_is_deterministic(params in params_strategy(), seed in 0u64..100) {
        let infra = campus_infrastructure(params);
        let service = sequential_service("svc", 3);
        let mapping = random_mapping(&service, &infra, seed);
        let mut p1 = UpsimPipeline::new(infra.clone(), service.clone(), mapping.clone()).unwrap();
        let mut p2 = UpsimPipeline::new(infra, service, mapping).unwrap();
        let r1 = p1.run().unwrap();
        let r2 = p2.run().unwrap();
        prop_assert_eq!(&r1.upsim, &r2.upsim);
        // And a warm re-run yields the identical UPSIM again.
        let r1b = p1.run().unwrap();
        prop_assert_eq!(&r1.upsim, &r1b.upsim);
    }

    #[test]
    fn parallel_discovery_equals_sequential_at_pipeline_level(
        params in params_strategy(),
        seed in 0u64..100,
    ) {
        let infra = campus_infrastructure(params);
        let service = sequential_service("svc", 2);
        let mapping = random_mapping(&service, &infra, seed);
        let mut seq = UpsimPipeline::new(infra.clone(), service.clone(), mapping.clone()).unwrap();
        let mut par = UpsimPipeline::new(infra, service, mapping).unwrap();
        par.set_options(DiscoveryOptions { parallel: true, threads: 3, ..Default::default() });
        let rs = seq.run().unwrap();
        let rp = par.run().unwrap();
        prop_assert_eq!(&rs.upsim, &rp.upsim);
        for (a, b) in rs.discovered.iter().zip(&rp.discovered) {
            let mut pa = a.interned().to_vec();
            let mut pb = b.interned().to_vec();
            pa.sort();
            pb.sort();
            prop_assert_eq!(pa, pb);
        }
    }

    #[test]
    fn pruned_discovery_equals_unpruned_on_random_campuses(
        params in params_strategy(),
        seed in 0u64..100,
    ) {
        let infra = campus_infrastructure(params);
        let service = sequential_service("svc", 2);
        let mapping = random_mapping(&service, &infra, seed);
        let view = infra.to_interned_graph();
        let graph = view.graph();
        let mut pruned = UpsimPipeline::new(infra.clone(), service, mapping).unwrap();
        let run = pruned.run().unwrap();
        // Block-cut-tree masking must be invisible: per atomic service, the
        // unmasked kernel on the interned graph lists the identical paths
        // in the identical DFS emission order.
        let mut scratch = DiscoveryScratch::new();
        for d in &run.discovered {
            let mut nodes_seen: Vec<Vec<u32>> = Vec::new();
            let mut links_seen: Vec<Vec<usize>> = Vec::new();
            for_each_simple_path(
                graph,
                view.node_of(&d.pair.requester).unwrap(),
                view.node_of(&d.pair.provider).unwrap(),
                PathLimits::unlimited(),
                None,
                &mut scratch,
                |nodes, edges| {
                    nodes_seen.push(nodes.iter().map(|n| n.index() as u32).collect());
                    links_seen.push(edges.iter().map(|&e| *graph.edge(e).unwrap()).collect());
                },
            );
            prop_assert_eq!(d.interned(), nodes_seen.as_slice());
            prop_assert_eq!(&d.link_paths, &links_seen);
        }
    }

    #[test]
    fn topology_damage_never_grows_the_path_set(
        params in params_strategy(),
        seed in 0u64..100,
    ) {
        let infra = campus_infrastructure(params);
        let service = sequential_service("svc", 1);
        let mapping = random_mapping(&service, &infra, seed);
        let mut pipeline = UpsimPipeline::new(infra, service, mapping).unwrap();
        let before = pipeline.run().unwrap().discovered[0].len();
        // Remove one core-distribution link (if the campus has a redundant
        // one) and re-run: the path count can only shrink.
        let removed = pipeline
            .update_infrastructure(|infra| {
                infra.disconnect("dist0", "core0")?;
                Ok(())
            })
            .is_ok();
        if removed {
            let after = pipeline.run().unwrap().discovered[0].len();
            prop_assert!(after <= before, "paths grew after damage: {before} -> {after}");
        }
    }
}
