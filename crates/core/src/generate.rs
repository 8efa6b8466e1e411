//! UPSIM generation — methodology Step 8.
//!
//! Paper Sec. VI-H: *"The last step comprises matching the elements of the
//! paths obtained in the previous step to the complete infrastructure.
//! This step is completely automated and behaves like a filter on the
//! complete topology, where only nodes which appear at least once in the
//! discovered paths are preserved. Multiple occurrences are ignored."*
//!
//! Since all atomic services of a composite service are executed, the paths
//! of **all** mapping pairs are merged into one object diagram (Sec. V-E).
//! Links are preserved when they are traversed by at least one discovered
//! path — exactly the "merge of paths" semantics; a link between two kept
//! nodes that no path uses is not part of any requester→provider route and
//! is dropped.
//!
//! The instanceSpecifications of the UPSIM keep the signatures of the
//! original infrastructure, so every class property (MTBF, MTTR, ...)
//! remains resolvable for the downstream dependability analysis (Sec. V-E).

use crate::discovery::DiscoveredPaths;
use crate::infrastructure::Infrastructure;
use std::collections::HashSet;
use uml::object_diagram::{InstanceSpecification, Link, ObjectDiagram};

/// Merges the discovered paths of all mapping pairs into the UPSIM object
/// diagram (Definition 2). Instances and links keep the infrastructure's
/// declaration order, which makes the output deterministic.
pub fn generate_upsim(
    infrastructure: &Infrastructure,
    discovered: &[DiscoveredPaths],
    name: impl Into<String>,
) -> ObjectDiagram {
    let mut kept_nodes: HashSet<&str> = HashSet::new();
    let mut kept_links: HashSet<usize> = HashSet::new();
    for d in discovered {
        for path in d.interned() {
            for &id in path {
                kept_nodes.insert(d.name(id));
            }
        }
        for links in &d.link_paths {
            for &li in links {
                kept_links.insert(li);
            }
        }
    }

    let mut upsim = ObjectDiagram::new(name);
    for inst in &infrastructure.objects.instances {
        if kept_nodes.contains(inst.name.as_str()) {
            upsim
                .add_instance(InstanceSpecification::new(&inst.name, &inst.class))
                .expect("infrastructure instance names are unique");
        }
    }
    for (i, link) in infrastructure.objects.links.iter().enumerate() {
        if kept_links.contains(&i) {
            upsim
                .add_link(Link::new(&link.association, &link.end_a, &link.end_b))
                .expect("kept links connect kept instances");
        }
    }
    upsim
}

/// Renders an object diagram (the full topology or a UPSIM) as Graphviz
/// DOT, labelling nodes with their UML signature (`t1:Comp`) and edges with
/// their association — the paper's visualization side goal (Sec. VIII).
pub fn object_diagram_dot(diagram: &ObjectDiagram) -> String {
    let mut graph: ict_graph::Graph<String, String> = ict_graph::Graph::new_undirected();
    let mut index = std::collections::HashMap::new();
    for inst in &diagram.instances {
        index.insert(inst.name.clone(), graph.add_node(inst.signature()));
    }
    for link in &diagram.links {
        let (Some(&a), Some(&b)) = (index.get(&link.end_a), index.get(&link.end_b)) else {
            continue;
        };
        graph.add_edge(a, b, link.association.clone());
    }
    ict_graph::dot::to_dot(
        &graph,
        &diagram.name,
        |_, label| label.clone(),
        |_, _| String::new(),
    )
}

/// The size-reduction ratio `|UPSIM| / |N|` over instances — the paper's
/// motivation that a user perceives only a fragment of the network.
pub fn reduction_ratio(infrastructure: &Infrastructure, upsim: &ObjectDiagram) -> f64 {
    kept_ratio(infrastructure, upsim.instances.len())
}

/// `kept / |N|` over instances (0 for an empty infrastructure).
pub(crate) fn kept_ratio(infrastructure: &Infrastructure, kept: usize) -> f64 {
    if infrastructure.objects.instances.is_empty() {
        return 0.0;
    }
    kept as f64 / infrastructure.objects.instances.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::discover;
    use crate::infrastructure::DeviceClassSpec;
    use crate::mapping::ServiceMappingPair;

    /// t1 - a - srv, t1 - b - srv, plus an off-path island x-y.
    fn infra() -> Infrastructure {
        let mut infra = Infrastructure::new("net");
        infra
            .define_device_class(DeviceClassSpec::client("Comp", 3000.0, 24.0))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::switch("Sw", 61320.0, 0.5))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::server("Server", 60000.0, 0.1))
            .unwrap();
        for (n, c) in [
            ("t1", "Comp"),
            ("a", "Sw"),
            ("b", "Sw"),
            ("srv", "Server"),
            ("x", "Comp"),
            ("y", "Sw"),
        ] {
            infra.add_device(n, c).unwrap();
        }
        for (u, v) in [
            ("t1", "a"),
            ("t1", "b"),
            ("a", "srv"),
            ("b", "srv"),
            ("x", "y"),
        ] {
            infra.connect(u, v).unwrap();
        }
        infra
    }

    #[test]
    fn upsim_filters_to_path_components() {
        let infra = infra();
        let d = discover(&infra, &ServiceMappingPair::new("s", "t1", "srv")).unwrap();
        let upsim = generate_upsim(&infra, &[d], "upsim");
        let names: Vec<&str> = upsim.instances.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["t1", "a", "b", "srv"]);
        assert_eq!(upsim.links.len(), 4);
        assert!(upsim.is_subdiagram_of(&infra.objects));
        upsim.validate(&infra.classes).unwrap();
    }

    #[test]
    fn signatures_preserved_for_dependability_analysis() {
        let infra = infra();
        let d = discover(&infra, &ServiceMappingPair::new("s", "t1", "srv")).unwrap();
        let upsim = generate_upsim(&infra, &[d], "upsim");
        // Properties still resolvable through the class diagram.
        let v = upsim.instance_value(&infra.classes, "a", "MTBF").unwrap();
        assert_eq!(v.as_real(), Some(61320.0));
    }

    #[test]
    fn multiple_pairs_merge() {
        let infra = infra();
        let d1 = discover(&infra, &ServiceMappingPair::new("s1", "t1", "srv")).unwrap();
        let d2 = discover(&infra, &ServiceMappingPair::new("s2", "x", "y")).unwrap();
        let upsim = generate_upsim(&infra, &[d1, d2], "upsim");
        assert_eq!(upsim.instances.len(), 6);
        assert_eq!(upsim.links.len(), 5);
    }

    #[test]
    fn empty_discovery_gives_empty_upsim() {
        let infra = infra();
        let upsim = generate_upsim(&infra, &[], "upsim");
        assert!(upsim.instances.is_empty());
        assert!(upsim.links.is_empty());
        assert_eq!(reduction_ratio(&infra, &upsim), 0.0);
    }

    #[test]
    fn dot_export_contains_signatures_and_edges() {
        let infra = infra();
        let dot = object_diagram_dot(&infra.objects);
        assert!(dot.contains("t1:Comp"));
        assert!(dot.contains("srv:Server"));
        assert!(dot.contains("--"));
        assert_eq!(dot.matches(" -- ").count(), infra.objects.links.len());
    }

    #[test]
    fn reduction_ratio_reflects_filtering() {
        let infra = infra();
        let d = discover(&infra, &ServiceMappingPair::new("s", "t1", "srv")).unwrap();
        let upsim = generate_upsim(&infra, &[d], "upsim");
        let ratio = reduction_ratio(&infra, &upsim);
        assert!((ratio - 4.0 / 6.0).abs() < 1e-12);
    }
}
