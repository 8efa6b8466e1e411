//! User-perceived performance properties (paper Sec. VII outlook:
//! *"other service dependability properties, not exclusively steady-state
//! availability, can be evaluated"* — performability \[6\] is cited
//! explicitly).
//!
//! The network profile's `Communication.throughput` attribute (Fig. 7)
//! feeds two classic capacity analyses over the user-perceived
//! infrastructure:
//!
//! * **widest path** — the best single-route throughput a pair can get,
//! * **max flow** — the aggregate capacity if traffic may split,
//!
//! plus the hop count of the shortest discovered route as a latency proxy.
//! All atomic services execute in sequence (Fig. 10), so the end-to-end
//! session throughput is the minimum over its pairs, and the latency proxy
//! the sum.

use crate::capacity::{max_flow_capacity, widest_path};
use upsim_core::infrastructure::Infrastructure;
use upsim_core::pipeline::UpsimRun;

/// Performance figures of one mapping pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairPerformance {
    /// The atomic service.
    pub atomic_service: String,
    /// Requester component.
    pub requester: String,
    /// Provider component.
    pub provider: String,
    /// Best single-route throughput (Mbit/s); `f64::INFINITY` when
    /// requester == provider.
    pub widest_throughput: f64,
    /// Aggregate (max-flow) throughput (Mbit/s).
    pub max_flow_throughput: f64,
    /// Hop count of the shortest discovered path.
    pub min_hops: usize,
}

/// Service-level performance report.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceReport {
    /// Per-pair figures, in service execution order.
    pub pairs: Vec<PairPerformance>,
    /// Sequential session throughput: the minimum widest-path throughput
    /// over all pairs.
    pub session_throughput: f64,
    /// Latency proxy: total hops across the sequential execution.
    pub total_hops: usize,
}

/// Analyzes the run's discovered pairs against the infrastructure's link
/// throughput attributes.
///
/// Links without a `throughput` attribute are treated as zero-capacity
/// (they cannot carry service traffic) — the builder API always sets one,
/// so this only affects hand-assembled models.
pub fn analyze(infrastructure: &Infrastructure, run: &UpsimRun) -> PerformanceReport {
    let (graph, index) = infrastructure.to_graph();
    let throughput = |edge: ict_graph::EdgeId| -> f64 {
        let link_index = *graph.edge(edge).expect("live edge");
        infrastructure
            .link_attr(link_index, "throughput")
            .unwrap_or(0.0)
    };

    let mut pairs = Vec::with_capacity(run.discovered.len());
    for discovered in &run.discovered {
        let source = index[&discovered.pair.requester];
        let target = index[&discovered.pair.provider];
        let widest = widest_path(&graph, source, target, throughput)
            .map(|(_, w)| w)
            .unwrap_or(0.0);
        let flow = if source == target {
            f64::INFINITY
        } else {
            max_flow_capacity(&graph, source, target, throughput)
        };
        let min_hops = discovered
            .interned()
            .iter()
            .map(|p| p.len().saturating_sub(1))
            .min()
            .unwrap_or(0);
        pairs.push(PairPerformance {
            atomic_service: discovered.pair.atomic_service.clone(),
            requester: discovered.pair.requester.clone(),
            provider: discovered.pair.provider.clone(),
            widest_throughput: widest,
            max_flow_throughput: flow,
            min_hops,
        });
    }
    let session_throughput = pairs
        .iter()
        .map(|p| p.widest_throughput)
        .fold(f64::INFINITY, f64::min);
    let total_hops = pairs.iter().map(|p| p.min_hops).sum();
    PerformanceReport {
        pairs,
        session_throughput: if session_throughput.is_infinite() && run.discovered.is_empty() {
            0.0
        } else {
            session_throughput
        },
        total_hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsim_core::infrastructure::{DeviceClassSpec, LinkClassSpec};
    use upsim_core::mapping::{ServiceMapping, ServiceMappingPair};
    use upsim_core::pipeline::UpsimPipeline;
    use upsim_core::service::CompositeService;

    /// t1 -(1000)- fastsw -(1000)- srv  and  t1 -(100)- slowsw -(100)- srv
    fn fixture() -> (Infrastructure, UpsimRun) {
        let mut infra = Infrastructure::new("perf");
        infra
            .define_device_class(DeviceClassSpec::client("C", 3000.0, 24.0))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::switch("Fast", 100_000.0, 0.5))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::switch("Slow", 100_000.0, 0.5))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::server("S", 60_000.0, 0.1))
            .unwrap();
        for (n, c) in [
            ("t1", "C"),
            ("fastsw", "Fast"),
            ("slowsw", "Slow"),
            ("srv", "S"),
        ] {
            infra.add_device(n, c).unwrap();
        }
        infra.connect("t1", "fastsw").unwrap();
        infra.connect("fastsw", "srv").unwrap();
        infra.set_default_link(LinkClassSpec {
            throughput: 100.0,
            ..Default::default()
        });
        infra.connect("t1", "slowsw").unwrap();
        infra.connect("slowsw", "srv").unwrap();

        let svc = CompositeService::sequential("f", &["up", "down"]).unwrap();
        let mapping = ServiceMapping::new()
            .with(ServiceMappingPair::new("up", "t1", "srv"))
            .with(ServiceMappingPair::new("down", "srv", "t1"));
        let mut pipeline = UpsimPipeline::new(infra.clone(), svc, mapping).unwrap();
        let run = pipeline.run().unwrap();
        (infra, run)
    }

    #[test]
    fn widest_route_is_the_gigabit_path() {
        let (infra, run) = fixture();
        let report = analyze(&infra, &run);
        assert_eq!(report.pairs.len(), 2);
        assert!((report.pairs[0].widest_throughput - 1000.0).abs() < 1e-9);
        // Aggregate: both routes together.
        assert!((report.pairs[0].max_flow_throughput - 1100.0).abs() < 1e-9);
        assert_eq!(report.pairs[0].min_hops, 2);
    }

    #[test]
    fn session_throughput_is_min_over_pairs() {
        let (infra, run) = fixture();
        let report = analyze(&infra, &run);
        assert!((report.session_throughput - 1000.0).abs() < 1e-9);
        assert_eq!(report.total_hops, 4);
    }

    #[test]
    fn colocated_pair_is_unbounded() {
        let mut infra = Infrastructure::new("local");
        infra
            .define_device_class(DeviceClassSpec::server("S", 60_000.0, 0.1))
            .unwrap();
        infra.add_device("srv", "S").unwrap();
        let svc = CompositeService::sequential("f", &["log"]).unwrap();
        let mapping = ServiceMapping::new().with(ServiceMappingPair::new("log", "srv", "srv"));
        let mut pipeline = UpsimPipeline::new(infra.clone(), svc, mapping).unwrap();
        let run = pipeline.run().unwrap();
        let report = analyze(&infra, &run);
        assert!(report.pairs[0].widest_throughput.is_infinite());
        assert_eq!(report.pairs[0].min_hops, 0);
    }

    #[test]
    fn usi_printing_session_is_gigabit() {
        let infra = netgen::usi::usi_infrastructure();
        let mut pipeline = UpsimPipeline::new(
            infra.clone(),
            netgen::usi::printing_service(),
            netgen::usi::table_i_mapping(),
        )
        .unwrap();
        let run = pipeline.run().unwrap();
        let report = analyze(&infra, &run);
        // All USI links are defaulted to 1000 Mbit/s.
        assert!((report.session_throughput - 1000.0).abs() < 1e-9);
        // The client is single-homed, so its aggregate is access-link bound.
        assert!((report.pairs[0].max_flow_throughput - 1000.0).abs() < 1e-9);
        // Between the dual-homed distribution switches the redundant core
        // doubles the aggregate capacity.
        let (graph, index) = infra.to_graph();
        let throughput = |edge: ict_graph::EdgeId| {
            infra
                .link_attr(*graph.edge(edge).unwrap(), "throughput")
                .unwrap_or(0.0)
        };
        let core_flow =
            crate::capacity::max_flow_capacity(&graph, index["d1"], index["d4"], throughput);
        assert!(
            (core_flow - 2000.0).abs() < 1e-9,
            "core aggregate: {core_flow}"
        );
    }
}
