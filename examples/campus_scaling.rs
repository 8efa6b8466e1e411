//! Scalability sweep (paper Sec. VIII): generate growing campus networks
//! and measure UPSIM generation end to end, plus the discovery worst case
//! on complete graphs (Sec. V-D).
//!
//! Run with: `cargo run --release --example campus_scaling`

use netgen::campus::{campus_scenario, CampusParams};
use std::time::Instant;
use upsim_core::discovery::discover;
use upsim_core::mapping::ServiceMappingPair;
use upsim_core::pipeline::UpsimPipeline;

fn main() {
    println!("campus sweep: devices vs pipeline wall time\n");
    println!(
        "{:>10} {:>8} {:>12} {:>8} {:>10}",
        "devices", "links", "run [ms]", "UPSIM", "reduction"
    );
    for distributions in [2usize, 4, 8, 16, 32, 64] {
        let params = CampusParams {
            core: 2,
            distributions,
            edges_per_distribution: 2,
            clients_per_edge: 8,
            servers: 3,
            dual_homed_edges: false,
        };
        let (infra, service, mapping) = campus_scenario(params);
        let (devices, links) = (infra.device_count(), infra.link_count());
        let mut pipeline = UpsimPipeline::new(infra, service, mapping).unwrap();
        pipeline.record_paths = false;
        let start = Instant::now();
        let run = pipeline.run().unwrap();
        let elapsed = start.elapsed();
        println!(
            "{:>10} {:>8} {:>12.2} {:>8} {:>10.4}",
            devices,
            links,
            elapsed.as_secs_f64() * 1e3,
            run.upsim.instances.len(),
            run.reduction_ratio
        );
    }

    println!("\nworst case: complete graphs K_n (paper Sec. V-D, O(n!) growth)\n");
    println!("{:>6} {:>10} {:>12}", "n", "paths", "time [ms]");
    for n in [5usize, 6, 7, 8, 9] {
        let infra = netgen::random::complete(n);
        let pair = ServiceMappingPair::new("s", "n0", format!("n{}", n - 1));
        let start = Instant::now();
        let d = discover(&infra, &pair).unwrap();
        println!(
            "{:>6} {:>10} {:>12.2}",
            n,
            d.len(),
            start.elapsed().as_secs_f64() * 1e3
        );
    }
    println!(
        "\nReal campus networks keep few loops (tree-like periphery + redundant core),\n\
         so discovery stays fast even as the network grows — the factorial blow-up is\n\
         confined to pathological dense graphs."
    );
}
