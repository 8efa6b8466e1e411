//! Deep-dive dependability analysis on the case study (paper Sec. VII):
//! every evaluation engine side by side, link failures, the paper's
//! Formula 1 approximation, component importance and a what-if study on
//! redundancy.
//!
//! Run with: `cargo run --release --example availability_analysis`

use dependability::importance::component_importance;
use dependability::transform::{AnalysisOptions, ServiceAvailabilityModel};
use netgen::usi::{printing_service, table_i_mapping, usi_infrastructure};
use upsim_bench::transform::pair_availability_sdp;
use upsim_core::pipeline::UpsimPipeline;

fn model(options: AnalysisOptions) -> ServiceAvailabilityModel {
    let mut pipeline =
        UpsimPipeline::new(usi_infrastructure(), printing_service(), table_i_mapping()).unwrap();
    let run = pipeline.run().unwrap();
    ServiceAvailabilityModel::from_run(pipeline.infrastructure(), &run, options)
}

fn main() {
    // 1. Engine comparison (devices only, exact Formula 1).
    let m = model(AnalysisOptions::default());
    let exact = m.availability_bdd();
    println!("engine comparison (perspective T1 -> P2 via printS):");
    println!("  BDD (exact, shared components):   {exact:.9}");
    for (i, system) in m.systems.iter().enumerate() {
        assert!((m.pair_availability_bdd(i) - pair_availability_sdp(&m, i)).abs() < 1e-12);
        let _ = system;
    }
    println!("  SDP per pair:                     agrees with BDD to 1e-12");
    println!(
        "  pairwise product (naive):         {:.9}",
        m.availability_pairwise_product()
    );
    let mc = m.monte_carlo(300_000, 0, 42);
    let (lo, hi) = mc.confidence_95();
    println!(
        "  Monte-Carlo (300k samples):       {:.6} [{lo:.6}, {hi:.6}] covers exact: {}",
        mc.estimate,
        mc.covers(exact)
    );

    // 2. Formula variants and link failures.
    let paper = model(AnalysisOptions {
        paper_formula: true,
        ..Default::default()
    });
    println!("\nFormula 1 variants:");
    println!("  A with exact MTBF/(MTBF+MTTR):    {exact:.9}");
    println!(
        "  A with printed 1 - MTTR/MTBF:     {:.9}",
        paper.availability_bdd()
    );
    let with_links = model(AnalysisOptions {
        include_links: true,
        ..Default::default()
    });
    println!(
        "  A with link (connector) failures: {:.9}  ({} components)",
        with_links.availability_bdd(),
        with_links.components.len()
    );

    // 3. Who limits the service? (Sec. VII: "which ICT components can be
    //    the cause")
    println!("\ncomponent importance (top 5 by Birnbaum):");
    for imp in component_importance(&m).into_iter().take(5) {
        println!(
            "  {:<8} A={:.6}  Birnbaum={:.3e}  criticality={:.4}  FV={:.4}",
            imp.name, imp.availability, imp.birnbaum, imp.criticality, imp.fussell_vesely
        );
    }

    // 4. What-if: the client dominates — give the Comp class a standby
    //    spare (redundantComponents = 1) and re-run the whole methodology.
    let mut infra = usi_infrastructure();
    let comp = std::sync::Arc::make_mut(&mut infra.classes)
        .class_mut("Comp")
        .unwrap();
    for app in &mut comp.applied {
        if let Some(slot) = app
            .values
            .iter_mut()
            .find(|(n, _)| n == "redundantComponents")
        {
            slot.1 = uml::Value::Integer(1);
        }
    }
    let mut pipeline = UpsimPipeline::new(infra, printing_service(), table_i_mapping()).unwrap();
    let run = pipeline.run().unwrap();
    let redundant = ServiceAvailabilityModel::from_run(
        pipeline.infrastructure(),
        &run,
        AnalysisOptions::default(),
    );
    println!("\nwhat-if: redundant client hardware (Comp redundantComponents = 1):");
    println!("  before: {exact:.9}");
    println!("  after:  {:.9}", redundant.availability_bdd());
    println!(
        "  yearly user-perceived downtime drops from {:.1} h to {:.1} h",
        (1.0 - exact) * 8760.0,
        (1.0 - redundant.availability_bdd()) * 8760.0
    );
}
