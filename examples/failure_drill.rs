//! A failure drill on the case study: knock components out one at a time
//! and watch the user-perceived view react — the operational use of the
//! UPSIM the paper motivates in Sec. VII ("very helpful in case of service
//! problems, as it provides a quick overview on which ICT components can
//! be the cause").
//!
//! Run with: `cargo run --example failure_drill`

use dependability::transform::{AnalysisOptions, ServiceAvailabilityModel};
use netgen::usi::{printing_service, table_i_mapping, usi_infrastructure};
use upsim_bench::downtime::{downtime_per_year, nines, render_downtime};
use upsim_core::pipeline::UpsimPipeline;

fn availability_for(infra: upsim_core::Infrastructure) -> Option<(f64, usize)> {
    let mut pipeline = UpsimPipeline::new(infra, printing_service(), table_i_mapping()).ok()?;
    let run = pipeline.run().ok()?;
    if run.discovered.iter().any(|d| d.is_empty()) {
        return Some((0.0, run.upsim.instances.len()));
    }
    let model = ServiceAvailabilityModel::from_run(
        pipeline.infrastructure(),
        &run,
        AnalysisOptions::default(),
    );
    Some((model.availability_bdd(), run.upsim.instances.len()))
}

fn main() {
    let (baseline, upsim_size) = availability_for(usi_infrastructure()).unwrap();
    println!(
        "baseline: A = {baseline:.9} ({}-nines, {} per year), UPSIM size {upsim_size}\n",
        nines(baseline),
        render_downtime(downtime_per_year(baseline))
    );

    println!(
        "{:<10} {:>14} {:>8} {:>24}",
        "failed", "A", "nines", "verdict"
    );
    for victim in ["c1", "c2", "d2", "e3", "d1", "e1", "d4", "d3"] {
        let mut infra = usi_infrastructure();
        infra.remove_device(victim).unwrap();
        let (a, _) = availability_for(infra).unwrap();
        let verdict = if a == 0.0 {
            "SERVICE DOWN"
        } else if baseline - a < 1e-4 {
            "tolerated (redundant)"
        } else {
            "degraded"
        };
        println!("{:<10} {:>14.9} {:>8} {:>24}", victim, a, nines(a), verdict);
    }

    println!(
        "\nReading: the redundant core (c1/c2) is fully tolerated; every switch on the\n\
         single access trees (e1/e3/d1/d2/d4) is a single point of failure for this\n\
         user; d3 only carries db/backup/email traffic and does not affect printing."
    );
}
