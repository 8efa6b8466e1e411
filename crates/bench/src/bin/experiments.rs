//! Regenerates every table and figure of the paper (experiments E1–E15),
//! and E17, a finding on Sec. V-D.
//!
//! Usage:
//!   experiments            # run all
//!   experiments E5 E8      # run a selection

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<String> = args.iter().map(|a| a.to_uppercase()).collect();
    println!("upsim-rs experiment suite — reproduces Dittrich et al., IPPS 2013");
    println!("==================================================================\n");
    for (id, run) in upsim_bench::experiments::all() {
        if !selected.is_empty() && !selected.iter().any(|s| s == id) {
            continue;
        }
        println!("{}", run());
        println!("------------------------------------------------------------------\n");
    }
}
