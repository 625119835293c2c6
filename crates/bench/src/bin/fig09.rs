//! Regenerates the paper's Figure 9: stepwise comparisons on a 6-cube
//! (average over 100 random destination sets of the maximum step count).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trials = bench::or_exit(bench::trials_arg(
        &args,
        workloads::figures::PAPER_TRIALS_STEPS,
    ));
    bench::emit(&workloads::figures::fig09(trials));
}
