//! Regenerates the paper's Figure 10: stepwise comparisons on a 10-cube.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trials = bench::or_exit(bench::trials_arg(
        &args,
        workloads::figures::PAPER_TRIALS_STEPS,
    ));
    bench::emit(&workloads::figures::fig10(trials));
}
