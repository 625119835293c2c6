//! Regenerates the paper's Figure 14: maximum delay on a 10-cube,
//! 4096-byte messages (large-system simulation).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trials = bench::or_exit(bench::trials_arg(
        &args,
        workloads::figures::PAPER_TRIALS_STEPS,
    ));
    let (_, max) = workloads::figures::fig13_14(trials);
    bench::emit(&max);
}
