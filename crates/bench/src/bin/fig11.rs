//! Regenerates the paper's Figure 11: average delay on a 5-cube,
//! 4096-byte messages, nCUBE-2 parameters (simulated testbed stand-in).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trials = bench::or_exit(bench::trials_arg(
        &args,
        workloads::figures::PAPER_TRIALS_NCUBE,
    ));
    let (avg, _) = workloads::figures::fig11_12(trials);
    bench::emit(&avg);
}
