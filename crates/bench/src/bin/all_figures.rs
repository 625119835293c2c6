//! Regenerates every paper figure (9-14), the twelve ablations and the
//! fault sweep at the paper's trial counts, archiving tables, plots and
//! JSON under `results/` of the workspace the current directory is in.
//! `--only ID` writes one of them (`--only fig09`), and `--trials N`
//! overrides the per-point trial count of every experiment for a
//! quicker pass. A file already holding its new bytes is not rewritten.
//!
//! A bad command line, or no workspace above the current directory, is
//! a one-line error and exit code 2; a failed write is exit code 1.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    bench::run(&bench::or_exit(bench::parse_figures_args(&args), 2));
}
