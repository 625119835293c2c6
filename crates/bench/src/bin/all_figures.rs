//! Regenerates every paper figure (9-14) plus all ablation experiments at
//! the paper's trial counts, archiving tables, plots, and JSON under
//! `results/`. Pass `--trials N` to override the per-point trial count
//! (applied to all experiments) for a quicker pass.

use workloads::{ablations, faultsweep, figures};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let steps_trials = bench::or_exit(bench::trials_arg(&args, figures::PAPER_TRIALS_STEPS));
    let ncube_trials = bench::or_exit(bench::trials_arg(&args, figures::PAPER_TRIALS_NCUBE));
    let ncube_trials = ncube_trials.min(steps_trials);

    eprintln!("== paper figures ==");
    bench::emit(&figures::fig09(steps_trials));
    bench::emit(&figures::fig10(steps_trials));
    let (f11, f12) = figures::fig11_12(ncube_trials);
    bench::emit(&f11);
    bench::emit(&f12);
    let (f13, f14) = figures::fig13_14(steps_trials);
    bench::emit(&f13);
    bench::emit(&f14);

    eprintln!("== ablations (extensions) ==");
    bench::emit(&ablations::ablation_ports(ncube_trials));
    bench::emit(&ablations::ablation_message_size(ncube_trials));
    bench::emit(&ablations::ablation_sensitivity(ncube_trials));
    bench::emit(&ablations::ablation_optimality(ncube_trials));
    bench::emit(&ablations::ablation_contention(ncube_trials));
    bench::emit(&ablations::ablation_background_load(ncube_trials));
    bench::emit(&ablations::ablation_pipelining());
    bench::emit(&ablations::ablation_scatter(ncube_trials));
    bench::emit(&ablations::ablation_scaling(ncube_trials));
    bench::emit(&ablations::ablation_concurrency(ncube_trials));
    bench::emit(&ablations::ablation_model_fidelity(ncube_trials));
    bench::emit(&ablations::ablation_kport(ncube_trials));

    eprintln!("== fault injection (robustness) ==");
    bench::emit(&faultsweep::fault_sweep(ncube_trials));
}
