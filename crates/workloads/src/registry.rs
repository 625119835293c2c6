//! Every committed artifact under `results/`, declared once: its file
//! stem, the command that writes it (`all_figures`, `sweep <id>` or
//! both) and how its `.txt` and `.json` bytes are rendered in memory.
//! The binaries, the byte-identity test and the fuzz test read [`ENTRIES`].

use crate::artifact::Artifact;
use crate::chaossweep::{chaos_sweep, ChaosSweep, ChaosSweepConfig};
use crate::collectivessweep::{collectives_sweep, CollectivesConfig, CollectivesSweep};
use crate::figures::{self, PAPER_TRIALS_NCUBE as NCUBE, PAPER_TRIALS_STEPS as STEPS};
use crate::lanesweep::{lane_sweep, LaneSweep, LaneSweepConfig};
use crate::telemetrysweep::{telemetry_sweep, TelemetrySweep, TelemetrySweepConfig};
use crate::trafficsweep::{traffic_sweep, SweepConfig, TrafficSweep};
use crate::{ablations as abl, faultsweep, heatmap, torussweep, Figure};

/// Departures from the committed configuration, set by command-line
/// flags; an entry ignores those it does not take.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Overrides {
    /// `--smoke`: a sweep's short CI configuration.
    pub smoke: bool,
    /// `--seed S`: a sweep's master seed.
    pub seed: Option<u64>,
    /// `--sessions N`: a sweep's session count.
    pub sessions: Option<usize>,
    /// `--trials N`: trials per point.
    pub trials: Option<usize>,
}

/// One artifact's two files, in memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rendered {
    /// File stem under `results/`.
    pub id: String,
    /// The `.txt` file: a figure's table and plot, or a sweep's table.
    pub txt: String,
    /// The `.json` file.
    pub json: String,
    /// The sweep's domain check failure at this configuration, if any.
    pub warning: Option<String>,
}

/// One committed artifact.
#[derive(Clone, Copy)]
pub struct Entry {
    /// File stem under `results/`, and the name the commands take.
    pub id: &'static str,
    /// `all_figures` writes it.
    pub all_figures: bool,
    /// The flags `sweep <id>` takes; empty when `sweep` does not run it.
    pub sweep_flags: &'static [&'static str],
    /// Parses the artifact's JSON and, for a schema sweep, runs its
    /// domain check (`sweep <id> --check`); errors are one line.
    pub validate: fn(&str) -> Result<(), String>,
    /// Renders the entry; Figures 11–12 and 13–14 come in pairs.
    render: fn(&Overrides) -> Result<Vec<Rendered>, String>,
}

/// The figures' files. JSON goes through the strict writer: a
/// non-finite point fails instead of reaching `results/` as `null`.
fn figure_files(figs: impl IntoIterator<Item = Figure>) -> Result<Vec<Rendered>, String> {
    let render = |f: Figure| {
        let json = f.to_json_strict().map_err(|e| format!("{}: {e}", f.id))?;
        let (id, txt, warning) = (f.id.clone(), f.to_text(), None);
        Ok(Rendered {
            id,
            txt,
            json,
            warning,
        })
    };
    figs.into_iter().map(render).collect()
}

fn sweep_files<A: Artifact>(a: &A) -> Result<Vec<Rendered>, String> {
    let json = a.to_json().map_err(|e| format!("{}: {e}", A::ID))?;
    let (id, txt, warning) = (A::ID.to_string(), a.to_table(), a.check().err());
    Ok(vec![Rendered {
        id,
        txt,
        json,
        warning,
    }])
}

/// A figure entry `all_figures` writes: `$figs(trials)` at `$trials`
/// trials unless `--trials` overrides it.
#[rustfmt::skip]
macro_rules! fig {
    ($id:literal, $trials:ident, $figs:expr) => {
        Entry {
            id: $id,
            all_figures: true,
            sweep_flags: &[],
            validate: |text| Figure::from_json(text).map(drop),
            render: |o| figure_files(($figs)(o.trials.unwrap_or($trials))),
        }
    };
}

/// A schema sweep entry: `$run` on `$config`'s full or smoke
/// configuration with `--seed` and `--$flag` (into `$field`) applied,
/// checked by `$artifact`'s parser and domain check.
#[rustfmt::skip]
macro_rules! sweep {
    ($run:ident, $config:ident, $artifact:ty, $field:ident = $flag:ident) => {
        Entry {
            id: <$artifact as Artifact>::ID,
            all_figures: false,
            sweep_flags: &["--smoke", "--seed", "--check", concat!("--", stringify!($flag))],
            validate: |text| <$artifact>::from_json(text)
                .map_err(|e| format!("schema violation at {e}"))?
                .check(),
            render: |o| {
                let mut cfg = if o.smoke { $config::smoke() } else { $config::full() };
                cfg.$field = o.$flag.unwrap_or(cfg.$field);
                cfg.seed = o.seed.unwrap_or(cfg.seed);
                sweep_files(&$run(&cfg))
            },
        }
    };
}

/// Every committed artifact, in the order `all_figures` writes them.
#[rustfmt::skip]
pub const ENTRIES: [Entry; 26] = [
    fig!("fig09", STEPS, |t| [figures::fig09(t)]),
    fig!("fig10", STEPS, |t| [figures::fig10(t)]),
    fig!("fig11", NCUBE, |t| <[Figure; 2]>::from(figures::fig11_12(t))),
    fig!("fig12", NCUBE, |t| <[Figure; 2]>::from(figures::fig11_12(t))),
    fig!("fig13", STEPS, |t| <[Figure; 2]>::from(figures::fig13_14(t))),
    fig!("fig14", STEPS, |t| <[Figure; 2]>::from(figures::fig13_14(t))),
    fig!("ablation_ports", NCUBE, |t| [abl::ablation_ports(t)]),
    fig!("ablation_msgsize", NCUBE, |t| [abl::ablation_message_size(t)]),
    fig!("ablation_sensitivity", NCUBE, |t| [abl::ablation_sensitivity(t)]),
    fig!("ablation_optimality", NCUBE, |t| [abl::ablation_optimality(t)]),
    fig!("ablation_contention", NCUBE, |t| [abl::ablation_contention(t)]),
    fig!("ablation_load", NCUBE, |t| [abl::ablation_background_load(t)]),
    fig!("ablation_pipelining", NCUBE, |_| [abl::ablation_pipelining()]),
    fig!("ablation_scatter", NCUBE, |t| [abl::ablation_scatter(t)]),
    fig!("ablation_scaling", NCUBE, |t| [abl::ablation_scaling(t)]),
    fig!("ablation_concurrency", NCUBE, |t| [abl::ablation_concurrency(t)]),
    fig!("ablation_fidelity", NCUBE, |t| [abl::ablation_model_fidelity(t)]),
    fig!("ablation_kport", NCUBE, |t| [abl::ablation_kport(t)]),
    Entry { sweep_flags: &["--trials"],
            ..fig!("fault_sweep", NCUBE, |t| [faultsweep::fault_sweep(t)]) },
    Entry { all_figures: false, sweep_flags: &["--trials"],
            ..fig!("torus_sweep", NCUBE, |t| [torussweep::torus_sweep(t)]) },
    Entry { all_figures: false, sweep_flags: &["--trials"],
            ..fig!("contention_heatmap", NCUBE, |t| [heatmap::contention_heatmap(t)]) },
    sweep!(traffic_sweep, SweepConfig, TrafficSweep, sessions = sessions),
    sweep!(chaos_sweep, ChaosSweepConfig, ChaosSweep, sessions = sessions),
    sweep!(lane_sweep, LaneSweepConfig, LaneSweep, trials = trials),
    sweep!(telemetry_sweep, TelemetrySweepConfig, TelemetrySweep, sessions = sessions),
    sweep!(collectives_sweep, CollectivesConfig, CollectivesSweep, traffic_sessions = sessions),
];

/// The entry named `id`.
#[must_use]
pub fn entry(id: &str) -> Option<&'static Entry> {
    ENTRIES.iter().find(|e| e.id == id)
}

/// Renders the entries named in `ids`, in registry order; a pair runs
/// once for both of its entries.
///
/// # Errors
/// A figure or sweep whose JSON would hold a non-finite number outside
/// its `null` conventions, named with its path.
pub fn render(ids: &[&str], o: &Overrides) -> Result<Vec<Rendered>, String> {
    let mut out: Vec<Rendered> = Vec::new();
    for e in ENTRIES.iter().filter(|e| ids.contains(&e.id)) {
        if !out.iter().any(|r| r.id == e.id) {
            let rendered = (e.render)(o)?.into_iter();
            out.extend(rendered.filter(|r| ids.contains(&r.id.as_str())));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_every_entry_has_a_writer() {
        for (i, e) in ENTRIES.iter().enumerate() {
            assert!(ENTRIES[..i].iter().all(|f| f.id != e.id), "{}", e.id);
            assert!(e.all_figures || !e.sweep_flags.is_empty(), "{}", e.id);
        }
        assert_eq!(ENTRIES.iter().filter(|e| e.all_figures).count(), 19);
        assert_eq!(
            ENTRIES.iter().filter(|e| !e.sweep_flags.is_empty()).count(),
            8
        );
        assert_eq!(entry("lane_sweep").unwrap().sweep_flags[3], "--trials");
        assert_eq!(
            entry("collectives_sweep").unwrap().sweep_flags[3],
            "--sessions"
        );
    }

    #[test]
    fn a_pair_renders_once_and_keeps_only_what_was_asked() {
        let o = Overrides {
            trials: Some(1),
            ..Overrides::default()
        };
        let both = render(&["fig12", "fig11"], &o).unwrap();
        let ids: Vec<&str> = both.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["fig11", "fig12"]);
        let max = render(&["fig12"], &o).unwrap();
        assert_eq!(max, both[1..]);
        assert!(max[0].txt.starts_with("# fig12"));
    }
}
