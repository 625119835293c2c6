//! Reference outputs every measured run is checked against.
//!
//! * `figures`: the committed `results/fig09.json` … `fig14.json`,
//!   compared byte for byte. Loading them is the workload's set-up.
//! * serve workloads: `perfbench/refs/<workload>.txt`, the FNV-1a
//!   digest of the daemon's `result` object for every pool request,
//!   recorded with `python3 perfbench/run.py --record`.

use std::fmt::Write as _;
use std::path::Path;

use crate::streams::Pool;

/// The figure artifacts the `figures` workload regenerates.
const FIGURE_IDS: [&str; 6] = ["fig09", "fig10", "fig11", "fig12", "fig13", "fig14"];

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of every pool request line, so a reference file recorded
/// for another pool is refused instead of failing every request.
#[must_use]
pub fn pool_digest(pool: &Pool) -> u64 {
    let mut all = String::new();
    for (i, r) in pool.requests.iter().enumerate() {
        all.push_str(&r.line(i as u64 + 1));
        all.push('\n');
    }
    fnv64(all.as_bytes())
}

/// The recorded result digests of a serve workload's pool.
#[derive(Clone, Debug)]
pub struct ServeRefs {
    /// `digests[pool index]`.
    pub digests: Vec<u64>,
}

impl ServeRefs {
    /// Whether `result` is the recorded output of pool entry `index`.
    #[must_use]
    pub fn matches(&self, index: usize, result: &str) -> bool {
        self.digests.get(index) == Some(&fnv64(result.as_bytes()))
    }

    /// The reference file text for `results[i]` of pool entry `i`.
    #[must_use]
    pub fn render(workload: &str, pool: &Pool, results: &[String]) -> String {
        let mut out = format!(
            "# {workload}: FNV-1a digests of the daemon's result for each of {} pool requests\n\
             # pool {:016x}\n",
            results.len(),
            pool_digest(pool)
        );
        for r in results {
            let _ = writeln!(out, "{:016x}", fnv64(r.as_bytes()));
        }
        out
    }

    /// Parses a reference file recorded for `pool`.
    ///
    /// # Errors
    /// If the file was recorded for another pool or is malformed.
    pub fn parse(text: &str, pool: &Pool) -> Result<ServeRefs, String> {
        let mut lines = text.lines();
        lines.next();
        let want = format!("# pool {:016x}", pool_digest(pool));
        if lines.next() != Some(want.as_str()) {
            return Err("reference recorded for another request pool; re-record it".into());
        }
        let digests = lines
            .map(|l| u64::from_str_radix(l, 16).map_err(|e| format!("bad digest `{l}`: {e}")))
            .collect::<Result<Vec<u64>, String>>()?;
        if digests.len() != pool.requests.len() {
            return Err(format!(
                "{} digests for {} pool requests",
                digests.len(),
                pool.requests.len()
            ));
        }
        Ok(ServeRefs { digests })
    }

    /// Loads `perfbench/refs/<workload>.txt` under `root`.
    ///
    /// # Errors
    /// If the file is missing or does not parse.
    pub fn load(root: &Path, workload: &str, pool: &Pool) -> Result<ServeRefs, String> {
        let path = root.join("perfbench/refs").join(format!("{workload}.txt"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        ServeRefs::parse(&text, pool)
    }
}

/// A committed figure artifact.
#[derive(Clone, Debug)]
pub struct FigureRef {
    /// `fig09` … `fig14`.
    pub id: &'static str,
    /// The artifact, byte for byte.
    pub text: String,
}

/// Loads the committed figure artifacts, in [`FIGURE_IDS`] order.
///
/// # Errors
/// If an artifact is missing or is not the figure its name says.
pub fn load_figures(root: &Path) -> Result<Vec<FigureRef>, String> {
    FIGURE_IDS
        .iter()
        .map(|&id| {
            let path = root.join("results").join(format!("{id}.json"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            if !text.contains(&format!("\"id\": \"{id}\"")) {
                return Err(format!("{}: not the {id} artifact", path.display()));
            }
            Ok(FigureRef { id, text })
        })
        .collect()
}
