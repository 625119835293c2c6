//! Figure data model and text rendering (tables and ASCII plots).
//!
//! Every experiment produces a [`Figure`]: named series over a shared
//! x-axis. Figures render as aligned text tables (the canonical artifact
//! recorded in EXPERIMENTS.md), as quick ASCII plots for eyeballing the
//! curve shapes the paper shows, and as JSON for archival. The JSON
//! schema is one `record!` declaration per struct, which drives both the
//! writer and the parser.

use crate::artifact::{record, Codec, Plain};
use crate::json::{self, EmitError};
use crate::stats::Summary;
use std::fmt::Write as _;

/// One curve of a figure.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend name (usually an algorithm).
    pub name: String,
    /// X coordinates (destination-set sizes, message sizes, …).
    pub xs: Vec<f64>,
    /// Mean Y value per point.
    pub ys: Vec<f64>,
    /// Sample standard deviation per point.
    pub std: Vec<f64>,
}

impl Series {
    /// The series over `xs` whose point `i` is the mean and standard
    /// deviation of the `i`-th summary.
    pub(crate) fn of(
        name: &str,
        xs: &[f64],
        summaries: impl IntoIterator<Item = Summary>,
    ) -> Series {
        let (ys, std) = summaries.into_iter().map(|s| (s.mean, s.std)).unzip();
        Series {
            name: name.to_string(),
            xs: xs.to_vec(),
            ys,
            std,
        }
    }
}

/// A complete figure: several series over one x-axis.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Short identifier (`fig09`, `ablation_ports`, …).
    pub id: String,
    /// Human title, matching the paper's caption where applicable.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Renders an aligned text table: one row per x value, one column per
    /// series.
    ///
    /// ```
    /// use workloads::{Figure, Series};
    ///
    /// let fig = Figure {
    ///     id: "demo".into(), title: "demo".into(),
    ///     x_label: "m".into(), y_label: "steps".into(),
    ///     series: vec![Series { name: "W-sort".into(),
    ///                           xs: vec![1.0, 2.0], ys: vec![1.0, 1.5],
    ///                           std: vec![0.0, 0.0] }],
    /// };
    /// let table = fig.to_table();
    /// assert!(table.contains("W-sort"));
    /// assert!(table.lines().count() >= 5);
    /// ```
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = writeln!(out, "# y: {}", self.y_label);
        let mut header = format!("{:>10}", self.x_label);
        for s in &self.series {
            let _ = write!(header, " {:>12}", s.name);
        }
        let _ = writeln!(out, "{header}");
        let points = self.series.first().map_or(0, |s| s.xs.len());
        for i in 0..points {
            let x = self.series[0].xs[i];
            let mut row = if x.fract() == 0.0 {
                format!("{:>10}", x as i64)
            } else {
                format!("{x:>10.3}")
            };
            for s in &self.series {
                // Series may legitimately be shorter than the first one
                // (e.g. a 2-D mesh row next to 6-cube rows): show a dash
                // rather than a NaN for the positions it doesn't cover.
                match s.ys.get(i) {
                    Some(y) => {
                        let _ = write!(row, " {y:>12.3}");
                    }
                    None => {
                        let _ = write!(row, " {:>12}", "-");
                    }
                }
            }
            let _ = writeln!(out, "{row}");
        }
        out
    }

    /// Renders a rough ASCII line plot (`width`×`height` characters of
    /// plotting area), one letter per series.
    #[must_use]
    pub fn to_ascii_plot(&self, width: usize, height: usize) -> String {
        let glyphs = ['U', 'M', 'C', 'W', 'S', 'D', 'o', 'x', '+', '*'];
        let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
        let (ymin, mut ymax) = (0.0f64, f64::NEG_INFINITY);
        for s in &self.series {
            for (&x, &y) in s.xs.iter().zip(&s.ys) {
                xmin = xmin.min(x);
                xmax = xmax.max(x);
                ymax = ymax.max(y);
            }
        }
        if !xmin.is_finite() || !ymax.is_finite() || xmax <= xmin {
            return String::from("(empty figure)\n");
        }
        if ymax <= ymin {
            ymax = ymin + 1.0;
        }
        let mut grid = vec![vec![' '; width]; height];
        for (si, s) in self.series.iter().enumerate() {
            let g = glyphs[si % glyphs.len()];
            for (&x, &y) in s.xs.iter().zip(&s.ys) {
                let cx = ((x - xmin) / (xmax - xmin) * (width as f64 - 1.0)).round() as usize;
                let cy = ((y - ymin) / (ymax - ymin) * (height as f64 - 1.0)).round() as usize;
                let row = height - 1 - cy.min(height - 1);
                grid[row][cx.min(width - 1)] = g;
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        let _ = writeln!(out, "y: {} (0 .. {ymax:.2})", self.y_label);
        for row in grid {
            let line: String = row.into_iter().collect();
            let _ = writeln!(out, "|{line}");
        }
        let _ = writeln!(out, "+{}", "-".repeat(width));
        let _ = writeln!(out, " x: {} ({xmin:.0} .. {xmax:.0})", self.x_label);
        let legend: Vec<String> = self
            .series
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{}={}", glyphs[i % glyphs.len()], s.name))
            .collect();
        let _ = writeln!(out, " legend: {}", legend.join("  "));
        out
    }

    /// The archived text of the figure (`results/<id>.txt`): the table,
    /// a blank line and a 72 × 18 ASCII plot.
    #[must_use]
    pub fn to_text(&self) -> String {
        format!("{}\n{}", self.to_table(), self.to_ascii_plot(72, 18))
    }

    /// Serializes the figure as pretty JSON (via [`crate::json`]).
    /// Lenient: non-finite points serialize as `null` (golden artifacts
    /// pin these bytes). Artifact pipelines that must not silently
    /// launder a NaN use [`Figure::to_json_strict`].
    #[must_use]
    pub fn to_json(&self) -> String {
        Plain::encode(self).to_string_pretty()
    }

    /// [`Figure::to_json`] that fails fast on non-finite points instead
    /// of writing `null`. Byte-identical to [`Figure::to_json`] whenever
    /// it succeeds.
    ///
    /// # Errors
    /// [`EmitError`] naming the poisoned point.
    pub fn to_json_strict(&self) -> Result<String, EmitError> {
        Plain::encode(self).to_string_pretty_strict()
    }

    /// Parses a figure previously produced by [`Figure::to_json`].
    ///
    /// # Errors
    /// A message naming the path of the first malformed or missing
    /// field.
    pub fn from_json(text: &str) -> Result<Figure, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        Plain::decode(&v, "").map_err(|e| e.to_string())
    }
}

record!(Series {
    "name" => name,
    "xs" => xs,
    "ys" => ys,
    "std" => std,
});

record!(Figure {
    "id" => id,
    "title" => title,
    "x_label" => x_label,
    "y_label" => y_label,
    "series" => series,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        Figure {
            id: "t".into(),
            title: "test figure".into(),
            x_label: "m".into(),
            y_label: "steps".into(),
            series: vec![
                Series {
                    name: "U-cube".into(),
                    xs: vec![1.0, 2.0, 3.0],
                    ys: vec![1.0, 2.0, 2.0],
                    std: vec![0.0; 3],
                },
                Series {
                    name: "W-sort".into(),
                    xs: vec![1.0, 2.0, 3.0],
                    ys: vec![1.0, 1.0, 1.5],
                    std: vec![0.0; 3],
                },
            ],
        }
    }

    #[test]
    fn table_contains_all_series_and_rows() {
        let t = sample().to_table();
        assert!(t.contains("U-cube"));
        assert!(t.contains("W-sort"));
        assert!(t.contains("test figure"));
        // 3 data rows
        assert_eq!(
            t.lines()
                .filter(|l| l.trim_start().starts_with(['1', '2', '3']))
                .count(),
            3
        );
    }

    #[test]
    fn ascii_plot_renders_without_panic() {
        let p = sample().to_ascii_plot(40, 10);
        assert!(p.contains('U'));
        assert!(p.contains('W') || p.contains("W-sort"));
        assert!(p.contains("legend"));
        assert_eq!(p.lines().filter(|l| l.starts_with('|')).count(), 10);
    }

    #[test]
    fn empty_figure_plot() {
        let f = Figure {
            id: "e".into(),
            title: "empty".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![],
        };
        assert_eq!(f.to_ascii_plot(10, 5), "(empty figure)\n");
    }

    #[test]
    fn json_round_trip() {
        let f = sample();
        let j = f.to_json();
        let back = Figure::from_json(&j).unwrap();
        assert_eq!(back.id, f.id);
        assert_eq!(back.series.len(), 2);
        assert_eq!(back.series[0].ys, f.series[0].ys);
        assert_eq!(back.series[1].name, "W-sort");
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(Figure::from_json("not json").is_err());
        assert!(Figure::from_json("{\"id\": 3}").is_err());
    }

    #[test]
    fn strict_json_fails_fast_on_poisoned_points() {
        let mut f = sample();
        assert_eq!(f.to_json_strict().unwrap(), f.to_json());
        f.series[1].ys[0] = f64::NAN;
        let err = f.to_json_strict().unwrap_err();
        assert!(err.path.contains("/series/1/ys/0"), "{err}");
        // The lenient writer still launders it to null (pinned bytes).
        assert!(f.to_json().contains("null"));
    }
}
