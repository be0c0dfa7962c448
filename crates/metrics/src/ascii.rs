//! Terminal-friendly line charts for CDFs and series.

use std::fmt;

use crate::Cdf;

/// A minimal ASCII line chart used by the experiment harness to sketch
/// the paper's CDF figures directly in the terminal.
///
/// Each named series is a list of `(x, y)` points; the chart scales all
/// series into a shared frame and draws one glyph per series.
///
/// # Examples
///
/// ```
/// use faas_metrics::AsciiChart;
///
/// let mut chart = AsciiChart::new(40, 10);
/// chart.series("linear", (0..10).map(|i| (i as f64, i as f64)).collect());
/// let drawing = chart.to_string();
/// assert!(drawing.contains("linear"));
/// ```
#[derive(Debug, Clone)]
pub struct AsciiChart {
    width: usize,
    height: usize,
    series: Vec<(String, Vec<(f64, f64)>)>,
}

const GLYPHS: [char; 8] = ['*', '+', 'o', 'x', '#', '@', '%', '&'];

impl AsciiChart {
    /// Creates an empty chart with the given plot-area size in characters.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "chart dimensions must be positive");
        Self {
            width,
            height,
            series: Vec::new(),
        }
    }

    /// Adds a named series of `(x, y)` points.
    pub fn series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) -> &mut Self {
        self.series.push((name.into(), points));
        self
    }

    /// Convenience: adds a CDF as a series of `n` plot points.
    pub fn cdf(&mut self, name: impl Into<String>, cdf: &Cdf, n: usize) -> &mut Self {
        self.series(name, cdf.plot_points(n))
    }

    fn bounds(&self) -> Option<(f64, f64, f64, f64)> {
        let mut it = self.series.iter().flat_map(|(_, pts)| pts.iter().copied());
        let first = it.next()?;
        let mut b = (first.0, first.0, first.1, first.1);
        for (x, y) in it {
            b.0 = b.0.min(x);
            b.1 = b.1.max(x);
            b.2 = b.2.min(y);
            b.3 = b.3.max(y);
        }
        Some(b)
    }
}

impl fmt::Display for AsciiChart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some((xmin, xmax, ymin, ymax)) = self.bounds() else {
            return writeln!(f, "(empty chart)");
        };
        let xspan = if xmax > xmin { xmax - xmin } else { 1.0 };
        let yspan = if ymax > ymin { ymax - ymin } else { 1.0 };
        let mut grid = vec![vec![' '; self.width]; self.height];
        for (si, (_, pts)) in self.series.iter().enumerate() {
            let glyph = GLYPHS[si % GLYPHS.len()];
            for &(x, y) in pts {
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "x and y lie inside the bounds just computed, so both products \
                              are in [0, width) and [0, height); NaN saturates to 0"
                )]
                let (cx, cy) = (
                    (((x - xmin) / xspan) * (self.width - 1) as f64).round() as usize,
                    (((y - ymin) / yspan) * (self.height - 1) as f64).round() as usize,
                );
                let row = self.height - 1 - cy.min(self.height - 1);
                grid[row][cx.min(self.width - 1)] = glyph;
            }
        }
        writeln!(f, "{ymax:>10.3} +")?;
        for row in &grid {
            let line: String = row.iter().collect();
            writeln!(f, "{:>10} |{line}", "")?;
        }
        writeln!(f, "{ymin:>10.3} +{}", "-".repeat(self.width))?;
        writeln!(
            f,
            "{:>11}{xmin:<12.3}{:>w$}{xmax:.3}",
            "",
            "",
            w = self.width.saturating_sub(24)
        )?;
        for (si, (name, _)) in self.series.iter().enumerate() {
            writeln!(f, "{:>12} {} = {}", "", GLYPHS[si % GLYPHS.len()], name)?;
        }
        Ok(())
    }
}

/// A horizontal stacked-bar chart for latency waterfalls: each row is a
/// labeled bar whose segments (queue, provisioning, retry, execution…)
/// are drawn with distinct glyphs, scaled into a shared frame so rows
/// are comparable at a glance.
///
/// # Examples
///
/// ```
/// use faas_metrics::AsciiWaterfall;
///
/// let mut wf = AsciiWaterfall::new(40, vec!["queue".into(), "exec".into()]);
/// wf.row("cold", vec![12.0, 30.0]);
/// wf.row("warm", vec![0.5, 30.0]);
/// let drawing = wf.to_string();
/// assert!(drawing.contains("cold"));
/// assert!(drawing.contains("queue"));
/// ```
#[derive(Debug, Clone)]
pub struct AsciiWaterfall {
    width: usize,
    segments: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl AsciiWaterfall {
    /// Creates an empty waterfall with the given bar width in
    /// characters and the segment names shared by every row.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `segments` is empty.
    pub fn new(width: usize, segments: Vec<String>) -> Self {
        assert!(width > 0, "waterfall width must be positive");
        assert!(!segments.is_empty(), "waterfall needs at least one segment");
        Self {
            width,
            segments,
            rows: Vec::new(),
        }
    }

    /// Adds a labeled bar; `values` holds one magnitude per segment
    /// (missing trailing segments are treated as zero).
    pub fn row(&mut self, label: impl Into<String>, values: Vec<f64>) -> &mut Self {
        self.rows.push((label.into(), values));
        self
    }
}

impl fmt::Display for AsciiWaterfall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = |values: &[f64]| -> f64 { values.iter().filter(|v| v.is_finite()).sum() };
        let max_total = self
            .rows
            .iter()
            .map(|(_, v)| total(v))
            .fold(0.0f64, f64::max);
        if self.rows.is_empty() || max_total <= 0.0 {
            return writeln!(f, "(empty waterfall)");
        }
        let label_w = self.rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (label, values) in &self.rows {
            let mut bar = String::with_capacity(self.width);
            for (si, &v) in values.iter().enumerate().take(self.segments.len()) {
                if !v.is_finite() || v <= 0.0 {
                    continue;
                }
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "0 < v <= max_total, so the product is in (0, width]"
                )]
                let cells = ((v / max_total) * self.width as f64).round() as usize;
                let glyph = GLYPHS[si % GLYPHS.len()];
                bar.extend(std::iter::repeat_n(glyph, cells));
            }
            bar.truncate(self.width);
            writeln!(
                f,
                "{label:>label_w$} |{bar:<width$}| {:.3}",
                total(values),
                width = self.width
            )?;
        }
        let legend: Vec<String> = self
            .segments
            .iter()
            .enumerate()
            .map(|(si, name)| format!("{} = {name}", GLYPHS[si % GLYPHS.len()]))
            .collect();
        writeln!(f, "{:>label_w$}  {}", "", legend.join("  "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_chart_renders_placeholder() {
        let chart = AsciiChart::new(10, 5);
        assert!(chart.to_string().contains("empty"));
    }

    #[test]
    fn chart_contains_glyphs_and_legend() {
        let mut chart = AsciiChart::new(20, 5);
        chart.series("up", vec![(0.0, 0.0), (1.0, 1.0)]);
        chart.series("down", vec![(0.0, 1.0), (1.0, 0.0)]);
        let s = chart.to_string();
        assert!(s.contains('*'));
        assert!(s.contains('+'));
        assert!(s.contains("up"));
        assert!(s.contains("down"));
    }

    #[test]
    fn single_point_series() {
        let mut chart = AsciiChart::new(8, 3);
        chart.series("dot", vec![(5.0, 5.0)]);
        // Degenerate bounds must not panic or divide by zero.
        let _ = chart.to_string();
    }

    #[test]
    fn cdf_helper_plots() {
        let cdf = Cdf::from_samples((0..50).map(f64::from));
        let mut chart = AsciiChart::new(30, 8);
        chart.cdf("cdf", &cdf, 30);
        assert!(chart.to_string().contains("cdf"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_panics() {
        let _ = AsciiChart::new(0, 5);
    }

    #[test]
    fn waterfall_scales_rows_and_lists_legend() {
        let mut wf = AsciiWaterfall::new(20, vec!["queue".into(), "exec".into()]);
        wf.row("cold", vec![10.0, 10.0]);
        wf.row("warm", vec![0.0, 10.0]);
        let s = wf.to_string();
        assert!(s.contains("cold"));
        assert!(s.contains("* = queue"));
        assert!(s.contains("+ = exec"));
        // The cold row (total 20) fills the frame; warm (total 10) is
        // about half as long.
        let cold_len = s
            .lines()
            .find(|l| l.contains("cold"))
            .map(|l| l.chars().filter(|&c| c == '*' || c == '+').count())
            .unwrap_or(0);
        let warm_len = s
            .lines()
            .find(|l| l.contains("warm"))
            .map(|l| l.chars().filter(|&c| c == '+').count())
            .unwrap_or(0);
        assert_eq!(cold_len, 20);
        assert_eq!(warm_len, 10);
    }

    #[test]
    fn waterfall_empty_and_nonfinite_rows_render_placeholder() {
        let wf = AsciiWaterfall::new(10, vec!["a".into()]);
        assert!(wf.to_string().contains("empty"));
        let mut nan = AsciiWaterfall::new(10, vec!["a".into()]);
        nan.row("r", vec![f64::NAN]);
        assert!(nan.to_string().contains("empty"));
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn waterfall_requires_segments() {
        let _ = AsciiWaterfall::new(10, Vec::new());
    }
}
