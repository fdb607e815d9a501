//! The assembled workshop evaluation: Table II and Figures 3–4, with
//! renderers matching the paper's presentation.

use pdc_stats::histogram::LikertHistogram;
use pdc_stats::ttest::TTestResult;
use serde::{Deserialize, Serialize};

use crate::likert::LikertVector;
use crate::reconstruct::{reconstruct_mean_vector, PairedReconstruction};

/// The paper's published session-usefulness means (Table II).
pub const TABLE2_PUBLISHED: [(&str, f64, f64); 2] = [
    ("OpenMP on Raspberry Pi", 4.55, 4.45),
    ("MPI & Distr. Cluster Computing", 4.38, 4.29),
];

/// One Table II row with its reconstructed response vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableIIRow {
    /// Session name.
    pub session: String,
    /// (A) usefulness for implementing PDC in courses.
    pub implementing: LikertVector,
    /// Respondents for (A) (22 minus skips).
    pub implementing_n: usize,
    /// (B) usefulness for professional development.
    pub development: LikertVector,
    /// Respondents for (B).
    pub development_n: usize,
}

/// Table II, reconstructed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableII {
    /// The two session rows.
    pub rows: Vec<TableIIRow>,
}

impl TableII {
    /// Reconstruct Table II from the published means.
    pub fn reconstruct() -> Self {
        let rows = TABLE2_PUBLISHED
            .iter()
            .map(|(session, a, b)| {
                let (implementing, implementing_n) =
                    reconstruct_mean_vector(*a, 22).expect("published mean solvable");
                let (development, development_n) =
                    reconstruct_mean_vector(*b, 22).expect("published mean solvable");
                TableIIRow {
                    session: (*session).to_owned(),
                    implementing,
                    implementing_n,
                    development,
                    development_n,
                }
            })
            .collect();
        Self { rows }
    }

    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "TABLE II: HOW USEFUL WAS EACH SESSION FOR (A) IMPLEMENTING PDC IN\n\
             YOUR COURSES; (B) YOUR PROFESSIONAL DEVELOPMENT?\n\n",
        );
        out.push_str(&format!(
            "{:<34} | {:>5} | {:>5}\n",
            "Session", "(A)", "(B)"
        ));
        out.push_str(&format!("{:-<34}-+-------+------\n", ""));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<34} | {:>5.2} | {:>5.2}\n",
                row.session,
                row.implementing.reported_mean(),
                row.development.reported_mean()
            ));
        }
        out
    }
}

/// The published statistics of one pre/post figure.
#[derive(Debug, Clone, Copy)]
pub struct FigureSpec {
    /// Figure number in the paper (3 or 4).
    pub number: u8,
    /// The survey question (figure caption).
    pub caption: &'static str,
    /// Published pre-mean.
    pub pre_mean: f64,
    /// Published post-mean.
    pub post_mean: f64,
    /// Published paired-t p-value.
    pub p: f64,
    /// Histogram bars read off the figure, pre.
    pub pre_counts: [usize; 5],
    /// Histogram bars read off the figure, post.
    pub post_counts: [usize; 5],
    /// X-axis labels.
    pub labels: [&'static str; 5],
}

/// Figure 3's published statistics.
pub const FIGURE3: FigureSpec = FigureSpec {
    number: 3,
    caption:
        "Indicate your current level of confidence in implementing PDC topics in your courses.",
    pre_mean: 2.82,
    post_mean: 3.59,
    p: 4e-4,
    pre_counts: [1, 8, 8, 4, 1],
    post_counts: [0, 3, 8, 6, 5],
    labels: ["not at all", "slightly", "moderately", "very", "extremely"],
};

/// Figure 4's published statistics.
pub const FIGURE4: FigureSpec = FigureSpec {
    number: 4,
    caption: "How prepared do you feel to successfully implement PDC topics in your courses?",
    pre_mean: 2.59,
    post_mean: 3.77,
    p: 4.18e-8,
    pre_counts: [4, 7, 6, 4, 1],
    post_counts: [0, 2, 7, 7, 6],
    labels: [
        "not at all",
        "a little bit",
        "somewhat",
        "quite a bit",
        "very much",
    ],
};

/// A reconstructed figure: data + statistics + rendering.
#[derive(Debug, Clone)]
pub struct Figure34 {
    /// The published statistics targeted.
    pub spec: FigureSpec,
    /// The fitted pairing.
    pub reconstruction: PairedReconstruction,
}

impl Figure34 {
    /// Reconstruct a figure from its spec.
    pub fn reconstruct(spec: FigureSpec) -> Self {
        let reconstruction = PairedReconstruction::fit(spec.pre_counts, spec.post_counts, spec.p);
        Self {
            spec,
            reconstruction,
        }
    }

    /// The paired t-test over the reconstruction.
    pub fn t_test(&self) -> TTestResult {
        self.reconstruction.t_test()
    }

    /// Nonparametric robustness check: the Wilcoxon signed-rank test on
    /// the same pairs. Likert data is ordinal, so a conclusion that
    /// survives rank-based testing is on much firmer ground than the
    /// paper's t-test alone.
    pub fn wilcoxon(&self) -> pdc_stats::WilcoxonResult {
        let pre: Vec<f64> = self.reconstruction.pre.iter().map(|&v| v as f64).collect();
        let post: Vec<f64> = self.reconstruction.post.iter().map(|&v| v as f64).collect();
        pdc_stats::wilcoxon_signed_rank(&pre, &post)
            .expect("reconstructed figures have non-degenerate differences")
    }

    /// Render: grouped histogram + the statistics line the paper quotes.
    pub fn render(&self) -> String {
        let hist = LikertHistogram::from_responses(
            self.spec.labels,
            &self
                .reconstruction
                .pre
                .iter()
                .map(|&v| v as i64)
                .collect::<Vec<_>>(),
            &self
                .reconstruction
                .post
                .iter()
                .map(|&v| v as i64)
                .collect::<Vec<_>>(),
        )
        .expect("reconstructed responses are in range");
        let t = self.t_test();
        format!(
            "Fig. {}. {}\n\n{}\npaired t-test: pre µ = {:.2}, post µ = {:.2}, t({}) = {:.2}, p = {:.2e}\n(published: pre µ = {:.2}, post µ = {:.2}, p = {:.2e})\n",
            self.spec.number,
            self.spec.caption,
            hist.render_grouped(),
            mean_of(&self.reconstruction.pre),
            mean_of(&self.reconstruction.post),
            t.df as i64,
            t.t,
            t.p_two_sided,
            self.spec.pre_mean,
            self.spec.post_mean,
            self.spec.p,
        )
    }
}

fn mean_of(v: &[u8]) -> f64 {
    v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_reconstruction_means_match_published() {
        let t = TableII::reconstruct();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].implementing.reported_mean(), 4.55);
        assert_eq!(t.rows[0].development.reported_mean(), 4.45);
        assert_eq!(t.rows[1].implementing.reported_mean(), 4.38);
        assert_eq!(t.rows[1].development.reported_mean(), 4.29);
    }

    #[test]
    fn table2_mpi_row_needed_a_skip() {
        let t = TableII::reconstruct();
        assert_eq!(t.rows[0].implementing_n, 22);
        assert_eq!(t.rows[1].implementing_n, 21);
        assert_eq!(t.rows[1].development_n, 21);
    }

    #[test]
    fn table2_openmp_rated_highest() {
        // "the highest … rated sessions were those in which they used
        // these two modules" with OpenMP/Pi first.
        let t = TableII::reconstruct();
        assert!(t.rows[0].implementing.reported_mean() > t.rows[1].implementing.reported_mean());
        assert!(t.rows[0].development.reported_mean() > t.rows[1].development.reported_mean());
    }

    #[test]
    fn table2_renders_paper_layout() {
        let s = TableII::reconstruct().render();
        assert!(s.contains("OpenMP on Raspberry Pi"));
        assert!(s.contains("4.55"));
        assert!(s.contains("4.45"));
        assert!(s.contains("MPI & Distr. Cluster Computing"));
        assert!(s.contains("4.38"));
        assert!(s.contains("4.29"));
    }

    #[test]
    fn figure3_spec_consistency() {
        // Bars sum to the cohort; totals give the published means.
        let total: usize = FIGURE3.pre_counts.iter().sum();
        assert_eq!(total, 22);
        let total: usize = FIGURE3.post_counts.iter().sum();
        assert_eq!(total, 22);
        let pre_sum: usize = FIGURE3
            .pre_counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i + 1) * c)
            .sum();
        assert_eq!(pre_sum, 62); // 62/22 = 2.818 → 2.82
        let post_sum: usize = FIGURE3
            .post_counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i + 1) * c)
            .sum();
        assert_eq!(post_sum, 79); // 79/22 = 3.591 → 3.59
    }

    #[test]
    fn figure4_spec_consistency() {
        let pre_sum: usize = FIGURE4
            .pre_counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i + 1) * c)
            .sum();
        assert_eq!(pre_sum, 57); // 57/22 = 2.591 → 2.59
        let post_sum: usize = FIGURE4
            .post_counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i + 1) * c)
            .sum();
        assert_eq!(post_sum, 83); // 83/22 = 3.773 → 3.77
    }

    #[test]
    fn figures_reconstruct_with_significant_increases() {
        for spec in [FIGURE3, FIGURE4] {
            let fig = Figure34::reconstruct(spec);
            let t = fig.t_test();
            assert!(t.mean_diff > 0.0, "fig {}", spec.number);
            assert!(
                t.p_two_sided < 0.01,
                "fig {}: p = {}",
                spec.number,
                t.p_two_sided
            );
        }
    }

    #[test]
    fn figure_render_quotes_published_stats() {
        let fig = Figure34::reconstruct(FIGURE3);
        let s = fig.render();
        assert!(s.contains("Fig. 3."));
        assert!(s.contains("confidence"));
        assert!(s.contains("published: pre µ = 2.82, post µ = 3.59"));
        assert!(s.contains("moderately"));
    }

    #[test]
    fn figure4_stronger_than_figure3() {
        // The paper's preparedness effect (p = 4.18e-08) dwarfs the
        // confidence effect (p = 0.0004); the reconstructions must keep
        // that ordering.
        let f3 = Figure34::reconstruct(FIGURE3);
        let f4 = Figure34::reconstruct(FIGURE4);
        assert!(f4.t_test().p_two_sided < f3.t_test().p_two_sided);
        assert!(
            f4.t_test().p_two_sided < 1e-5,
            "preparedness effect is very strong"
        );
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;

    #[test]
    fn wilcoxon_confirms_both_figures() {
        // The rank-based test must agree with the t-test's conclusion:
        // significant pre→post increases in both figures.
        for spec in [FIGURE3, FIGURE4] {
            let fig = Figure34::reconstruct(spec);
            let w = fig.wilcoxon();
            assert!(w.rank_sum_diff > 0.0, "fig {}: increase", spec.number);
            assert!(
                w.p_two_sided < 0.01,
                "fig {}: wilcoxon p = {}",
                spec.number,
                w.p_two_sided
            );
        }
    }

    #[test]
    fn wilcoxon_and_t_agree_on_ordering() {
        // Preparedness (fig 4) shows the stronger effect under both tests.
        let f3 = Figure34::reconstruct(FIGURE3);
        let f4 = Figure34::reconstruct(FIGURE4);
        assert!(f4.wilcoxon().p_two_sided <= f3.wilcoxon().p_two_sided);
        assert!(f4.t_test().p_two_sided <= f3.t_test().p_two_sided);
    }
}

impl TableII {
    /// Render the table with bootstrap 95% confidence intervals attached
    /// to each reconstructed mean — the uncertainty the paper omits.
    pub fn render_with_ci(&self) -> String {
        let mut out = self.render();
        out.push_str("\nwith bootstrap 95% CIs over the reconstructed responses:\n");
        for row in &self.rows {
            let ci_a = pdc_stats::bootstrap_mean_ci(&row.implementing.as_f64(), 2000, 0.05, 2020)
                .expect("n >= 2");
            let ci_b = pdc_stats::bootstrap_mean_ci(&row.development.as_f64(), 2000, 0.05, 2021)
                .expect("n >= 2");
            out.push_str(&format!(
                "{:<34} | {:.2} [{:.2}, {:.2}] | {:.2} [{:.2}, {:.2}]\n",
                row.session,
                row.implementing.reported_mean(),
                ci_a.lo,
                ci_a.hi,
                row.development.reported_mean(),
                ci_b.lo,
                ci_b.hi,
            ));
        }
        out
    }
}

#[cfg(test)]
mod ci_tests {
    use super::*;

    #[test]
    fn table2_cis_are_tight_and_ordered() {
        let t = TableII::reconstruct();
        let text = t.render_with_ci();
        assert!(text.contains("bootstrap 95% CIs"));
        // CIs over 21-22 responses on a 1-5 scale should be subunit.
        for row in &t.rows {
            let ci =
                pdc_stats::bootstrap_mean_ci(&row.implementing.as_f64(), 2000, 0.05, 2020).unwrap();
            assert!(ci.width() < 1.0, "{:?}", ci);
            assert!(ci.contains(row.implementing.reported_mean()));
        }
    }

    #[test]
    fn openmp_and_mpi_cis_overlap() {
        // An honest caveat the reproduction surfaces: with n = 22 the two
        // sessions' usefulness ratings are NOT statistically separable —
        // their CIs overlap, so "highest-rated" is descriptive only.
        let t = TableII::reconstruct();
        let a =
            pdc_stats::bootstrap_mean_ci(&t.rows[0].implementing.as_f64(), 2000, 0.05, 1).unwrap();
        let b =
            pdc_stats::bootstrap_mean_ci(&t.rows[1].implementing.as_f64(), 2000, 0.05, 1).unwrap();
        assert!(
            a.lo <= b.hi && b.lo <= a.hi,
            "CIs should overlap: {a:?} vs {b:?}"
        );
    }
}
