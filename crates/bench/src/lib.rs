//! # ooo-bench — the figure/table regeneration harness
//!
//! One function per table and figure of the paper's evaluation; each
//! returns a [`FigureReport`] with the measured rows and the paper's
//! claim for side-by-side comparison. The `figures` binary prints them;
//! EXPERIMENTS.md records a snapshot.

#![warn(missing_docs)]

pub mod figures;

/// A regenerated figure or table.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Identifier, e.g. `"fig7"`.
    pub id: &'static str,
    /// Title matching the paper.
    pub title: &'static str,
    /// The paper's headline claim for this figure.
    pub paper: &'static str,
    /// Measured output lines.
    pub lines: Vec<String>,
}

impl FigureReport {
    /// Renders the report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "================ {} — {} ================\n",
            self.id, self.title
        ));
        out.push_str(&format!("paper: {}\n", self.paper));
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

/// All figure ids in presentation order.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "table1",
        "table2",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11a",
        "fig11b",
        "fig12",
        "fig13a",
        "fig13b",
        "sec6",
        "sec82",
        "sec83",
        "ablations",
        "recompute",
        "tracemetrics",
        "chaosrecovery",
        "perfadvice",
    ]
}

/// Generates the report for one id.
///
/// # Panics
///
/// Panics on unknown ids (the binary validates them first).
pub fn generate(id: &str) -> FigureReport {
    match id {
        "table1" => figures::table1(),
        "table2" => figures::table2(),
        "fig1" => figures::fig1(),
        "fig2" => figures::fig2(),
        "fig3" => figures::fig3(),
        "fig4" => figures::fig4(),
        "fig5" => figures::fig5(),
        "fig6" => figures::fig6(),
        "fig7" => figures::fig7(),
        "fig8" => figures::fig8(),
        "fig9" => figures::fig9(),
        "fig10" => figures::fig10(),
        "fig11a" => figures::fig11a(),
        "fig11b" => figures::fig11b(),
        "fig12" => figures::fig12(),
        "fig13a" => figures::fig13a(),
        "fig13b" => figures::fig13b(),
        "sec6" => figures::sec6(),
        "sec82" => figures::sec82(),
        "sec83" => figures::sec83(),
        "ablations" => figures::ablations(),
        "recompute" => figures::recompute(),
        "tracemetrics" => figures::tracemetrics(),
        "chaosrecovery" => figures::chaosrecovery(),
        "perfadvice" => figures::perfadvice(),
        other => panic!("unknown figure id {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_generate() {
        let ids = all_ids();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        // Every id is pinned by the snapshot, in presentation order.
        let pinned: Vec<&str> = include_str!("../../../docs/figures_snapshot.txt")
            .lines()
            .filter_map(|l| l.strip_prefix("================ "))
            .filter_map(|l| l.split(' ').next())
            .collect();
        assert_eq!(ids, pinned, "docs/figures_snapshot.txt is out of step");
        // Generate the cheap unit-time ones to smoke-test dispatch.
        for id in ["fig3", "fig4", "fig5", "fig6", "fig12", "table1", "table2"] {
            let r = generate(id);
            assert!(!r.lines.is_empty(), "{id} produced no lines");
            assert!(r.render().contains(id));
        }
    }
}
