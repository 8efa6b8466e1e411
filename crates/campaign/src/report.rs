//! Campaign aggregation: ranked scenario rows, single points of failure,
//! worst-hit users, nines-lost — rendered as text and as deterministic
//! single-line JSON.
//!
//! The JSON rendering is part of the determinism contract: it contains
//! no timestamps, no wall-clock figures and no worker-count-dependent
//! state, and every collection is sorted by a total order — so the same
//! spec against the same model produces byte-identical reports no matter
//! how the engine scheduled the work.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::eval::{Baseline, CampaignInput, ScenarioOutcome};
use crate::scenario::Perturbation;

/// Availability below this counts as "service gone" for SPOF detection.
const SPOF_EPSILON: f64 = 1e-12;

/// One ranked scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRow {
    /// `+`-joined perturbation labels.
    pub label: String,
    /// Perspectives the scenario touched (re-evaluated).
    pub affected: usize,
    /// Mean availability over the perspective scope under the scenario.
    pub mean: f64,
    /// Baseline mean minus scenario mean (positive = loss).
    pub mean_delta: f64,
    /// Client of the hardest-hit perspective.
    pub worst_client: String,
    /// Provider of the hardest-hit perspective.
    pub worst_provider: String,
    /// That perspective's availability under the scenario.
    pub worst_availability: f64,
    /// That perspective's availability drop vs. its own baseline.
    pub worst_delta: f64,
    /// Nines of the mean lost vs. baseline (`-log10(1-A)` difference).
    pub nines_lost: f64,
    /// Some perspective that worked at baseline is dead (`A < 1e-12`).
    pub spof: bool,
    /// Mean 95% band over the perspective scope — present only for
    /// `posterior` campaigns, where every scenario price carries the 95%
    /// confidence interval for its posterior-mean availability from
    /// block-resampled component parameters.
    pub mean_interval: Option<(f64, f64)>,
}

/// Aggregate damage per client across every scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct UserImpact {
    /// Client device name.
    pub client: String,
    /// Sum over scenarios of the client's mean per-perspective delta.
    pub cumulative_delta: f64,
    /// Scenarios that hurt this client at all.
    pub scenarios_hurt: usize,
}

/// The aggregated campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Canonical spec echo.
    pub spec: String,
    /// Scenario count.
    pub scenarios: usize,
    /// Perspective-scope size.
    pub perspectives: usize,
    /// Total perspective re-evaluations across all scenarios.
    pub affected_evaluations: usize,
    /// Mean baseline availability.
    pub baseline_mean: f64,
    /// Client of the worst baseline perspective.
    pub baseline_worst_client: String,
    /// Provider of the worst baseline perspective.
    pub baseline_worst_provider: String,
    /// Worst baseline availability.
    pub baseline_worst: f64,
    /// Mean baseline 95% credible band (posterior campaigns only).
    pub baseline_interval: Option<(f64, f64)>,
    /// Every scenario, ranked by damage (mean delta desc, worst delta
    /// desc, label asc).
    pub rows: Vec<ScenarioRow>,
    /// Labels of single-point-of-failure scenarios, in rank order.
    pub spofs: Vec<String>,
    /// Clients ranked by cumulative damage (desc, name asc).
    pub worst_users: Vec<UserImpact>,
    /// Rows shown by the text rendering.
    pub top: usize,
}

/// Nines of availability: `-log10(1 - a)`, capped at 12 (an availability
/// within 1e-12 of 1 is "all the nines we can price").
pub fn nines(availability: f64) -> f64 {
    let u = 1.0 - availability;
    if u <= 1e-12 {
        12.0
    } else {
        -u.log10()
    }
}

/// Folds per-scenario outcomes into the ranked report.
pub fn aggregate(
    input: &CampaignInput,
    baseline: &Baseline,
    outcomes: &[ScenarioOutcome],
) -> CampaignReport {
    let baseline_mean = baseline.mean();
    let (bw_ix, _) = baseline
        .perspectives
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.availability
                .partial_cmp(&b.availability)
                .unwrap_or(Ordering::Equal)
        })
        .map(|(i, p)| (i, p.availability))
        .unwrap_or((0, 0.0));

    let mut rows = Vec::with_capacity(outcomes.len());
    let mut affected_evaluations = 0usize;
    let mut per_client: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for outcome in outcomes {
        let scenario = &input.scenarios[outcome.index];
        affected_evaluations += outcome.affected;
        let n = baseline.perspectives.len() as f64;
        let mean = outcome.availabilities.iter().sum::<f64>() / n;
        let mut worst_ix = 0usize;
        let mut worst_delta = f64::NEG_INFINITY;
        let mut spof = false;
        let mut client_delta: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
        for (i, (persp, &avail)) in baseline
            .perspectives
            .iter()
            .zip(&outcome.availabilities)
            .enumerate()
        {
            let delta = persp.availability - avail;
            if delta > worst_delta {
                worst_delta = delta;
                worst_ix = i;
            }
            if persp.availability > SPOF_EPSILON && avail < SPOF_EPSILON {
                spof = true;
            }
            let entry = client_delta.entry(&*persp.client).or_insert((0.0, 0));
            entry.0 += delta;
            entry.1 += 1;
        }
        for (client, (delta_sum, count)) in client_delta {
            let mean_delta = delta_sum / count as f64;
            let entry = per_client.entry(client).or_insert((0.0, 0));
            entry.0 += mean_delta;
            if mean_delta > SPOF_EPSILON {
                entry.1 += 1;
            }
        }
        let worst = &baseline.perspectives[worst_ix];
        rows.push(ScenarioRow {
            label: scenario.label.clone(),
            affected: outcome.affected,
            mean,
            mean_delta: baseline_mean - mean,
            worst_client: worst.client.to_string(),
            worst_provider: worst.provider.to_string(),
            worst_availability: outcome.availabilities[worst_ix],
            worst_delta,
            nines_lost: nines(baseline_mean) - nines(mean),
            spof,
            mean_interval: outcome.intervals.as_ref().map(|ivs| mean_band(ivs)),
        });
    }
    rows.sort_by(|a, b| {
        b.mean_delta
            .partial_cmp(&a.mean_delta)
            .unwrap_or(Ordering::Equal)
            .then(
                b.worst_delta
                    .partial_cmp(&a.worst_delta)
                    .unwrap_or(Ordering::Equal),
            )
            .then_with(|| a.label.cmp(&b.label))
    });
    let spofs: Vec<String> = rows
        .iter()
        .filter(|row| row.spof)
        .map(|row| row.label.clone())
        .collect();
    let mut worst_users: Vec<UserImpact> = per_client
        .into_iter()
        .map(|(client, (cumulative_delta, scenarios_hurt))| UserImpact {
            client: client.to_string(),
            cumulative_delta,
            scenarios_hurt,
        })
        .collect();
    worst_users.sort_by(|a, b| {
        b.cumulative_delta
            .partial_cmp(&a.cumulative_delta)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.client.cmp(&b.client))
    });

    let baseline_interval = if input.spec.posterior {
        let bands: Vec<(f64, f64)> = baseline
            .perspectives
            .iter()
            .map(|p| p.interval.unwrap_or((p.availability, p.availability)))
            .collect();
        (!bands.is_empty()).then(|| mean_band(&bands))
    } else {
        None
    };
    let worst_persp = &baseline.perspectives[bw_ix];
    CampaignReport {
        spec: input.spec.canonical(),
        scenarios: outcomes.len(),
        perspectives: baseline.perspectives.len(),
        affected_evaluations,
        baseline_mean,
        baseline_worst_client: worst_persp.client.to_string(),
        baseline_worst_provider: worst_persp.provider.to_string(),
        baseline_worst: worst_persp.availability,
        baseline_interval,
        rows,
        spofs,
        worst_users,
        top: input.spec.top,
    }
}

/// Mean of per-perspective credible bands — the scope-level band shown
/// next to the scope-level mean availability.
fn mean_band(bands: &[(f64, f64)]) -> (f64, f64) {
    let n = bands.len() as f64;
    (
        bands.iter().map(|b| b.0).sum::<f64>() / n,
        bands.iter().map(|b| b.1).sum::<f64>() / n,
    )
}

/// Is this scenario purely a kill of one component? (Used by callers to
/// cross-check rankings against analytic importance.)
pub fn single_kill(perturbations: &[Perturbation]) -> Option<&str> {
    match perturbations {
        [Perturbation::KillComponent(name)] => Some(name),
        _ => None,
    }
}

impl CampaignReport {
    /// Single-line machine summary (the wire verb's final `OK` payload).
    pub fn summary_line(&self) -> String {
        let top: Vec<&str> = self
            .rows
            .iter()
            .take(3)
            .map(|row| row.label.as_str())
            .collect();
        let band = match self.baseline_interval {
            // Posterior campaigns surface the scope-level credible band in
            // the one-line summary; point campaigns keep the exact legacy
            // byte layout.
            Some((lo, hi)) => format!(" baseline_band={lo:.9}..{hi:.9}"),
            None => String::new(),
        };
        format!(
            "scenarios={} perspectives={} affected={} baseline_mean={:.9}{} spofs={} top={}",
            self.scenarios,
            self.perspectives,
            self.affected_evaluations,
            self.baseline_mean,
            band,
            self.spofs.len(),
            if top.is_empty() {
                "-".to_string()
            } else {
                top.join("|")
            }
        )
    }

    /// Human-readable report: header, top-K ranking, SPOF list, worst
    /// users.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("campaign: {}\n", self.spec));
        out.push_str(&format!(
            "scenarios={} perspectives={} affected_evaluations={}\n",
            self.scenarios, self.perspectives, self.affected_evaluations
        ));
        match self.baseline_interval {
            Some((lo, hi)) => out.push_str(&format!(
                "baseline: mean={:.9} band95={lo:.9}..{hi:.9} worst={}->{} @ {:.9}\n",
                self.baseline_mean,
                self.baseline_worst_client,
                self.baseline_worst_provider,
                self.baseline_worst
            )),
            None => out.push_str(&format!(
                "baseline: mean={:.9} worst={}->{} @ {:.9}\n",
                self.baseline_mean,
                self.baseline_worst_client,
                self.baseline_worst_provider,
                self.baseline_worst
            )),
        }
        let shown = self.rows.len().min(self.top);
        out.push_str(&format!(
            "top {shown} of {} scenarios by mean availability delta:\n",
            self.rows.len()
        ));
        out.push_str(
            "  rank  label                            mean_delta    worst_pair        worst_delta   nines_lost  spof\n",
        );
        for (i, row) in self.rows.iter().take(self.top).enumerate() {
            let band = match row.mean_interval {
                Some((lo, hi)) => format!("  band95={lo:.9}..{hi:.9}"),
                None => String::new(),
            };
            out.push_str(&format!(
                "  {:>4}  {:<32} {:.9}   {:<16} {:.9}   {:>8.4}  {}{}\n",
                i + 1,
                row.label,
                row.mean_delta,
                format!("{}->{}", row.worst_client, row.worst_provider),
                row.worst_delta,
                row.nines_lost,
                if row.spof { "yes" } else { "-" },
                band
            ));
        }
        if self.spofs.is_empty() {
            out.push_str("single points of failure: none\n");
        } else {
            out.push_str(&format!(
                "single points of failure ({}): {}\n",
                self.spofs.len(),
                self.spofs.join(", ")
            ));
        }
        out.push_str("worst-hit users:\n");
        for impact in self.worst_users.iter().take(self.top) {
            out.push_str(&format!(
                "  {:<12} cumulative_delta={:.9} scenarios_hurt={}\n",
                impact.client, impact.cumulative_delta, impact.scenarios_hurt
            ));
        }
        out
    }

    /// Deterministic single-line JSON (byte-identical for identical
    /// campaigns, independent of worker count).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"spec\":\"{}\",", escape(&self.spec)));
        out.push_str(&format!("\"scenarios\":{},", self.scenarios));
        out.push_str(&format!("\"perspectives\":{},", self.perspectives));
        out.push_str(&format!(
            "\"affected_evaluations\":{},",
            self.affected_evaluations
        ));
        let baseline_band = match self.baseline_interval {
            Some((lo, hi)) => format!(",\"interval95\":[{lo:.12},{hi:.12}]"),
            None => String::new(),
        };
        out.push_str(&format!(
            "\"baseline\":{{\"mean\":{:.12}{},\"worst\":{{\"client\":\"{}\",\"provider\":\"{}\",\"availability\":{:.12}}}}},",
            self.baseline_mean,
            baseline_band,
            escape(&self.baseline_worst_client),
            escape(&self.baseline_worst_provider),
            self.baseline_worst
        ));
        out.push_str("\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let band = match row.mean_interval {
                Some((lo, hi)) => format!(",\"interval95\":[{lo:.12},{hi:.12}]"),
                None => String::new(),
            };
            out.push_str(&format!(
                "{{\"label\":\"{}\",\"affected\":{},\"mean\":{:.12}{},\"mean_delta\":{:.12},\"worst\":{{\"client\":\"{}\",\"provider\":\"{}\",\"availability\":{:.12},\"delta\":{:.12}}},\"nines_lost\":{:.6},\"spof\":{}}}",
                escape(&row.label),
                row.affected,
                row.mean,
                band,
                row.mean_delta,
                escape(&row.worst_client),
                escape(&row.worst_provider),
                row.worst_availability,
                row.worst_delta,
                row.nines_lost,
                row.spof
            ));
        }
        out.push_str("],");
        out.push_str(&format!(
            "\"spofs\":[{}],",
            self.spofs
                .iter()
                .map(|label| format!("\"{}\"", escape(label)))
                .collect::<Vec<_>>()
                .join(",")
        ));
        out.push_str("\"worst_users\":[");
        for (i, impact) in self.worst_users.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"client\":\"{}\",\"cumulative_delta\":{:.12},\"scenarios_hurt\":{}}}",
                escape(&impact.client),
                impact.cumulative_delta,
                impact.scenarios_hurt
            ));
        }
        out.push_str("]}");
        out
    }
}

fn escape(raw: &str) -> String {
    raw.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nines_caps_and_counts() {
        assert!((nines(0.9) - 1.0).abs() < 1e-12);
        assert!((nines(0.999) - 3.0).abs() < 1e-9);
        assert_eq!(nines(1.0), 12.0);
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("a\nb"), "a\\u000ab");
    }
}
