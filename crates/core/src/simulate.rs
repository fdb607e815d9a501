//! Simulate the workshop's self-paced morning: the 22-participant cohort
//! working through Module A asynchronously.
//!
//! The paper designed the modules "to be self-paced, so that learners
//! could work through these activities asynchronously" — which means an
//! instructor's view of the session is a gradebook filling up unevenly.
//! This module generates that view: each synthetic learner has a skill
//! level (deterministic from the seed), attempts every activity until
//! solved (bounded retries, like a learner who gives up and moves on),
//! and the resulting [`Gradebook`] feeds the instructor analytics.
//!
//! Everything is deterministic in the seed: the simulation is a fixture
//! generator with knobs, not a claim about real learners.

use pdc_assessment::Cohort;
use pdc_chaos::splitmix64;
use pdc_courseware::activity::Activity;
use pdc_courseware::progress::ActivityStats;
use pdc_courseware::Gradebook;

use crate::module_a;

fn unit(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    (splitmix64(seed ^ splitmix64(a) ^ splitmix64(b << 1) ^ splitmix64(c << 2)) >> 11) as f64
        / (1u64 << 53) as f64
}

/// Result of a simulated session.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The filled gradebook.
    pub gradebook: Gradebook,
    /// Per-learner completion fraction, in cohort order.
    pub completion: Vec<(String, f64)>,
    /// Activities ranked hardest first.
    pub hardest: Vec<ActivityStats>,
}

impl SessionReport {
    /// Mean completion over the cohort.
    pub fn mean_completion(&self) -> f64 {
        self.completion.iter().map(|(_, c)| c).sum::<f64>() / self.completion.len() as f64
    }

    /// Render the instructor dashboard.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Self-paced session dashboard — mean completion {:.0}%\n\n",
            self.mean_completion() * 100.0
        );
        out.push_str("hardest activities (mean attempts | solve rate):\n");
        for st in self.hardest.iter().take(5) {
            out.push_str(&format!(
                "  {:<14} {:>4.2} | {:>3.0}%\n",
                st.activity_id,
                st.mean_attempts(),
                st.solve_rate() * 100.0
            ));
        }
        out
    }
}

/// Simulate the cohort working through Module A.
///
/// Each learner `i` gets a skill in [0.45, 0.95] from the seed. For each
/// activity they roll attempts until a roll clears the activity's
/// difficulty bar (MC with more choices is harder; Parsons hardest),
/// giving up after 4 failed attempts — producing realistic unevenness.
pub fn simulate_module_a_session(seed: u64) -> SessionReport {
    let module = module_a::module();
    let cohort = Cohort::workshop_2020();
    let mut gradebook = Gradebook::new();

    for (li, participant) in cohort.participants.iter().enumerate() {
        let skill = 0.45 + 0.5 * unit(seed, li as u64, 0, 0);
        for (ai, activity) in module.activities().iter().enumerate() {
            let difficulty: f64 = match activity {
                Activity::MultipleChoice(mc) => 0.25 + 0.05 * mc.choices.len() as f64,
                Activity::FillInBlank(_) => 0.35,
                Activity::DragAndDrop(_) => 0.40,
                Activity::Parsons(_) => 0.50,
            };
            for attempt in 0..4u64 {
                let roll = unit(seed, li as u64, ai as u64 + 1, attempt + 1);
                let solved = roll < skill * (1.0 - difficulty) + 0.30 * attempt as f64;
                gradebook.record(
                    &participant.id,
                    activity.id(),
                    &pdc_courseware::Graded {
                        correct: solved,
                        feedback: String::new(),
                    },
                );
                if solved {
                    break;
                }
            }
        }
    }

    let completion = cohort
        .participants
        .iter()
        .map(|p| (p.id.clone(), gradebook.completion(&p.id, &module)))
        .collect();
    let hardest = gradebook.hardest_activities(&module);
    SessionReport {
        gradebook,
        completion,
        hardest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_is_deterministic() {
        let a = simulate_module_a_session(7);
        let b = simulate_module_a_session(7);
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.hardest, b.hardest);
    }

    #[test]
    fn different_seeds_differ() {
        // Completion can saturate at 100% for both seeds (retries give a
        // big bonus), so compare the attempt *counts*, which trace the
        // actual rolls.
        let attempts = |seed: u64| -> Vec<u32> {
            let r = simulate_module_a_session(seed);
            module_a::module()
                .activities()
                .iter()
                .map(|a| r.gradebook.activity_stats(a.id()).attempts)
                .collect()
        };
        assert_ne!(attempts(7), attempts(8));
    }

    #[test]
    fn cohort_mostly_completes_the_module() {
        // The paper's session had no reported blockers; with bounded
        // retries and reasonable skills, mean completion should be high
        // but not trivially 100%.
        let r = simulate_module_a_session(2020);
        let mean = r.mean_completion();
        assert!(mean > 0.7, "mean completion {mean}");
        assert!(mean <= 1.0);
        assert_eq!(r.completion.len(), 22);
    }

    #[test]
    fn every_learner_attempted_everything() {
        let r = simulate_module_a_session(1);
        let module = module_a::module();
        for a in module.activities() {
            let st = r.gradebook.activity_stats(a.id());
            assert_eq!(st.learners_attempted, 22, "{}", a.id());
            assert!(st.attempts >= 22);
        }
    }

    #[test]
    fn hardest_ranking_is_sorted() {
        let r = simulate_module_a_session(3);
        for w in r.hardest.windows(2) {
            assert!(w[0].mean_attempts() >= w[1].mean_attempts());
        }
    }

    #[test]
    fn dashboard_renders() {
        let text = simulate_module_a_session(5).render();
        assert!(text.contains("mean completion"));
        assert!(text.contains("hardest activities"));
    }
}
