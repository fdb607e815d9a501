//! The pandemic-simulation exemplar.
//!
//! The fourth exemplar of the CSinParallel family the paper's modules
//! draw from (and a pointed one for a COVID-era workshop): an
//! agent-based SIR epidemic. `N` agents random-walk in a square world;
//! each day every infectious agent may transmit to susceptible agents
//! within a radius; infections recover after a fixed number of days.
//! The output is the classic epidemic curve — susceptible / infected /
//! recovered counts per day.
//!
//! All randomness is *counter-based* (splitmix64 of `(seed, agent, day)`)
//! rather than sequential, so the computation is embarrassingly parallel
//! over agents **and** bit-identical under any partitioning — the same
//! trick the other exemplars use, pushed one step further.

use serde::{Deserialize, Serialize};

use pdc_chaos::splitmix64;
use pdc_mpc::World;
use pdc_shmem::{Schedule, Team};

/// Epidemiological state of one agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sir {
    /// Susceptible.
    S,
    /// Infectious, with days remaining until recovery.
    I(u32),
    /// Recovered (immune).
    R,
}

/// One agent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Agent {
    /// Position x in `[0, world)`.
    pub x: f64,
    /// Position y in `[0, world)`.
    pub y: f64,
    /// SIR state.
    pub state: Sir,
}

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PandemicConfig {
    /// Number of agents.
    pub agents: usize,
    /// Square world edge length.
    pub world: f64,
    /// Days to simulate.
    pub days: usize,
    /// Transmission radius.
    pub radius: f64,
    /// Per-contact daily transmission probability.
    pub infection_prob: f64,
    /// Days an infection lasts.
    pub recovery_days: u32,
    /// Initially infected agents (the first `k` agents).
    pub initial_infected: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for PandemicConfig {
    /// Workshop scale: 300 agents, 60 days.
    fn default() -> Self {
        Self {
            agents: 300,
            world: 100.0,
            days: 60,
            radius: 3.0,
            infection_prob: 0.35,
            recovery_days: 7,
            initial_infected: 3,
            seed: 2020,
        }
    }
}

/// One day's aggregate counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DayStats {
    /// Day index (0 = initial state).
    pub day: usize,
    /// Susceptible count.
    pub s: usize,
    /// Infectious count.
    pub i: usize,
    /// Recovered count.
    pub r: usize,
}

/// Uniform f64 in [0,1) from a counter.
fn unit(seed: u64, agent: usize, day: usize, stream: u64) -> f64 {
    let h = splitmix64(
        seed ^ splitmix64(agent as u64) ^ splitmix64((day as u64) << 1) ^ splitmix64(stream << 33),
    );
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Initial population: deterministic positions, first `initial_infected`
/// agents infectious.
pub fn initial_population(config: &PandemicConfig) -> Vec<Agent> {
    (0..config.agents)
        .map(|a| Agent {
            x: unit(config.seed, a, usize::MAX, 1) * config.world,
            y: unit(config.seed, a, usize::MAX, 2) * config.world,
            state: if a < config.initial_infected {
                Sir::I(config.recovery_days)
            } else {
                Sir::S
            },
        })
        .collect()
}

/// Advance one agent by one day, given read-only access to yesterday's
/// infectious positions. Pure in its arguments — the parallelization
/// unit.
pub fn step_agent(
    config: &PandemicConfig,
    agent: &Agent,
    index: usize,
    day: usize,
    infectious: &[(f64, f64)],
) -> Agent {
    // Random walk (reflecting boundaries).
    let dx = (unit(config.seed, index, day, 3) - 0.5) * 2.0;
    let dy = (unit(config.seed, index, day, 4) - 0.5) * 2.0;
    let reflect = |v: f64| {
        let w = config.world;
        if v < 0.0 {
            -v
        } else if v > w {
            2.0 * w - v
        } else {
            v
        }
    };
    let x = reflect(agent.x + dx);
    let y = reflect(agent.y + dy);
    let state = match agent.state {
        Sir::R => Sir::R,
        Sir::I(1) => Sir::R,
        Sir::I(d) => Sir::I(d - 1),
        Sir::S => {
            let r2 = config.radius * config.radius;
            let exposures = infectious
                .iter()
                .filter(|&&(ix, iy)| {
                    let (ddx, ddy) = (ix - agent.x, iy - agent.y);
                    ddx * ddx + ddy * ddy <= r2
                })
                .count();
            // One infection roll per exposure, all counter-based.
            let infected = (0..exposures)
                .any(|e| unit(config.seed, index, day, 16 + e as u64) < config.infection_prob);
            if infected {
                Sir::I(config.recovery_days)
            } else {
                Sir::S
            }
        }
    };
    Agent { x, y, state }
}

fn stats_of(day: usize, pop: &[Agent]) -> DayStats {
    let mut st = DayStats {
        day,
        s: 0,
        i: 0,
        r: 0,
    };
    for a in pop {
        match a.state {
            Sir::S => st.s += 1,
            Sir::I(_) => st.i += 1,
            Sir::R => st.r += 1,
        }
    }
    st
}

fn infectious_positions(pop: &[Agent]) -> Vec<(f64, f64)> {
    pop.iter()
        .filter(|a| matches!(a.state, Sir::I(_)))
        .map(|a| (a.x, a.y))
        .collect()
}

/// Sequential baseline.
pub fn run_seq(config: &PandemicConfig) -> Vec<DayStats> {
    let mut pop = initial_population(config);
    let mut out = vec![stats_of(0, &pop)];
    for day in 1..=config.days {
        let infectious = infectious_positions(&pop);
        pop = pop
            .iter()
            .enumerate()
            .map(|(i, a)| step_agent(config, a, i, day, &infectious))
            .collect();
        out.push(stats_of(day, &pop));
    }
    out
}

/// Shared-memory version: the per-agent step is a parallel loop each day.
pub fn run_shmem(config: &PandemicConfig, team: &Team) -> Vec<DayStats> {
    let mut pop = initial_population(config);
    let mut out = vec![stats_of(0, &pop)];
    for day in 1..=config.days {
        let infectious = infectious_positions(&pop);
        let mut next = pop.clone();
        {
            let pop = &pop;
            let infectious = &infectious;
            pdc_shmem::parallel_for_each_indexed(
                team,
                Schedule::default(),
                &mut next,
                |i, slot| {
                    *slot = step_agent(config, &pop[i], i, day, infectious);
                },
            );
        }
        pop = next;
        out.push(stats_of(day, &pop));
    }
    out
}

/// Message-passing version: agents are block-partitioned over ranks;
/// each day ranks allgather the infectious positions, step their block,
/// and allgather block stats.
pub fn run_mpc(config: &PandemicConfig, np: usize) -> Vec<DayStats> {
    assert!(np >= 1);
    let results = World::new(np).run(|comm| {
        let n = config.agents;
        let per = n / comm.size();
        let extra = n % comm.size();
        let mine = per + usize::from(comm.rank() < extra);
        let start = comm.rank() * per + comm.rank().min(extra);

        let full = initial_population(config);
        let mut block: Vec<Agent> = full[start..start + mine].to_vec();
        let mut series = Vec::with_capacity(config.days + 1);

        // Day 0 stats from the shared initial population.
        series.push(stats_of(0, &full));

        for day in 1..=config.days {
            // Everyone learns everyone's infectious positions.
            let local_inf = infectious_positions(&block);
            let all_inf: Vec<Vec<(f64, f64)>> = comm.allgather(local_inf).unwrap();
            let infectious: Vec<(f64, f64)> = all_inf.into_iter().flatten().collect();

            block = block
                .iter()
                .enumerate()
                .map(|(k, a)| step_agent(config, a, start + k, day, &infectious))
                .collect();

            let local = stats_of(day, &block);
            let all: Vec<DayStats> = comm.allgather(local).unwrap();
            series.push(all.into_iter().fold(
                DayStats {
                    day,
                    s: 0,
                    i: 0,
                    r: 0,
                },
                |acc, d| DayStats {
                    day,
                    s: acc.s + d.s,
                    i: acc.i + d.i,
                    r: acc.r + d.r,
                },
            ));
        }
        series
    });
    results.into_iter().next().expect("at least one rank")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> PandemicConfig {
        PandemicConfig {
            agents: 80,
            days: 25,
            ..Default::default()
        }
    }

    #[test]
    fn counts_always_sum_to_population() {
        for st in run_seq(&quick()) {
            assert_eq!(st.s + st.i + st.r, 80, "day {}", st.day);
        }
    }

    #[test]
    fn day0_matches_initial_infected() {
        let series = run_seq(&quick());
        assert_eq!(series[0].i, 3);
        assert_eq!(series[0].s, 77);
        assert_eq!(series[0].r, 0);
    }

    #[test]
    fn recovered_is_monotone_nondecreasing() {
        let series = run_seq(&quick());
        for w in series.windows(2) {
            assert!(w[1].r >= w[0].r, "day {}", w[1].day);
        }
    }

    #[test]
    fn susceptible_is_monotone_nonincreasing() {
        let series = run_seq(&quick());
        for w in series.windows(2) {
            assert!(w[1].s <= w[0].s, "day {}", w[1].day);
        }
    }

    #[test]
    fn epidemic_takes_off_with_high_transmission() {
        let config = PandemicConfig {
            agents: 150,
            world: 50.0, // dense world: ~7 contacts in radius on average
            infection_prob: 0.9,
            radius: 6.0,
            days: 50,
            ..Default::default()
        };
        let series = run_seq(&config);
        let peak = series.iter().map(|d| d.i).max().unwrap();
        assert!(peak > 30, "peak infections {peak} too small for R0 >> 1");
        let final_r = series.last().unwrap().r;
        assert!(final_r > 100, "attack size {final_r}");
    }

    #[test]
    fn epidemic_dies_with_zero_transmission() {
        let config = PandemicConfig {
            infection_prob: 0.0,
            days: 10,
            ..quick()
        };
        let series = run_seq(&config);
        let last = series.last().unwrap();
        // Only the initial 3 ever get infected; after 7 days they recover.
        assert_eq!(last.r, 3);
        assert_eq!(last.s, 77);
        assert_eq!(last.i, 0);
    }

    #[test]
    fn shmem_matches_seq_exactly() {
        let config = quick();
        let want = run_seq(&config);
        for threads in [1, 2, 4] {
            assert_eq!(run_shmem(&config, &Team::new(threads)), want, "t={threads}");
        }
    }

    #[test]
    fn mpc_matches_seq_exactly() {
        let config = PandemicConfig {
            agents: 50,
            days: 15,
            ..Default::default()
        };
        let want = run_seq(&config);
        for np in [1, 2, 3, 4] {
            assert_eq!(run_mpc(&config, np), want, "np={np}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let config = quick();
        assert_eq!(run_seq(&config), run_seq(&config));
    }

    #[test]
    fn different_seeds_give_different_epidemics() {
        let a = run_seq(&quick());
        let b = run_seq(&PandemicConfig {
            seed: 9999,
            ..quick()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn agents_stay_in_the_world() {
        let config = quick();
        let mut pop = initial_population(&config);
        for day in 1..=10 {
            let inf = infectious_positions(&pop);
            pop = pop
                .iter()
                .enumerate()
                .map(|(i, a)| step_agent(&config, a, i, day, &inf))
                .collect();
            for a in &pop {
                assert!(a.x >= 0.0 && a.x <= config.world);
                assert!(a.y >= 0.0 && a.y <= config.world);
            }
        }
    }
}
