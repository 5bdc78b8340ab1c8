//! The evolutionary loop of Algorithm 1.

use crate::SearchError;
use epim_core::EpitomeSpec;
use epim_pim::{CostModel, LayerCosts, Precision};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What the reward minimizes (Eq. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// `Reward = m / Latency(E)` — the paper's "Latency-Opt" rows.
    Latency,
    /// `Reward = m / Energy(E)` — the "Energy-Opt" rows.
    Energy,
    /// `Reward = m / EDP(E)` — an extension the paper's Figure 4c
    /// motivates (energy-delay product).
    Edp,
}

/// One layer of the search problem.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchLayer {
    /// The convolution being replaced.
    pub conv: epim_core::ConvShape,
    /// Output pixels this layer produces per image.
    pub out_pixels: usize,
    /// The candidate epitome set `C` for this layer.
    pub candidates: Vec<EpitomeSpec>,
}

/// Search hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Population size.
    pub population: usize,
    /// Generations (Algorithm 1's `Max Iteration`).
    pub iterations: usize,
    /// Fraction of the population kept as parents each generation.
    pub parent_fraction: f64,
    /// Per-layer probability that a child mutates that layer's choice.
    pub mutation_rate: f64,
    /// Crossbar budget for the indicator `m` (Eq. 7). `usize::MAX`
    /// disables the constraint.
    pub crossbar_budget: usize,
    /// What to minimize.
    pub objective: Objective,
    /// RNG seed (the search is fully deterministic given this).
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            population: 32,
            iterations: 30,
            parent_fraction: 0.25,
            mutation_rate: 0.15,
            crossbar_budget: usize::MAX,
            objective: Objective::Latency,
            seed: 0,
        }
    }
}

/// The best design found, with its evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct BestDesign {
    /// Candidate index chosen for each layer.
    pub genome: Vec<usize>,
    /// Reward of the design (Eq. 6).
    pub reward: f64,
    /// Summed layer costs of the design.
    pub costs: LayerCosts,
}

/// Per-generation best rewards — for convergence analysis and the
/// "reward is non-decreasing under elitism" invariant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchTrace {
    /// Best reward after each generation.
    pub best_rewards: Vec<f64>,
    /// Number of budget-feasible individuals evaluated per generation.
    pub feasible_counts: Vec<usize>,
}

/// The evolutionary search engine.
///
/// A layer's cost depends only on that layer's candidate, so
/// [`EvoSearch::new`] simulates every `(layer, candidate)` pair once and a
/// genome's evaluation sums table entries.
#[derive(Debug, Clone)]
pub struct EvoSearch {
    layers: Vec<SearchLayer>,
    /// `costs[layer][candidate]`, parallel to `layers[layer].candidates`.
    costs: Vec<Vec<LayerCosts>>,
    cfg: SearchConfig,
}

impl EvoSearch {
    /// Creates a search over `layers`, simulating each candidate's costs
    /// under `model` at `precision`.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::InvalidProblem`] for an empty problem, a
    /// layer with no candidates, or degenerate hyperparameters.
    pub fn new(
        layers: Vec<SearchLayer>,
        model: CostModel,
        precision: Precision,
        cfg: SearchConfig,
    ) -> Result<Self, SearchError> {
        if layers.is_empty() {
            return Err(SearchError::invalid("no layers"));
        }
        for (i, l) in layers.iter().enumerate() {
            if l.candidates.is_empty() {
                return Err(SearchError::invalid(format!("layer {i} has no candidates")));
            }
            for c in &l.candidates {
                if c.conv() != l.conv {
                    return Err(SearchError::invalid(format!(
                        "layer {i} candidate targets conv {} but layer is {}",
                        c.conv(),
                        l.conv
                    )));
                }
            }
        }
        validate(&cfg)?;
        let costs = layers
            .iter()
            .map(|l| {
                l.candidates
                    .iter()
                    .map(|spec| model.epitome_layer(spec, l.out_pixels, precision))
                    .collect()
            })
            .collect();
        Ok(EvoSearch { layers, costs, cfg })
    }

    /// The same problem and simulated costs under other hyperparameters
    /// (a costs-then-budget probe followed by the real search simulates
    /// once).
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::InvalidProblem`] for degenerate
    /// hyperparameters.
    pub fn with_config(mut self, cfg: SearchConfig) -> Result<Self, SearchError> {
        validate(&cfg)?;
        self.cfg = cfg;
        Ok(self)
    }

    /// The layers being searched.
    pub fn layers(&self) -> &[SearchLayer] {
        &self.layers
    }

    /// The design-space size `N^l` (saturating; the paper quotes
    /// 20,676,608 for its ResNet-50 problem).
    pub fn design_space(&self) -> u128 {
        self.layers.iter().fold(1u128, |acc, l| {
            acc.saturating_mul(l.candidates.len() as u128)
        })
    }

    /// Evaluates one genome: summed layer costs and the Eq. 6 reward.
    pub fn evaluate(&self, genome: &[usize]) -> (LayerCosts, f64) {
        let costs = self
            .costs
            .iter()
            .zip(genome)
            .map(|(layer, &gi)| layer[gi])
            .reduce(|total, c| total.combine(&c))
            .expect("at least one layer");
        let m = if costs.crossbars > self.cfg.crossbar_budget {
            0.0
        } else {
            1.0
        };
        let metric = match self.cfg.objective {
            Objective::Latency => costs.latency_ns,
            Objective::Energy => costs.energy_pj,
            Objective::Edp => costs.edp(),
        };
        let reward = if metric > 0.0 { m / metric } else { 0.0 };
        (costs, reward)
    }

    /// Runs the search and returns the best design.
    pub fn run(&self) -> BestDesign {
        self.run_traced().0
    }

    /// Runs the search, also returning the per-generation trace.
    pub fn run_traced(&self) -> (BestDesign, SearchTrace) {
        self.run_seeded(&[])
    }

    /// Runs the search with seed genomes injected into the initial
    /// population (elitism guarantees the result is at least as good as
    /// the best feasible seed). Seeds with out-of-range genes or wrong
    /// length are ignored.
    pub fn run_seeded(&self, seeds: &[Vec<usize>]) -> (BestDesign, SearchTrace) {
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed);
        // Line 1: initialize the population — seeds first, then uniform
        // random genomes.
        let mut population: Vec<Vec<usize>> = seeds
            .iter()
            .filter(|g| {
                g.len() == self.layers.len()
                    && g.iter()
                        .zip(&self.layers)
                        .all(|(&gi, l)| gi < l.candidates.len())
            })
            .take(self.cfg.population)
            .cloned()
            .collect();
        while population.len() < self.cfg.population {
            population.push(
                self.layers
                    .iter()
                    .map(|l| rng.gen_range(0..l.candidates.len()))
                    .collect(),
            );
        }

        let mut trace = SearchTrace {
            best_rewards: Vec::new(),
            feasible_counts: Vec::new(),
        };
        let mut best: Option<BestDesign> = None;

        for _iter in 0..self.cfg.iterations {
            // Lines 3-7: evaluate and filter by the budget (reward already
            // encodes the indicator m, so infeasible designs sort last).
            let mut scored: Vec<(Vec<usize>, LayerCosts, f64)> = population
                .drain(..)
                .map(|g| {
                    let (c, r) = self.evaluate(&g);
                    (g, c, r)
                })
                .collect();
            trace
                .feasible_counts
                .push(scored.iter().filter(|(_, _, r)| *r > 0.0).count());

            // Line 9: select parents by reward.
            scored.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
            let n_parents = ((self.cfg.population as f64 * self.cfg.parent_fraction).ceil()
                as usize)
                .clamp(1, scored.len());

            if best
                .as_ref()
                .map(|b| scored[0].2 > b.reward)
                .unwrap_or(true)
            {
                best = Some(BestDesign {
                    genome: scored[0].0.clone(),
                    reward: scored[0].2,
                    costs: scored[0].1,
                });
            }
            trace
                .best_rewards
                .push(best.as_ref().map(|b| b.reward).unwrap_or(0.0));

            // Lines 11-14: keep parents, refill with mutated children.
            let parents: Vec<Vec<usize>> = scored
                .iter()
                .take(n_parents)
                .map(|(g, _, _)| g.clone())
                .collect();
            population.extend(parents.iter().cloned());
            let mut pi = 0usize;
            while population.len() < self.cfg.population {
                let parent = &parents[pi % parents.len()];
                pi += 1;
                let child = self.mutate(parent, &mut rng);
                population.push(child);
            }
        }
        (best.expect("iterations >= 1"), trace)
    }

    /// Mutation operator (Algorithm 1 line 12): each layer's choice is
    /// re-rolled with probability `mutation_rate`; at least one layer
    /// always mutates so children differ from their parents.
    fn mutate(&self, parent: &[usize], rng: &mut SmallRng) -> Vec<usize> {
        let mut child = parent.to_vec();
        let mut mutated = false;
        for (i, l) in self.layers.iter().enumerate() {
            if rng.gen_bool(self.cfg.mutation_rate) {
                child[i] = rng.gen_range(0..l.candidates.len());
                mutated = true;
            }
        }
        if !mutated {
            let i = rng.gen_range(0..self.layers.len());
            child[i] = rng.gen_range(0..self.layers[i].candidates.len());
        }
        child
    }
}

fn validate(cfg: &SearchConfig) -> Result<(), SearchError> {
    if cfg.population == 0 || cfg.iterations == 0 {
        return Err(SearchError::invalid(
            "population and iterations must be nonzero",
        ));
    }
    if !(0.0..=1.0).contains(&cfg.mutation_rate) || !(0.0..=1.0).contains(&cfg.parent_fraction) {
        return Err(SearchError::invalid("rates must be within [0, 1]"));
    }
    Ok(())
}

/// Uniform random search over the same problem — the sanity baseline the
/// evolution must beat (or match on tiny spaces).
pub fn random_search(search: &EvoSearch, samples: usize, seed: u64) -> BestDesign {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut best: Option<BestDesign> = None;
    for _ in 0..samples.max(1) {
        let genome: Vec<usize> = search
            .layers
            .iter()
            .map(|l| rng.gen_range(0..l.candidates.len()))
            .collect();
        let (costs, reward) = search.evaluate(&genome);
        if best.as_ref().map(|b| reward > b.reward).unwrap_or(true) {
            best = Some(BestDesign {
                genome,
                reward,
                costs,
            });
        }
    }
    best.expect("samples >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use epim_core::{ConvShape, EpitomeDesigner};

    fn problem(n_layers: usize) -> Vec<SearchLayer> {
        let d = EpitomeDesigner::new(128, 128);
        (0..n_layers)
            .map(|i| {
                let conv = ConvShape::new(256 << (i % 2), 128, 3, 3);
                SearchLayer {
                    conv,
                    out_pixels: 14 * 14,
                    candidates: d.candidates(conv).unwrap(),
                }
            })
            .collect()
    }

    fn search(layers: Vec<SearchLayer>, cfg: SearchConfig) -> EvoSearch {
        EvoSearch::new(layers, CostModel::default(), Precision::new(9, 9), cfg).unwrap()
    }

    #[test]
    fn validation_rejects_bad_problems() {
        let cfg = SearchConfig::default();
        assert!(EvoSearch::new(vec![], CostModel::default(), Precision::new(9, 9), cfg).is_err());
        let mut layers = problem(1);
        layers[0].candidates.clear();
        assert!(EvoSearch::new(layers, CostModel::default(), Precision::new(9, 9), cfg).is_err());
        let layers = problem(1);
        let bad = SearchConfig {
            population: 0,
            ..cfg
        };
        assert!(EvoSearch::new(
            layers.clone(),
            CostModel::default(),
            Precision::new(9, 9),
            bad
        )
        .is_err());
        let bad = SearchConfig {
            mutation_rate: 2.0,
            ..cfg
        };
        assert!(EvoSearch::new(layers, CostModel::default(), Precision::new(9, 9), bad).is_err());
    }

    #[test]
    fn candidate_conv_mismatch_rejected() {
        let d = EpitomeDesigner::new(128, 128);
        let conv_a = ConvShape::new(128, 64, 3, 3);
        let conv_b = ConvShape::new(256, 64, 3, 3);
        let layers = vec![SearchLayer {
            conv: conv_a,
            out_pixels: 10,
            candidates: d.candidates(conv_b).unwrap(),
        }];
        assert!(EvoSearch::new(
            layers,
            CostModel::default(),
            Precision::new(9, 9),
            SearchConfig::default()
        )
        .is_err());
    }

    #[test]
    fn best_reward_non_decreasing() {
        let s = search(
            problem(6),
            SearchConfig {
                iterations: 20,
                seed: 3,
                ..Default::default()
            },
        );
        let (_, trace) = s.run_traced();
        for w in trace.best_rewards.windows(2) {
            assert!(w[1] >= w[0], "elitism violated: {:?}", trace.best_rewards);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SearchConfig {
            iterations: 8,
            seed: 7,
            ..Default::default()
        };
        let a = search(problem(4), cfg).run();
        let b = search(problem(4), cfg).run();
        assert_eq!(a.genome, b.genome);
        assert_eq!(a.reward, b.reward);
    }

    #[test]
    fn budget_indicator_zeroes_reward() {
        // An impossible budget makes every design infeasible: reward 0.
        let cfg = SearchConfig {
            crossbar_budget: 0,
            iterations: 3,
            ..Default::default()
        };
        let s = search(problem(2), cfg);
        let best = s.run();
        assert_eq!(best.reward, 0.0);
        // A generous budget yields positive reward.
        let cfg = SearchConfig {
            crossbar_budget: usize::MAX,
            iterations: 3,
            ..Default::default()
        };
        let best = search(problem(2), cfg).run();
        assert!(best.reward > 0.0);
        assert!(best.costs.crossbars > 0);
    }

    #[test]
    fn budget_respected_when_feasible() {
        // Budget chosen between min and max: the winner must satisfy it.
        let s = search(problem(4), SearchConfig::default());
        let unconstrained = s.run();
        let budget = unconstrained.costs.crossbars + 50;
        let cfg = SearchConfig {
            crossbar_budget: budget,
            iterations: 15,
            ..Default::default()
        };
        let best = search(problem(4), cfg).run();
        assert!(best.costs.crossbars <= budget);
        assert!(best.reward > 0.0);
    }

    #[test]
    fn evolution_beats_or_matches_its_own_first_generation() {
        let s = search(
            problem(8),
            SearchConfig {
                iterations: 25,
                seed: 11,
                ..Default::default()
            },
        );
        let (_, trace) = s.run_traced();
        let first = trace.best_rewards.first().unwrap();
        let last = trace.best_rewards.last().unwrap();
        assert!(last >= first);
        // On a real multi-layer problem, it should strictly improve.
        assert!(last > first, "no improvement over 25 generations");
    }

    #[test]
    fn evolution_competitive_with_random_at_equal_evals() {
        let cfg = SearchConfig {
            iterations: 20,
            population: 24,
            seed: 5,
            ..Default::default()
        };
        let s = search(problem(8), cfg);
        let evo = s.run();
        let rand_best = random_search(&s, 20 * 24, 5);
        // Evolution must be at least as good (allow tiny numerical slack).
        assert!(
            evo.reward >= rand_best.reward * 0.98,
            "evo {} rand {}",
            evo.reward,
            rand_best.reward
        );
    }

    #[test]
    fn objectives_optimize_their_metric() {
        // Small problem + long run so both searches converge; stochastic
        // search warrants a tolerance rather than exact dominance.
        let mk = |objective| {
            let cfg = SearchConfig {
                iterations: 60,
                population: 32,
                seed: 9,
                objective,
                ..Default::default()
            };
            search(problem(4), cfg).run()
        };
        let lat = mk(Objective::Latency);
        let en = mk(Objective::Energy);
        assert!(
            lat.costs.latency_ns <= en.costs.latency_ns * 1.10,
            "lat-opt {} vs energy-opt {}",
            lat.costs.latency_ns,
            en.costs.latency_ns
        );
        assert!(
            en.costs.energy_pj <= lat.costs.energy_pj * 1.10,
            "energy-opt {} vs lat-opt {}",
            en.costs.energy_pj,
            lat.costs.energy_pj
        );
    }

    #[test]
    fn design_space_size() {
        let s = search(problem(3), SearchConfig::default());
        let expected: u128 = s
            .layers
            .iter()
            .map(|l| l.candidates.len() as u128)
            .product();
        assert_eq!(s.design_space(), expected);
        assert!(expected > 1);
    }

    /// What `evaluate` did before the cost table: simulate the chosen
    /// candidate of every layer and combine in layer order.
    fn evaluate_by_simulating(
        layers: &[SearchLayer],
        cfg: &SearchConfig,
        genome: &[usize],
    ) -> (LayerCosts, f64) {
        let costs = layers
            .iter()
            .zip(genome)
            .map(|(l, &gi)| {
                CostModel::default().epitome_layer(
                    &l.candidates[gi],
                    l.out_pixels,
                    Precision::new(9, 9),
                )
            })
            .reduce(|total, c| total.combine(&c))
            .unwrap();
        let metric = match cfg.objective {
            Objective::Latency => costs.latency_ns,
            Objective::Energy => costs.energy_pj,
            Objective::Edp => costs.edp(),
        };
        let m = if costs.crossbars > cfg.crossbar_budget {
            0.0
        } else {
            1.0
        };
        (costs, m / metric)
    }

    #[test]
    fn evaluate_from_the_table_equals_direct_simulation_bitwise() {
        let layers = problem(7);
        let mut rng = SmallRng::seed_from_u64(21);
        for objective in [Objective::Latency, Objective::Energy, Objective::Edp] {
            for crossbar_budget in [usize::MAX, 400, 0] {
                let cfg = SearchConfig {
                    objective,
                    crossbar_budget,
                    ..Default::default()
                };
                let s = search(layers.clone(), cfg);
                for _ in 0..50 {
                    let genome: Vec<usize> = layers
                        .iter()
                        .map(|l| rng.gen_range(0..l.candidates.len()))
                        .collect();
                    let (costs, reward) = s.evaluate(&genome);
                    let (want_costs, want_reward) = evaluate_by_simulating(&layers, &cfg, &genome);
                    assert_eq!(costs, want_costs);
                    assert_eq!(
                        costs.utilization.to_bits(),
                        want_costs.utilization.to_bits()
                    );
                    assert_eq!(reward.to_bits(), want_reward.to_bits());
                }
            }
        }
    }

    #[test]
    fn with_config_keeps_the_problem_and_revalidates() {
        let cfg = SearchConfig {
            crossbar_budget: 0,
            iterations: 3,
            ..Default::default()
        };
        let s = search(problem(2), cfg);
        assert_eq!(s.run().reward, 0.0);
        let open = SearchConfig {
            crossbar_budget: usize::MAX,
            ..cfg
        };
        let s = s.with_config(open).unwrap();
        assert_eq!(s.layers().len(), 2);
        let best = s.run();
        assert_eq!(best, search(problem(2), open).run());
        assert!(best.reward > 0.0);
        let bad = SearchConfig {
            iterations: 0,
            ..open
        };
        assert!(s.with_config(bad).is_err());
    }

    #[test]
    fn evaluate_consistent_with_run() {
        let s = search(
            problem(3),
            SearchConfig {
                iterations: 5,
                ..Default::default()
            },
        );
        let best = s.run();
        let (costs, reward) = s.evaluate(&best.genome);
        assert_eq!(costs, best.costs);
        assert_eq!(reward, best.reward);
    }
}
