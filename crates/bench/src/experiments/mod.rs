//! Experiment implementations, one module per table/figure.

pub mod ablation;
pub mod fig3;
pub mod fig4;
pub mod table1;
pub mod table2;
pub mod table3;

use epim::core::EpitomeDesigner;
use epim::models::network::Network;
use epim::models::resnet::Backbone;
use epim::pim::{AcceleratorConfig, CostModel, Precision};
use epim::search::{EvoSearch, Objective, SearchConfig, SearchLayer};

/// The paper's crossbar geometry: 128×128 with 2-bit cells.
pub fn designer() -> EpitomeDesigner {
    EpitomeDesigner::new(128, 128)
}

/// The calibrated cost model, with or without channel wrapping.
pub fn cost_model(wrapping: bool) -> CostModel {
    CostModel::new(AcceleratorConfig::default().with_channel_wrapping(wrapping))
}

/// The paper's uniform EPIM variant (1024×256 epitomes everywhere
/// applicable).
pub fn uniform_epim(backbone: Backbone) -> Network {
    Network::uniform_epitome(backbone, &designer(), 1024, 256)
        .expect("uniform design is legal for both backbones")
}

/// Crossbars used by the epitome layers of a network (the budget base for
/// "similar compression" comparisons in Figure 4).
pub fn epitome_layer_crossbars(net: &Network, prec: Precision) -> usize {
    let costs = net.simulate(&cost_model(false), prec);
    costs
        .layers()
        .iter()
        .zip(net.choices())
        .filter(|(_, c)| c.is_epitome())
        .map(|((_, lc), _)| lc.crossbars)
        .sum()
}

/// Builds the layer-wise search problem over every layer the uniform
/// design compresses.
pub fn search_problem(backbone: &Backbone) -> Vec<(usize, SearchLayer)> {
    let d = designer();
    let uniform = uniform_epim(backbone.clone());
    backbone
        .layers
        .iter()
        .enumerate()
        .zip(uniform.choices())
        .filter(|(_, c)| c.is_epitome())
        .map(|((i, l), _)| {
            (
                i,
                SearchLayer {
                    conv: l.conv,
                    out_pixels: l.out_pixels(),
                    candidates: d.candidates(l.conv).expect("candidates for valid conv"),
                },
            )
        })
        .collect()
}

/// Derives the genome closest to a reference network's epitome choices:
/// for each searched layer, the candidate whose mapped matrix is nearest
/// (in rows, then cout) to the reference spec. Used to seed the search so
/// the result can only improve on the reference design.
pub fn genome_for_reference(problem: &[(usize, SearchLayer)], reference: &Network) -> Vec<usize> {
    problem
        .iter()
        .map(|(layer_idx, sl)| {
            let target = match &reference.choices()[*layer_idx] {
                epim::models::network::OperatorChoice::Epitome(s) => {
                    (s.shape().matrix_rows() as isize, s.shape().cout as isize)
                }
                epim::models::network::OperatorChoice::Conv => {
                    (sl.conv.matrix_rows() as isize, sl.conv.cout as isize)
                }
            };
            sl.candidates
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| {
                    let dr = c.shape().matrix_rows() as isize - target.0;
                    let dc = c.shape().cout as isize - target.1;
                    dr * dr + dc * dc
                })
                .map(|(i, _)| i)
                .expect("candidate sets are nonempty")
        })
        .collect()
}

/// Runs the layer-wise evolutionary search (paper §5.2) and returns the
/// resulting network (searched epitomes on eligible layers, convolutions
/// elsewhere).
///
/// `budget` bounds the searched layers' crossbars (Eq. 7); `reference`
/// (typically the uniform design being improved upon) seeds the initial
/// population; `fast` shrinks the population/iterations for unit tests.
pub fn searched_network(
    backbone: &Backbone,
    objective: Objective,
    precision: Precision,
    wrapping: bool,
    budget: usize,
    reference: Option<&Network>,
    fast: bool,
) -> Network {
    let problem = search_problem(backbone);
    let reference_genome = reference.map(|r| genome_for_reference(&problem, r));
    let (layer_indices, layers): (Vec<usize>, Vec<SearchLayer>) = problem.into_iter().unzip();
    let cfg = SearchConfig {
        population: if fast { 12 } else { 32 },
        iterations: if fast { 8 } else { 40 },
        objective,
        crossbar_budget: budget,
        seed: 2024,
        ..SearchConfig::default()
    };
    let mut search =
        EvoSearch::new(layers, cost_model(wrapping), precision, cfg).expect("valid search problem");
    // The reference network's shapes may not be exactly representable in
    // the candidate ladder; widen the budget just enough that the nearest
    // representable genome stays feasible, so the search provably starts
    // from (at least) the reference design. A genome's costs do not depend
    // on the budget, so the probe and the search share one cost table.
    if let Some(g) = &reference_genome {
        let (seed_costs, _) = search.evaluate(g);
        search = search
            .with_config(SearchConfig {
                crossbar_budget: budget.max(seed_costs.crossbars),
                ..cfg
            })
            .expect("only the budget changed");
    }
    let layers = search.layers();
    // Seed the population with interpretable heuristics: all-identity
    // (fast, crossbar-hungry), all-most-compressed (slow, frugal), and a
    // pixel-aware ramp (big epitomes where output pixels — and therefore
    // activation rounds — are many). Elitism guarantees the search result
    // is at least as good as the best feasible seed.
    let identity: Vec<usize> = vec![0; layers.len()];
    let most: Vec<usize> = layers.iter().map(|l| l.candidates.len() - 1).collect();
    let ramp: Vec<usize> = layers
        .iter()
        .map(|l| {
            if l.out_pixels >= 28 * 28 {
                0
            } else if l.out_pixels >= 14 * 14 {
                l.candidates.len() / 2
            } else {
                l.candidates.len() - 1
            }
        })
        .collect();
    let mut seeds = vec![identity, ramp, most];
    if let Some(g) = reference_genome {
        seeds.insert(0, g);
    }
    let (best, _) = search.run_seeded(&seeds);

    let mut net = Network::baseline(backbone.clone());
    for ((&layer_idx, sl), &gene) in layer_indices.iter().zip(layers).zip(&best.genome) {
        let spec = sl.candidates[gene].clone();
        net.set_choice(
            layer_idx,
            epim::models::network::OperatorChoice::Epitome(spec),
        )
        .expect("index within backbone");
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use epim::models::resnet::resnet50;

    #[test]
    fn search_problem_covers_epitome_layers() {
        let bb = resnet50();
        let problem = search_problem(&bb);
        let uniform = uniform_epim(bb);
        assert_eq!(problem.len(), uniform.epitome_layers());
        assert!(problem.len() > 20);
    }

    /// The ResNet-50 search at the published settings, pinned to what it
    /// returned before `EvoSearch` summed a cost table instead of
    /// re-simulating each genome: genome, reward bits and a fold of every
    /// generation's best reward.
    #[test]
    fn resnet50_search_returns_the_pinned_design() {
        let bb = resnet50();
        let prec = Precision::new(9, 9);
        let budget = epitome_layer_crossbars(&uniform_epim(bb.clone()), prec);
        assert_eq!(budget, 1579);
        #[rustfmt::skip]
        let pinned: [(Objective, [usize; 36], u64, u64); 2] = [
            (
                Objective::Latency,
                [0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 5, 10, 8, 9, 4, 9,
                 0, 5, 2, 8, 6, 0, 6, 4, 8, 6, 4, 7, 6, 10, 7, 6, 11, 7],
                0x3e71c5b43a58c84a,
                0xb7abbe0e62014526,
            ),
            (
                Objective::Energy,
                [3, 9, 3, 12, 5, 0, 5, 5, 2, 11, 2, 7, 0, 5, 7, 11, 2, 8,
                 2, 3, 11, 0, 8, 5, 7, 11, 11, 8, 11, 7, 11, 11, 1, 4, 2, 8],
                0x3de71713cecbcb52,
                0xb5aba294b6135dba,
            ),
        ];
        for (objective, genome, reward_bits, trace_fold) in pinned {
            let layers: Vec<SearchLayer> =
                search_problem(&bb).into_iter().map(|(_, l)| l).collect();
            let cfg = SearchConfig {
                population: 32,
                iterations: 40,
                objective,
                crossbar_budget: budget,
                seed: 2024,
                ..SearchConfig::default()
            };
            let search = EvoSearch::new(layers, cost_model(true), prec, cfg).unwrap();
            let (best, trace) = search.run_seeded(&[vec![0; genome.len()]]);
            assert_eq!(best.genome, genome, "{objective:?}");
            assert_eq!(best.reward.to_bits(), reward_bits, "{objective:?}");
            let fold = trace
                .best_rewards
                .iter()
                .fold(0u64, |h, r| h.rotate_left(7) ^ r.to_bits());
            assert_eq!(fold, trace_fold, "{objective:?}");
        }
    }

    #[test]
    fn searched_network_respects_budget() {
        let bb = resnet50();
        let p = Precision::new(9, 9);
        let uniform_costs = uniform_epim(bb.clone()).simulate(&cost_model(true), p);
        // Budget: the uniform design's crossbars (searched layers are a
        // subset, so this is generous but binding in the right direction).
        let net = searched_network(
            &bb,
            Objective::Latency,
            p,
            true,
            uniform_costs.crossbars(),
            None,
            true,
        );
        let costs = net.simulate(&cost_model(true), p);
        assert!(costs.crossbars() > 0);
        assert!(net.epitome_layers() > 20);
    }
}
