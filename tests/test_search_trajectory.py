"""The GGA's trajectory at the bench seed, gated on counts (no timing).

``benchmarks/e2e``'s ``search-paper-budget`` workload can only say a
generation got cheaper if the search still *does the same thing*: same
rng stream, same evaluator calls in the same order, same floats.  This
pins a 100 x 40 single-population run on half-scale Fluam at the bench's
GA seed — with the surrogate pre-filter off (``surrogate_topk`` 1.0) and
on (0.25) — to values recorded on the commit before the fitness
evaluator moved to integer masks (PR 16's parent).  A later change that
bends the trajectory fails here, on counts, not on a noisy wall clock.

If a PR changes the trajectory *on purpose* (new operator, new default),
re-record ``EXPECTED`` and say so in CHANGES.md.
"""

import hashlib

import pytest

from repro.analysis.filtering import identify_targets
from repro.apps import build_app
from repro.gpu.device import K20X
from repro.gpu.profiler import gather_metadata
from repro.search import GGA, GAParams, build_problem

#: benchmarks/e2e/workloads.py: APP_SCALE, PINNED_GA_SEED
APP_SCALE = 0.5
PINNED_GA_SEED = 20150615
GENERATIONS = 40

#: surrogate_topk -> what the run must reproduce; ``rows`` is one
#: ``(best_fitness, mean_fitness, fissions, feasible_count)`` per generation,
#: ``rng_state`` the sha256 of ``repr(rng.getstate())`` after the run
EXPECTED = {0.25: {'best': [['F000@0',
                  'F001@1',
                  'F002@2',
                  'F003@3',
                  'F009@9',
                  'F010@10',
                  'F014@14'],
                 ['F004@4', 'F005@5'],
                 ['F006@6', 'F007@7', 'F008@8', 'F013@13', 'L018@18'],
                 ['F011@11',
                  'F012@12',
                  'F015@15',
                  'L016@16',
                  'L017@17',
                  'L019@19',
                  'L020@20']],
        'best_fitness': 166.21494461436143,
        'converged_at': 13,
        'evaluations': 2468,
        'fitness_lookups': 7920,
        'rng_state': 'f234333d045af9b34bc2260f8699876af8222bdbd44d3cc95f5c85e95482a2c7',
        'rows': [(151.90295531852558, -111.86909324649689, 0, 33),
                 (153.8300688247664, 31.855662249212088, 0, 73),
                 (157.4287373255346, 6.041712089717203, 0, 70),
                 (159.6965016668569, -129.49805790931717, 0, 50),
                 (161.87154358111832, -220.41625357747867, 0, 42),
                 (162.055946666224, -204.6671650352122, 0, 38),
                 (164.810094359784, -185.2043088746286, 0, 41),
                 (164.810094359784, -178.12617915830685, 0, 38),
                 (164.810094359784, -235.30998357709603, 0, 27),
                 (165.38876923835443, -228.9917069618098, 0, 27),
                 (165.85873737326526, -171.0254000071714, 0, 37),
                 (165.85873737326526, -176.8352740709994, 0, 39),
                 (166.03959110270904, -210.39861423031618, 0, 29),
                 (166.07413937700883, -192.43617545105084, 0, 28),
                 (166.07413937700883, -204.298745049062, 0, 28),
                 (166.0935066094584, -177.8923106202897, 0, 31),
                 (166.0935066094584, -166.19575105491262, 0, 35),
                 (166.0935066094584, -201.80873971743972, 0, 26),
                 (166.0935066094584, -165.68431580223353, 0, 33),
                 (166.0935066094584, -207.40514876164062, 0, 30),
                 (166.0935066094584, -161.724491701701, 0, 33),
                 (166.0935066094584, -161.61454670141518, 0, 34),
                 (166.120477495336, -237.2997855543904, 0, 23),
                 (166.120477495336, -213.32769335454083, 0, 29),
                 (166.120477495336, -151.5375354352829, 0, 34),
                 (166.120477495336, -137.5790608454791, 0, 39),
                 (166.120477495336, -99.82530715969462, 0, 42),
                 (166.120477495336, -181.9640514755722, 0, 33),
                 (166.21494461436143, -145.7992001388358, 0, 38),
                 (166.21494461436143, -149.51533593535237, 0, 38),
                 (166.21494461436143, -157.90390653027694, 0, 36),
                 (166.21494461436143, -181.27382013737943, 0, 34),
                 (166.21494461436143, -195.62791960182983, 0, 35),
                 (166.21494461436143, -163.30511118261177, 0, 36),
                 (166.21494461436143, -107.39321143750976, 0, 42),
                 (166.21494461436143, -123.4527806618821, 0, 45),
                 (166.21494461436143, -123.34864508211604, 0, 50),
                 (166.21494461436143, -55.395729970634775, 0, 60),
                 (166.21494461436143, -95.58426118521187, 0, 52),
                 (166.21494461436143, -49.44585297865069, 0, 60)]},
 1.0: {'best': [['F000@0', 'F001@1', 'F004@4', 'F005@5', 'L016@16', 'L020@20'],
                ['F002@2',
                 'F003@3',
                 'F006@6',
                 'F007@7',
                 'F008@8',
                 'F009@9',
                 'F010@10',
                 'F013@13',
                 'F014@14',
                 'L017@17',
                 'L018@18',
                 'L019@19'],
                ['F011@11', 'F012@12', 'F015@15']],
       'best_fitness': 168.4503788402047,
       'converged_at': 27,
       'evaluations': 2237,
       'fitness_lookups': 7920,
       'rng_state': '7a088e5ccbe636710774b7eaa8825e9edf7c9c486cd3a2fe5a7c7f7f850c30a2',
       'rows': [(139.0470444535391, -140.79539816912623, 0, 7),
                (140.50548531842136, -78.31093926300524, 0, 13),
                (141.9948451649762, -57.69760911986021, 0, 17),
                (143.57654388642666, -49.90651998080683, 0, 26),
                (148.51880971744097, -42.501255976446416, 0, 34),
                (148.51880971744097, -41.77186035130584, 0, 46),
                (152.26674923872574, 49.60907916996089, 0, 68),
                (152.26674923872574, 95.133836218559, 0, 83),
                (154.22196038602863, 110.80674398908732, 0, 86),
                (156.2087478360688, 100.7480046626454, 0, 85),
                (158.0518040931383, 102.27549235558914, 0, 86),
                (160.03416182359618, 56.42459192831585, 0, 76),
                (161.76426047042943, 90.87509996017812, 0, 82),
                (161.76426047042943, 70.15788509065938, 0, 76),
                (161.76426047042943, 51.3069896203592, 0, 75),
                (161.8922569559493, 58.27636208760754, 0, 73),
                (163.76604569968507, 63.78809287544783, 0, 72),
                (165.72384203304387, 76.52026315620634, 0, 79),
                (165.72384203304387, 51.5634745638732, 0, 75),
                (167.38063548992034, 60.968241934627976, 0, 73),
                (167.38063548992034, 82.60883385849951, 0, 80),
                (167.8705639482506, 14.568945577168904, 0, 67),
                (167.8705639482506, 45.657943206796865, 0, 69),
                (167.8705639482506, 60.21851263087292, 0, 65),
                (167.8705639482506, 63.94798149701534, 0, 69),
                (167.8705639482506, 55.8133368213842, 0, 68),
                (167.8705639482506, 18.97644171408766, 0, 57),
                (168.4503788402047, 40.66940001897891, 0, 62),
                (168.4503788402047, 41.14268375924572, 0, 62),
                (168.4503788402047, 50.961954909555125, 0, 62),
                (168.4503788402047, 95.22789249369613, 0, 75),
                (168.4503788402047, 66.68445500672343, 0, 67),
                (168.4503788402047, 26.59382440299894, 0, 59),
                (168.4503788402047, 32.71648040665624, 0, 63),
                (168.4503788402047, 48.62483020941382, 0, 63),
                (168.4503788402047, 24.24725341097707, 0, 56),
                (168.4503788402047, 67.15173161600597, 0, 63),
                (168.4503788402047, 40.07208589972352, 0, 59),
                (168.4503788402047, 55.325633124355555, 0, 62),
                (168.4503788402047, 58.640142482495946, 0, 64)]}}


@pytest.fixture(scope="module")
def fluam_inputs():
    program = build_app("Fluam", scale=APP_SCALE).program
    meta = gather_metadata(program, K20X)
    return program, meta, identify_targets(meta, K20X)


@pytest.mark.parametrize("topk", sorted(EXPECTED))
def test_trajectory_is_pinned(fluam_inputs, topk):
    expected = EXPECTED[topk]
    # a fresh problem per run: the fitness memo lives on the problem, and a
    # warm one would turn evaluations into hits
    problem = build_problem(*fluam_inputs, K20X).problem
    gga = GGA(
        problem,
        K20X,
        GAParams(seed=PINNED_GA_SEED, generations=GENERATIONS, surrogate_topk=topk),
    )
    result = gga.run()
    assert result.generations_run == GENERATIONS
    assert result.fitness_lookups == expected["fitness_lookups"]
    assert result.evaluations == expected["evaluations"]
    assert result.cache_hits == result.fitness_lookups - result.evaluations
    assert result.converged_at == expected["converged_at"]
    assert result.best_fitness == expected["best_fitness"]  # float ==, not approx
    assert sorted(sorted(g) for g in result.best.fused_groups()) == expected["best"]
    rows = [
        (s.best_fitness, s.mean_fitness, s.fissions, s.feasible_count)
        for s in result.history
    ]
    for generation, (got, want) in enumerate(zip(rows, expected["rows"])):
        assert got == want, f"trajectory diverges at generation {generation}"
    assert len(rows) == len(expected["rows"])
    state = hashlib.sha256(repr(gga.rng.getstate()).encode()).hexdigest()
    assert state == expected["rng_state"]
