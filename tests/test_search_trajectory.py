"""The GGA's trajectory at the bench seed, gated on counts (no timing).

``benchmarks/e2e``'s ``search-paper-budget`` workload can only say a
generation got cheaper if the search still *does the same thing*: same
rng stream, same evaluator calls in the same order, same floats.  This
pins a 100 x 40 single-population run on half-scale Fluam at the bench's
GA seed — with the surrogate pre-filter off (``surrogate_topk`` 1.0) and
on (0.25) — to values recorded on the commit before the fitness
evaluator moved to integer masks (PR 16's parent).  A later change that
bends the trajectory fails here, on counts, not on a noisy wall clock.

Half-scale Fluam has no fissionable node, so ``EXPECTED`` never runs the
fission paths (``ensure_split`` / ``ensure_whole``, the fission toggle,
lazy-fission repair).  ``EXPECTED_BCALM`` pins the same 100 x 40 run on
half-scale B-CALM, whose 4 fissionable nodes exercise all of them: at
``surrogate_topk`` 1.0 the run applies 24 lazy fissions and its best
individual splits all 4 nodes.  It was recorded on the commit before
GGA individuals stopped listing their singleton groups.

If a PR changes the trajectory *on purpose* (new operator, new default),
re-record ``EXPECTED`` / ``EXPECTED_BCALM`` and say so in CHANGES.md.
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


#: the same record for half-scale B-CALM; ``split`` is the best
#: individual's fissioned nodes
EXPECTED_BCALM = {0.25: {'best': [['e_update@1/f0', 'pole_update_e@0/f1'],
                                  ['e_update@1/f1', 'pole_update_e@0/f2', 'pole_update_h@2/f2'],
                                  ['e_update@1/f2', 'h_update@3/f0', 'pole_update_h@2/f0'],
                                  ['energy_density@7',
                                   'flux_probe@6',
                                   'h_update@3/f2',
                                   'poynting_y@5'],
                                  ['h_update@3/f1', 'pole_update_h@2/f1', 'poynting_x@4']],
                         'best_fitness': 251.68639320413013,
                         'converged_at': 19,
                         'evaluations': 1496,
                         'fitness_lookups': 7920,
                         'rng_state': '590f60de1ab67e1f55f51f0a4d8630da6c260f453494e0964c3c3221d03d0b62',
                         'rows': [(217.94020231633084, -24.734892257218107, 0, 41),
                                  (219.99020004276542, 5.499243664334781, 0, 36),
                                  (222.3153731318196, 17.74198826120317, 0, 43),
                                  (226.74236431063127, 12.20677249761698, 0, 53),
                                  (233.4477054698258, 44.64414768157323, 0, 65),
                                  (233.4477054698258, 41.53480850543876, 0, 60),
                                  (235.37279287460427, 75.65804214286999, 0, 68),
                                  (236.9146073234514, -34.72524854653502, 0, 54),
                                  (240.17771598610003, -3.625400873882525, 0, 57),
                                  (244.648338690777, 34.321029310891966, 0, 66),
                                  (244.648338690777, -22.640318596142656, 0, 56),
                                  (248.63960412060996, -6.704427160026552, 0, 58),
                                  (248.63960412060996, -8.108143818270785, 0, 60),
                                  (250.36076149328736, 7.8692378188803245, 0, 65),
                                  (250.36076149328736, 66.7166014500885, 0, 68),
                                  (250.36076149328736, 100.57638930296025, 0, 73),
                                  (250.36076149328736, 111.45591572793126, 0, 81),
                                  (250.36076149328736, 76.8295018834395, 0, 73),
                                  (250.36076149328736, 35.82738832223046, 0, 66),
                                  (251.68639320413013, 12.165435504911498, 0, 65),
                                  (251.68639320413013, 90.14626121207631, 0, 77),
                                  (251.68639320413013, 105.98324656844542, 0, 78),
                                  (251.68639320413013, 61.93020382242085, 0, 71),
                                  (251.68639320413013, 29.820709292135174, 0, 65),
                                  (251.68639320413013, 67.17453233832337, 0, 71),
                                  (251.68639320413013, 4.879619404851619, 0, 66),
                                  (251.68639320413013, 12.35635315258354, 0, 67),
                                  (251.68639320413013, 45.57354713133684, 0, 70),
                                  (251.68639320413013, -8.021620507778364, 0, 65),
                                  (251.68639320413013, 26.74671193890866, 0, 67),
                                  (251.68639320413013, 43.66452431449541, 0, 70),
                                  (251.68639320413013, 23.16031464871027, 0, 70),
                                  (251.68639320413013, -12.836659831394472, 0, 65),
                                  (251.68639320413013, -0.4966066001994568, 0, 67),
                                  (251.68639320413013, 73.64423147268542, 0, 77),
                                  (251.68639320413013, -6.995989520057159, 0, 68),
                                  (251.68639320413013, 3.157146099063482, 0, 68),
                                  (251.68639320413013, 34.45231671090862, 0, 70),
                                  (251.68639320413013, 60.98206606058235, 0, 74),
                                  (251.68639320413013, -0.7136993452612185, 0, 64)],
                         'split': ['e_update@1',
                                   'h_update@3',
                                   'pole_update_e@0',
                                   'pole_update_h@2']},
                  1.0: {'best': [['e_update@1/f0', 'pole_update_e@0/f1', 'pole_update_h@2/f1'],
                                 ['e_update@1/f1', 'pole_update_e@0/f2'],
                                 ['e_update@1/f2', 'h_update@3/f2', 'pole_update_h@2/f2'],
                                 ['energy_density@7',
                                  'flux_probe@6',
                                  'h_update@3/f1',
                                  'poynting_y@5'],
                                 ['h_update@3/f0', 'pole_update_h@2/f0', 'poynting_x@4']],
                        'best_fitness': 251.24227331677284,
                        'converged_at': 36,
                        'evaluations': 2288,
                        'fitness_lookups': 7920,
                        'rng_state': '84556634b52adef22b772b47e579fe2ebf68cdd546f3b8dd9d7acf1fe32556f1',
                        'rows': [(213.95177739670427, -165.19725581735537, 22, 16),
                                 (215.7360516471975, -103.55740091998678, 2, 24),
                                 (221.25937746059157, -47.07284091323014, 0, 32),
                                 (221.25937746059157, 34.40293361222132, 0, 50),
                                 (221.25937746059157, 73.70065744469987, 0, 60),
                                 (221.25937746059157, 80.51860458728108, 0, 66),
                                 (221.95875873285797, 133.761104856587, 0, 77),
                                 (222.26794627833442, 59.9525789680548, 0, 61),
                                 (226.3806283231338, 133.1085819935099, 0, 73),
                                 (228.80523747655187, 110.59662617802573, 0, 67),
                                 (228.8365499228635, 134.0962303542437, 0, 77),
                                 (231.13750312345334, 122.2049671541271, 0, 76),
                                 (231.13750312345334, 149.0636800426091, 0, 77),
                                 (231.9016024988937, 149.16714330349782, 0, 82),
                                 (238.96399523110048, 97.91323148162975, 0, 69),
                                 (240.03688980121495, 99.75761056361864, 0, 72),
                                 (240.03688980121495, 67.61300812090894, 0, 67),
                                 (242.31409235052934, 118.91886641068868, 0, 78),
                                 (242.4771958625687, 18.272237028765048, 0, 62),
                                 (242.4771958625687, 32.32597879263533, 0, 63),
                                 (247.2062105128401, 40.611327052751655, 0, 66),
                                 (247.2062105128401, 69.09315745905428, 0, 67),
                                 (247.2062105128401, 53.5462190349468, 0, 67),
                                 (248.48904894878956, 55.453867903191075, 0, 63),
                                 (249.9309250592866, 8.487912944558186, 0, 61),
                                 (249.9309250592866, 71.18553771356198, 0, 71),
                                 (249.9309250592866, 55.296708731525875, 0, 63),
                                 (249.9309250592866, 56.132099872016255, 0, 67),
                                 (249.9309250592866, 78.03673718227618, 0, 71),
                                 (249.9309250592866, 42.03048029846053, 0, 61),
                                 (249.9309250592866, 88.92611663583928, 0, 67),
                                 (249.9309250592866, 28.42810038846, 0, 60),
                                 (249.9309250592866, 42.80137050939999, 0, 65),
                                 (249.9309250592866, 81.66634776210171, 0, 70),
                                 (249.9309250592866, 49.6259237475046, 0, 61),
                                 (249.9309250592866, 64.39896570312997, 0, 67),
                                 (251.24227331677284, 15.639740131607132, 0, 59),
                                 (251.24227331677284, 48.75432576218506, 0, 65),
                                 (251.24227331677284, 51.94261328625041, 0, 63),
                                 (251.24227331677284, 119.7579952465245, 0, 77)],
                        'split': ['e_update@1',
                                  'h_update@3',
                                  'pole_update_e@0',
                                  'pole_update_h@2']}}


def _inputs(app):
    program = build_app(app, scale=APP_SCALE).program
    meta = gather_metadata(program, K20X)
    return program, meta, identify_targets(meta, K20X)


@pytest.fixture(scope="module")
def fluam_inputs():
    return _inputs("Fluam")


@pytest.fixture(scope="module")
def bcalm_inputs():
    return _inputs("B-CALM")


def _check_pinned(inputs, topk, expected):
    # a fresh problem per run: the fitness memo lives on the problem, and a
    # warm one would turn evaluations into hits
    problem = build_problem(*inputs, K20X).problem
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
    if "split" in expected:
        assert sorted(result.best.split) == expected["split"]
    rows = [
        (s.best_fitness, s.mean_fitness, s.fissions, s.feasible_count)
        for s in result.history
    ]
    for generation, (got, want) in enumerate(zip(rows, expected["rows"])):
        assert got == want, f"trajectory diverges at generation {generation}"
    assert len(rows) == len(expected["rows"])
    state = hashlib.sha256(repr(gga.rng.getstate()).encode()).hexdigest()
    assert state == expected["rng_state"]


@pytest.mark.parametrize("topk", sorted(EXPECTED))
def test_trajectory_is_pinned(fluam_inputs, topk):
    _check_pinned(fluam_inputs, topk, EXPECTED[topk])


@pytest.mark.parametrize("topk", sorted(EXPECTED_BCALM))
def test_bcalm_trajectory_is_pinned(bcalm_inputs, topk):
    _check_pinned(bcalm_inputs, topk, EXPECTED_BCALM[topk])


@pytest.mark.parametrize("app", ["Fluam", "B-CALM"])
def test_every_offspring_is_a_canonical_partition(app):
    """Individuals store their fused groups only.  Every individual a
    100 x 40 run evaluates (each generation's population and offspring)
    is a valid individual of the problem, its full partition comes out in
    canonical order, and equality and hash agree with equality of the full
    partitions (the launch-ordered identity aside)."""
    problem = build_problem(*_inputs(app), K20X).problem
    evaluated = []

    class Recording(GGA):
        def evaluate_many(self, individuals, eval_span=None):
            evaluated.extend(individuals)
            return super().evaluate_many(individuals, eval_span)

    result = Recording(
        problem, K20X, GAParams(seed=PINNED_GA_SEED, generations=GENERATIONS)
    ).run()
    assert len(evaluated) == result.fitness_lookups

    def value(individual):
        partition = individual.partition(problem)
        return individual.split, frozenset(partition), individual.launch_order

    by_value = {}
    for individual in evaluated:
        assert individual.covers(problem)
        partition = individual.partition(problem)
        assert partition == sorted(partition, key=min)
        assert sorted(m for g in partition for m in g) == sorted(
            individual.active_nodes(problem)
        )
        first = by_value.setdefault(value(individual), individual)
        assert first == individual
        assert hash(first) == hash(individual)
    assert len(set(evaluated)) == len(by_value)
