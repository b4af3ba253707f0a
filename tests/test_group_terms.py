"""The one-pass group terms against the formulas they replaced.

:meth:`FusionProblem.group_terms` scores a group in one pass over a
per-node table: its flops, its tile bytes, its four feasibility flags and
the inputs of its projection.  The oracle below is the model as it was
before, one walk per quantity: the merged launch volume, the projection at
the modal member block, the locality arrays, the tile bytes, the
code generator's realizability rules and fusability.  Every distinct
group that 100 x 40 runs score — on half-scale Fluam and B-CALM (whose
fissionable nodes add fragments and lazy repairs) and on fuzz apps 0..49
— must get the oracle's time and flops (float ``==``) and all four flags.
The oracle walks the group in the order of the frozenset the memo was
filled from, so the comparison is exact whatever the hash seed (CI runs
this file under ``PYTHONHASHSEED`` 0 and 1).
"""

import random
from typing import Dict, Set

import pytest

from repro.analysis.filtering import identify_targets
from repro.analysis.volume import LaunchVolume
from repro.apps import build_app
from repro.fuzz.appgen import generate_app
from repro.gpu.device import K20X
from repro.gpu.perfmodel import CodegenTraits, estimate_registers, project_kernel
from repro.gpu.profiler import gather_metadata
from repro.search import GGA, GAParams, build_problem
from repro.search.grouping import NOMINAL_BLOCK, FusionProblem, NodeInfo
from repro.search.objective import group_projection_time

PINNED_GA_SEED = 20150615
FUZZ_APPS = range(50)


# ----------------------------------------------------------------- oracle


def oracle_volume(problem, members):
    members = list(members)
    arrays_read: set = set()
    arrays_written: set = set()
    points: Dict[str, int] = {}
    flops = 0.0
    active = 0
    for node in members:
        info = problem.info(node)
        arrays_read |= info.arrays_read
        arrays_written |= info.arrays_written
        for array, p in info.points_per_array.items():
            points[array] = max(points.get(array, 0), p)
        flops += info.flops
        active = max(active, info.extents[0] * info.extents[1] * info.extents[2])
    return LaunchVolume(
        kernel_name="+".join(problem.info(m).kernel for m in members),
        active_threads=active,
        launched_threads=active,
        points_per_array=points,
        arrays_read=arrays_read,
        arrays_written=arrays_written,
        flops=flops,
    )


def oracle_locality(problem, members) -> Set[str]:
    read_count: Dict[str, int] = {}
    written: Set[str] = set()
    read: Set[str] = set()
    for node in members:
        info = problem.infos[node]
        for array in info.arrays_read:
            read_count[array] = read_count.get(array, 0) + 1
            read.add(array)
        written |= info.arrays_written
    multi = {a for a, n in read_count.items() if n >= 2}
    return multi | (written & read)


def oracle_smem(problem, members, block=NOMINAL_BLOCK) -> int:
    members = list(members)
    total = 0
    for array in sorted(oracle_locality(problem, members)):
        radius = max(
            (problem.infos[m].radius.get(array, 0) for m in members), default=0
        )
        total += (block[0] + 2 * radius) * (block[1] + 2 * radius) * 8
    return total


def oracle_fusable(problem, members) -> bool:
    if len(members) <= 1:
        return True
    return all(problem.infos[m].fusable for m in members)


def oracle_realizable(problem, members, max_waves=2) -> bool:
    if len(members) <= 1:
        return True
    for conflict in problem.user_conflicts:
        if conflict <= members:
            return False
    infos = problem.infos
    ordered = sorted(members, key=lambda n: infos[n].order)
    first_writer: Dict[str, int] = {}
    for idx, node in enumerate(ordered):
        for array in infos[node].arrays_written:
            first_writer.setdefault(array, idx)
    for idx, node in enumerate(ordered):
        info = infos[node]
        for array in info.arrays_read:
            radius = info.radius.get(array, 0)
            writer = first_writer.get(array)
            if radius > 0 and writer is not None and writer > idx:
                return False
    all_writes: Dict[str, Set[int]] = {}
    for idx, node in enumerate(ordered):
        for array in infos[node].arrays_written:
            all_writes.setdefault(array, set()).add(idx)
    last_writer: Dict[str, int] = {}
    producer_of: Dict[str, int] = {}
    depth = [0] * len(ordered)
    for idx, node in enumerate(ordered):
        info = infos[node]
        for array in sorted(info.arrays_read):
            writer = last_writer.get(array)
            if writer is None or writer == idx:
                continue
            if info.radius.get(array, 0) > 0:
                known = producer_of.setdefault(array, writer)
                if known != writer:
                    return False
                if all_writes.get(array, set()) - {writer}:
                    return False
                depth[idx] = max(depth[idx], depth[writer] + 1)
                if depth[idx] + 1 > max_waves:
                    return False
                producer_info = infos[ordered[writer]]
                for read in producer_info.arrays_read:
                    writers = all_writes.get(read, set())
                    if writers - {writer}:
                        return False
        for array in info.arrays_written:
            last_writer[array] = idx
    last_writer.clear()
    readers: Dict[str, list] = {}
    for idx, node in enumerate(ordered):
        info = infos[node]
        for array in info.arrays_read:
            writer = last_writer.get(array)
            if writer is not None and depth[writer] > depth[idx]:
                return False
            readers.setdefault(array, []).append(idx)
        for array in info.arrays_written:
            for reader in readers.get(array, []):
                if reader != idx and depth[reader] > depth[idx]:
                    return False
            writer = last_writer.get(array)
            if writer is not None and depth[writer] > depth[idx]:
                return False
            last_writer[array] = idx
    return True


def oracle_time(problem, members, device) -> float:
    members = list(members)
    blocks = [problem.info(m).block for m in members]
    block = max(set(blocks), key=blocks.count)
    volume = oracle_volume(problem, members)
    radius: Dict[str, int] = {}
    flops_pp = 0.0
    ordered = sorted(members, key=lambda n: problem.info(n).order)
    for node in ordered:
        info = problem.info(node)
        flops_pp += info.flops_per_point
        for array, r in info.radius.items():
            radius[array] = max(radius.get(array, 0), r)
    on_chip: set = set()
    if len(ordered) > 1:
        first_writer: Dict[str, int] = {}
        first_reader: Dict[str, int] = {}
        for idx, node in enumerate(ordered):
            info = problem.info(node)
            for array in info.arrays_written:
                first_writer.setdefault(array, idx)
            for array in info.arrays_read:
                first_reader.setdefault(array, idx)
        for array, widx in first_writer.items():
            ridx = first_reader.get(array)
            if ridx is not None and ridx > widx and radius.get(array, 0) == 0:
                on_chip.add(array)
    if len(members) > 1:
        staged = oracle_locality(problem, members) - on_chip
        smem = oracle_smem(problem, members, (block[0], block[1]))
    else:
        staged = set()
        smem = 0
    traits = CodegenTraits(
        staged=staged,
        on_chip=on_chip,
        radius=radius,
        smem_per_block=min(smem, device.shared_mem_per_block),
        regs_per_thread=estimate_registers(
            len(volume.arrays_read | volume.arrays_written), flops_pp
        ),
    )
    return project_kernel(device, volume, block, traits).time_s


def oracle_flags(problem, group):
    infos = problem.infos
    return (
        not oracle_fusable(problem, group),
        not oracle_realizable(problem, group),
        oracle_smem(problem, group) > problem.capacity,
        any(infos[m].fissionable or infos[m].parent is not None for m in group),
    )


def _assert_terms_equal(problem, groups):
    """Score ``groups``, then compare each memo entry with the oracle run
    on the frozenset the entry was scored from (equal frozensets may
    iterate in different orders, and the float sums follow it)."""
    for group in groups:
        problem.group_terms(group)
    for group, terms in problem._group_terms.items():
        assert tuple(terms.flags) == oracle_flags(problem, group), sorted(group)
        assert terms.smem == oracle_smem(problem, group), sorted(group)
        assert terms.flops == sum(problem.info(m).flops for m in group)
        assert group_projection_time(problem, group, K20X) == oracle_time(
            problem, group, K20X
        ), sorted(group)


# ------------------------------------------------------------------ cases


def _problem(program):
    meta = gather_metadata(program, K20X)
    return build_problem(program, meta, identify_targets(meta, K20X), K20X).problem


def _with_conflicts(problem):
    """The same nodes with programmer-supplied OEG edges, one of which
    contradicts launch order: a user conflict, which makes every group
    holding the pair unrealizable."""
    nodes = sorted(problem.infos.values(), key=lambda info: info.order)
    whole = [info.node for info in nodes if info.parent is None]
    extra = [(whole[i], whole[i + 4]) for i in range(0, len(whole) - 4, 3)]
    extra.append((whole[-1], whole[0]))
    return FusionProblem(nodes, problem.capacity, extra_precedence=extra)


def _searched(problem, generations=40):
    """``problem`` after a 100 x ``generations`` run: its memo holds every
    group the run scored (exact evaluation, lazy repair, the result)."""
    GGA(
        problem, K20X, GAParams(seed=PINNED_GA_SEED, generations=generations)
    ).run()
    return problem


def _random_groups(problem, count, seed):
    """Groups no search need reach: random subsets of the active nodes of
    random splits, fusable or not — every realizability rule fires."""
    rng = random.Random(seed)
    fissionable = sorted(problem.fragments_of)
    out = []
    for _ in range(count):
        split = frozenset(n for n in fissionable if rng.random() < 0.5)
        active = problem.split_view(split).canonical
        size = rng.randint(2, min(10, len(active)))
        out.append(frozenset(rng.sample(active, size)))
    return out


@pytest.mark.parametrize("app", ["Fluam", "B-CALM"])
def test_terms_of_every_searched_group_equal_the_oracle(app):
    problem = _searched(_problem(build_app(app, scale=0.5).program))
    groups = list(problem._group_terms)
    assert len(groups) > 500
    assert any(len(g) > 1 and problem.group_terms(g).flags.unrealizable
               for g in groups)
    _assert_terms_equal(problem, groups)


def test_terms_of_fuzz_apps_equal_the_oracle():
    scored = fused = 0
    for seed in FUZZ_APPS:
        problem = _searched(_problem(generate_app(seed).program))
        groups = list(problem._group_terms)
        _assert_terms_equal(problem, groups)
        scored += len(groups)
        fused += sum(len(g) > 1 for g in groups)
    assert fused > 500 and scored > fused


def test_flags_of_random_groups_equal_the_oracle():
    flags = set()
    for program in (build_app("B-CALM", scale=0.5).program,
                    generate_app(16).program):
        base = _problem(program)
        for problem in (base, _with_conflicts(base)):
            groups = _random_groups(problem, 2000, seed=7)
            _assert_terms_equal(problem, groups)
            flags.update(problem.group_terms(g).flags for g in groups)
    # the sample reaches both answers of every flag
    for index in range(4):
        assert {f[index] for f in flags} == {False, True}, index


def _synthetic_problem(seed):
    """Eight launches over five arrays, drawn at random: reads at radius 0
    or 1, one or two writes, mixed blocks (modal ties) and fractional
    flops — dense in the patterns the realizability rules name."""
    rng = random.Random(seed)
    arrays = "abcde"
    blocks = [(32, 8, 1), (16, 16, 1), (64, 4, 1)]
    nodes = []
    for i in range(8):
        read = frozenset(rng.sample(arrays, rng.randint(1, 4)))
        written = frozenset(rng.sample(arrays, rng.randint(1, 2)))
        nodes.append(NodeInfo(
            node=f"k{i}@{i}", kernel=f"k{i}", order=float(i), eligible=True,
            fusable=rng.random() < 0.9, fissionable=False,
            arrays_read=read, arrays_written=written,
            points_per_array={a: rng.randint(1, 5) * 4096 for a in read | written},
            flops=rng.random() * 1e6, flops_per_point=rng.random() * 40,
            radius={a: rng.choice((0, 0, 1, 2)) for a in read},
            extents=(64, 64, rng.randint(1, 4)), grid=(2, 8, 1),
            block=rng.choice(blocks),
        ))
    return FusionProblem(nodes, shared_mem_capacity=rng.choice((8192, 48 * 1024)))


def test_flags_of_synthetic_groups_equal_the_oracle():
    unrealizable = 0
    for seed in range(300):
        problem = _synthetic_problem(seed)
        groups = _random_groups(problem, 20, seed)
        _assert_terms_equal(problem, groups)
        unrealizable += sum(problem.group_terms(g).flags.unrealizable for g in groups)
    assert 0 < unrealizable < 300 * 20


def test_a_group_is_scored_once_per_problem():
    problem = _problem(generate_app(3).program)
    group = frozenset(sorted(problem.infos)[:2])
    first = problem.group_terms(group)
    before = problem.new_groups
    assert problem.group_terms(frozenset(sorted(group))) is first
    assert problem.new_groups == before
    time_s = group_projection_time(problem, group, K20X)
    assert group_projection_time(problem, group, K20X) == time_s
    assert problem.new_groups == before and problem.group_terms_s > 0


def test_new_group_work_is_visible():
    """The ``eval`` spans carry the groups first scored in them and their
    seconds; a search's total is the ``search_group_terms_total`` counter
    and the search report's "new groups scored"; a second search of the
    same problem scores only what is new to it."""
    from repro.api import transform
    from repro.observability.metrics import get_registry
    from repro.observability.runtime import telemetry
    from repro.observability.tracing import get_tracer

    problem = _problem(generate_app(3).program)
    registry = get_registry()
    with telemetry(True):
        tracer = get_tracer()
        tracer.clear()
        before = registry.counter_total("search_group_terms_total")
        GGA(problem, K20X, GAParams(seed=PINNED_GA_SEED, generations=10)).run()
        evals = tracer.find("eval")
    scored = problem.new_groups
    assert scored == len(problem._group_terms) > 0
    assert registry.counter_total("search_group_terms_total") - before == scored
    assert 0 < sum(s.args["new_groups"] for s in evals) <= scored
    assert all(s.args["group_terms_s"] >= 0 for s in evals)
    assert sum(s.args["group_terms_s"] for s in evals) <= problem.group_terms_s

    again = GGA(problem, K20X, GAParams(seed=PINNED_GA_SEED, generations=10))
    again.run()
    assert problem.new_groups == scored

    result = transform(generate_app(3).program, store=False, verify=False,
                       verify_groups=False, until="search")
    assert " new groups scored" in result.reports["search"]
