"""End-to-end property tests: randomized programs through the full pipeline.

These are the heaviest correctness guarantees in the suite: hypothesis
generates random canonical stencil programs (random coefficients, radii,
sharing patterns, chain structure) and the whole transformation must
preserve program semantics on the simulator under both block schedules.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cudalite import parse_program
from repro.gpu.device import K20X
from repro.gpu.interpreter import outputs_equal, run_program
from repro.config import TransformConfig
from repro.pipeline import Framework
from repro.search import Grouping, fast_params
from repro.search.gga import GGA
from repro.search.grouping import evaluate_violations
from repro.search.operators import random_grouping
from repro.analysis.filtering import identify_targets
from repro.gpu.profiler import gather_metadata
from repro.search import build_problem


@st.composite
def random_stencil_program(draw):
    """A random 2-5 kernel program over a shared array pool."""
    n_kernels = draw(st.integers(min_value=2, max_value=5))
    n_arrays = draw(st.integers(min_value=3, max_value=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    arrays = [f"d{i}" for i in range(n_arrays)]
    kernels = []
    launches = []
    written_before = set()
    for ki in range(n_kernels):
        out = rng.choice(arrays)
        candidates = [a for a in arrays if a != out]
        ins = rng.sample(candidates, k=min(len(candidates), rng.randint(1, 2)))
        radius = rng.choice((0, 0, 1))
        coeff = round(rng.uniform(-1.5, 1.5), 3)
        terms = []
        for a in ins:
            if radius and rng.random() < 0.7:
                terms.append(f"{a}[i + {radius}][j][k] + {a}[i - {radius}][j][k]")
            else:
                terms.append(f"{a}[i][j][k]")
        body = " + ".join(terms)
        guard = (
            f"i >= {radius} && i < nx - {radius} && j < ny"
            if radius
            else "i < nx && j < ny"
        )
        kernels.append(f"""
__global__ void k{ki}(double *{out}_p, {', '.join(f'const double *{a}_p' for a in ins)}, int nx, int ny, int nz) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = blockIdx.y * blockDim.y + threadIdx.y;
    if ({guard}) {{
        for (int k = 0; k < nz; k++) {{
            {out}_p[i][j][k] = {coeff} * ({body.replace('[i', '_p[i').replace('d', 'd') if False else body});
        }}
    }}
}}""".replace("d0[", "d0_p[").replace("d1[", "d1_p[").replace("d2[", "d2_p[")
            .replace("d3[", "d3_p[").replace("d4[", "d4_p[").replace("d5[", "d5_p["))
        launches.append((f"k{ki}", [out] + ins))
        written_before.add(out)
    allocs = "\n    ".join(
        f"double *{a} = cudaMalloc3D(nx, ny, nz); deviceRandom({a}, {i + 3});"
        for i, a in enumerate(arrays)
    )
    launch_lines = "\n    ".join(
        f"{name}<<<grid, block>>>({', '.join(args)}, nx, ny, nz);"
        for name, args in launches
    )
    source = f"""
{''.join(kernels)}
int main() {{
    int nx = 32;
    int ny = 16;
    int nz = 4;
    {allocs}
    dim3 grid(4, 2, 1);
    dim3 block(8, 8, 1);
    {launch_lines}
    return 0;
}}
"""
    return source


@given(random_stencil_program())
@settings(max_examples=15, deadline=None)
def test_pipeline_preserves_semantics_property(source):
    """Any random canonical stencil program survives the full pipeline with
    bit-faithful output under forward AND reversed block schedules."""
    program = parse_program(source)
    params = fast_params(seed=13)
    params.population = 12
    params.generations = 8
    params.stall_generations = 4
    config = TransformConfig(device=K20X, ga_params=params, verify=False)
    state = Framework(program, config).run()
    before = run_program(program)
    after = run_program(state.transform.program)
    after_reversed = run_program(state.transform.program, block_order="reverse")
    assert outputs_equal(before, after)
    assert outputs_equal(before, after_reversed)
    # and the projection never predicts a slowdown
    assert state.speedup >= 0.99


@given(random_stencil_program(), st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=15, deadline=None)
def test_repair_always_feasible_property(source, seed):
    """GGA's repair turns *any* random individual into a feasible one."""
    program = parse_program(source)
    meta = gather_metadata(program, K20X)
    report = identify_targets(meta, K20X)
    built = build_problem(program, meta, report, K20X)
    params = fast_params(seed=1)
    engine = GGA(built.problem, K20X, params)
    rng = random.Random(seed)
    individual = random_grouping(built.problem, rng)
    # scramble it further with random merges that may be infeasible
    groups = list(individual.partition(built.problem))
    rng.shuffle(groups)
    while len(groups) > 2 and rng.random() < 0.6:
        a = groups.pop()
        groups[-1] = groups[-1] | a
    scrambled = Grouping(frozenset(individual.split), groups)
    repaired = engine._repair_to_feasible(scrambled)
    violations = evaluate_violations(built.problem, repaired)
    assert violations.feasible
    assert repaired.covers(built.problem)
