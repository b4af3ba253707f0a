"""Kernel-fission tests: Algorithm 2 invariants + semantic preservation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.accesses import collect_accesses
from repro.analysis.deps import (
    array_dependency_graph,
    dependency_exists,
    intra_kernel_flow,
    is_fissionable,
    separable_components,
)
from repro.cudalite import parse_program
from repro.cudalite.parser import parse_kernel
from repro.gpu.interpreter import outputs_equal, run_program
from repro.transform.fission import (
    fission_kernel,
    fission_program,
    iterative_fission,
)


SEPARABLE_KERNEL = """
__global__ void big(double *R, double *W, const double *S, const double *V, int n, double c) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        R[i] = S[i] * c;
        W[i] = V[i] + 1.0;
    }
}
"""

COUPLED_KERNEL = """
__global__ void coupled(double *R, double *W, const double *S, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        double t = S[i] * 2.0;
        R[i] = t;
        W[i] = t + 1.0;
    }
}
"""


def test_dependency_graph_separable():
    kernel = parse_kernel(SEPARABLE_KERNEL)
    graph = array_dependency_graph(kernel)
    assert not dependency_exists(kernel, "R", "W")
    assert dependency_exists(kernel, "R", "S")
    assert dependency_exists(kernel, "W", "V")


def test_dependency_graph_scalar_coupling():
    """Arrays communicating through a local scalar are inseparable."""
    kernel = parse_kernel(COUPLED_KERNEL)
    assert dependency_exists(kernel, "R", "W")
    assert not is_fissionable(kernel)


def test_separable_components():
    kernel = parse_kernel(SEPARABLE_KERNEL)
    components = separable_components(kernel)
    as_sets = {frozenset(c) for c in components}
    assert frozenset({"R", "S"}) in as_sets
    assert frozenset({"W", "V"}) in as_sets


def test_components_partition_arrays():
    kernel = parse_kernel(SEPARABLE_KERNEL)
    components = separable_components(kernel)
    all_arrays = set().union(*components)
    assert all_arrays == {"R", "W", "S", "V"}
    # pairwise disjoint
    total = sum(len(c) for c in components)
    assert total == len(all_arrays)


def test_seed_changes_discovery_order_not_content():
    kernel = parse_kernel(SEPARABLE_KERNEL)
    a = {frozenset(c) for c in separable_components(kernel, seed=0)}
    b = {frozenset(c) for c in separable_components(kernel, seed=3)}
    assert a == b


def test_is_fissionable():
    assert is_fissionable(parse_kernel(SEPARABLE_KERNEL))
    assert not is_fissionable(parse_kernel(COUPLED_KERNEL))


def test_fission_fragments_structure():
    kernel = parse_kernel(SEPARABLE_KERNEL)
    fragments = fission_kernel(kernel)
    assert len(fragments) == 2
    names = {f.kernel.name for f in fragments}
    assert names == {"big_f0", "big_f1"}
    # every fragment keeps the guard and index decl
    for fragment in fragments:
        text_params = [p.name for p in fragment.kernel.params]
        assert "n" in text_params


def test_fission_statement_completeness():
    """Every array-writing statement lands in exactly one fragment."""
    kernel = parse_kernel(SEPARABLE_KERNEL)
    fragments = fission_kernel(kernel)
    original = collect_accesses(kernel)
    original_writes = sum(1 for s in original.statements if s.arrays_written)
    fragment_writes = sum(
        sum(1 for s in collect_accesses(f.kernel).statements if s.arrays_written)
        for f in fragments
    )
    assert fragment_writes == original_writes


def test_fission_param_slicing():
    kernel = parse_kernel(SEPARABLE_KERNEL)
    fragments = fission_kernel(kernel)
    for fragment in fragments:
        for local_idx, orig_idx in enumerate(fragment.param_indices):
            assert fragment.kernel.params[local_idx] == kernel.params[orig_idx]


def test_unfissionable_kernel_returns_identity():
    kernel = parse_kernel(COUPLED_KERNEL)
    fragments = fission_kernel(kernel)
    assert len(fragments) == 1
    assert fragments[0].kernel is kernel


def test_fission_program_semantics(separable_program):
    new_program, fragments = fission_program(separable_program, "big")
    assert len(fragments) == 2
    before = run_program(separable_program)
    after = run_program(new_program)
    assert outputs_equal(before, after)


def test_fission_program_rewrites_launches(separable_program):
    new_program, fragments = fission_program(separable_program, "big")
    from repro.cudalite import ast_nodes as ast

    launches = [
        s for s in new_program.main().body.walk() if isinstance(s, ast.Launch)
    ]
    assert [l.kernel for l in launches] == ["big_f0", "big_f1"]


def test_iterative_fission_reaches_fixpoint():
    kernel = parse_kernel(SEPARABLE_KERNEL)
    fragments = iterative_fission(kernel)
    assert len(fragments) == 2
    for fragment in fragments:
        assert not is_fissionable(fragment.kernel)


def test_intra_kernel_flow():
    kernel = parse_kernel(
        "__global__ void k(double *T, double *A, const double *B, int n) {"
        " int i = threadIdx.x;"
        " T[i] = B[i] * 2.0;"
        " A[i] = T[i] + 1.0; }"
    )
    chains = intra_kernel_flow(kernel)
    assert any(c.array == "T" for c in chains)


# ---------------------------------------------------------------- hypothesis


@st.composite
def random_separable_program(draw):
    """Random kernels with N independent output groups over shared guard."""
    n_groups = draw(st.integers(min_value=1, max_value=4))
    coeffs = draw(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0).map(lambda v: round(v, 3)),
            min_size=n_groups,
            max_size=n_groups,
        )
    )
    lines = []
    params = []
    args = []
    for g in range(n_groups):
        params.append(f"double *O{g}")
        params.append(f"const double *I{g}")
        args.append(f"O{g}")
        args.append(f"I{g}")
        lines.append(f"O{g}[i] = I{g}[i] * {coeffs[g]} + {float(g)};")
    body = "\n        ".join(lines)
    allocs = "\n    ".join(
        f"double *{n} = cudaMalloc1D(n); deviceRandom({n}, {idx + 1});"
        for idx, n in enumerate(a for a in args)
    )
    source = f"""
__global__ void big({', '.join(params)}, int n) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {{
        {body}
    }}
}}
int main() {{
    int n = 64;
    {allocs}
    big<<<dim3(2, 1, 1), dim3(32, 1, 1)>>>({', '.join(args)}, n);
    return 0;
}}
"""
    return parse_program(source), n_groups


@given(random_separable_program())
@settings(max_examples=40, deadline=None)
def test_fission_semantic_equivalence_property(case):
    """Fissioning any separable kernel preserves program semantics, and the
    number of fragments equals the number of independent groups."""
    program, n_groups = case
    new_program, fragments = fission_program(program, "big")
    assert len(fragments) == n_groups
    assert outputs_equal(run_program(program), run_program(new_program))
