"""DDG / OEG construction, optimization and DOT round-trip tests."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cudalite import parse_program
from repro.errors import GraphError
from repro.gpu.device import K20X
from repro.gpu.profiler import gather_metadata
from repro.graphs import (
    arrays_of_invocation,
    build_naive_ddg,
    build_oeg,
    build_versioned_ddg,
    dot_to_graph,
    graph_to_dot,
    group_schedule,
    internal_precedence,
    invocation_table,
    is_convex,
    kernel_nodes,
    optimize_ddg,
    reachability,
    topological_order,
    validate_ddg,
    validate_oeg,
)
from repro.graphs.digraph import is_directed_acyclic_graph

SRC = Path(__file__).resolve().parent.parent / "src"

CYCLE_SRC = """
__global__ void ka(double *Y, const double *X, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { Y[i] = X[i] * 2.0; }
}
__global__ void kb(double *X, const double *Y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { X[i] = Y[i] + 1.0; }
}
__global__ void kc(double *Z, const double *X, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { Z[i] = X[i] * X[i]; }
}
int main() {
    int n = 128;
    double *X = cudaMalloc1D(n);
    double *Y = cudaMalloc1D(n);
    double *Z = cudaMalloc1D(n);
    deviceRandom(X, 3);
    dim3 grid(2, 1, 1);
    dim3 block(64, 1, 1);
    ka<<<grid, block>>>(Y, X, n);
    kb<<<grid, block>>>(X, Y, n);
    kc<<<grid, block>>>(Z, X, n);
    return 0;
}
"""


@pytest.fixture
def cycle_case():
    program = parse_program(CYCLE_SRC)
    meta = gather_metadata(program, K20X)
    return invocation_table(program, meta)


def test_invocation_table_resolves_host_arrays(cycle_case):
    assert cycle_case[0].reads == ("X",)
    assert cycle_case[0].writes == ("Y",)
    assert cycle_case[1].reads == ("Y",)
    assert cycle_case[1].writes == ("X",)


def test_naive_ddg_has_cycle(cycle_case):
    """The paper's motivating case: kernel A reads X / writes Y while B
    writes X / reads Y — Algorithm 1's naive graph is cyclic."""
    naive = build_naive_ddg(cycle_case)
    assert not is_directed_acyclic_graph(naive)


def test_versioned_ddg_is_acyclic(cycle_case):
    versioned = build_versioned_ddg(cycle_case)
    assert is_directed_acyclic_graph(versioned)
    validate_ddg(versioned)


def test_optimize_ddg_reports_instances(cycle_case):
    ddg, report = optimize_ddg(cycle_case)
    assert report.had_cycles
    assert report.instances_added["X"] == 2  # X#0 and X#1
    assert "redundant array instances" in report.summary()


def test_ddg_bipartite(cycle_case):
    ddg, _ = optimize_ddg(cycle_case)
    validate_ddg(ddg)  # raises if kernel->kernel or array->array edges exist


def test_arrays_of_invocation(cycle_case):
    ddg, _ = optimize_ddg(cycle_case)
    reads, writes = arrays_of_invocation(ddg, "ka@0")
    assert reads == {"X"}
    assert writes == {"Y"}


def test_kernel_nodes_in_launch_order(cycle_case):
    ddg, _ = optimize_ddg(cycle_case)
    assert kernel_nodes(ddg) == ["ka@0", "kb@1", "kc@2"]


def test_oeg_edges(cycle_case):
    ddg, _ = optimize_ddg(cycle_case)
    oeg = build_oeg(ddg)
    validate_oeg(oeg)
    deps = {(u, v): d for u, v, d in oeg.edges(data="dep")}
    assert deps[("ka@0", "kb@1")] == "RAW"
    assert deps[("kb@1", "kc@2")] == "RAW"


def test_topological_order(cycle_case):
    ddg, _ = optimize_ddg(cycle_case)
    oeg = build_oeg(ddg)
    assert topological_order(oeg) == ["ka@0", "kb@1", "kc@2"]


def test_convexity(cycle_case):
    ddg, _ = optimize_ddg(cycle_case)
    oeg = build_oeg(ddg)
    reach = reachability(oeg)
    assert is_convex({"ka@0", "kb@1"}, oeg, reach)
    assert is_convex({"kb@1", "kc@2"}, oeg, reach)
    assert not is_convex({"ka@0", "kc@2"}, oeg, reach)


def test_group_schedule(cycle_case):
    ddg, _ = optimize_ddg(cycle_case)
    oeg = build_oeg(ddg)
    schedule = group_schedule(
        [frozenset({"kc@2"}), frozenset({"ka@0", "kb@1"})], oeg
    )
    assert schedule == [frozenset({"ka@0", "kb@1"}), frozenset({"kc@2"})]


def test_group_schedule_rejects_non_convex(cycle_case):
    ddg, _ = optimize_ddg(cycle_case)
    oeg = build_oeg(ddg)
    with pytest.raises(GraphError):
        group_schedule([frozenset({"ka@0", "kc@2"}), frozenset({"kb@1"})], oeg)


def test_internal_precedence(cycle_case):
    ddg, _ = optimize_ddg(cycle_case)
    oeg = build_oeg(ddg)
    edges = internal_precedence({"ka@0", "kb@1"}, oeg)
    assert ("ka@0", "kb@1", "Y") in edges


# ------------------------------------------------------------------------- DOT


def test_dot_round_trip_ddg(cycle_case):
    ddg, _ = optimize_ddg(cycle_case)
    text = graph_to_dot(ddg, "DDG")
    parsed = dot_to_graph(text)
    assert set(parsed.nodes) == set(ddg.nodes)
    assert set(parsed.edges) == set(ddg.edges)
    assert parsed.nodes["ka@0"]["kernel"] == "ka"
    assert parsed.nodes["X#0"]["base"] == "X"


def test_dot_round_trip_oeg(cycle_case):
    ddg, _ = optimize_ddg(cycle_case)
    oeg = build_oeg(ddg)
    parsed = dot_to_graph(graph_to_dot(oeg, "OEG"))
    assert set(parsed.edges) == set(oeg.edges)
    assert parsed.edges["ka@0", "kb@1"]["dep"] == "RAW"


def test_programmer_can_amend_dot(cycle_case):
    """The intervention surface: add a precedence edge by editing the DOT."""
    ddg, _ = optimize_ddg(cycle_case)
    oeg = build_oeg(ddg)
    text = graph_to_dot(oeg, "OEG")
    text = text.replace("}", '    "ka@0" -> "kc@2" [dep="USER"];\n}')
    parsed = dot_to_graph(text)
    assert ("ka@0", "kc@2") in parsed.edges
    assert parsed.edges["ka@0", "kc@2"]["dep"] == "USER"


def test_dot_file_io(tmp_path, cycle_case):
    from repro.graphs import read_dot, write_dot

    ddg, _ = optimize_ddg(cycle_case)
    path = tmp_path / "ddg.dot"
    write_dot(ddg, path)
    loaded = read_dot(path)
    assert set(loaded.nodes) == set(ddg.nodes)


_WRITE_DOTS = """
import sys
from repro.api import transform
result = transform("Fluam", workdir=sys.argv[1], until="graphs", store=True,
                   store_root=sys.argv[2], telemetry=False)
print(" ".join(result.reused))
"""


def test_dot_files_are_identical_across_hash_seeds_and_the_store(tmp_path):
    """``ddg.dot`` and ``oeg.dot`` depend on the program alone: not on the
    hash seed (the OEG reduction keeps adjacency order) and not on whether
    the store served the graphs (its payload keeps the graphs' own order
    and graph attributes)."""
    runs = (("cold-0", "0", "store-0"), ("cold-1", "1", "store-1"),
            ("warm", "1", "store-0"))
    files, reused = [], []
    for workdir, hash_seed, store in runs:
        run = subprocess.run(
            [sys.executable, "-c", _WRITE_DOTS, str(tmp_path / workdir),
             str(tmp_path / store)],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin",
                 "PYTHONHASHSEED": hash_seed},
        )
        reused.append(run.stdout.split())
        files.append([(tmp_path / workdir / name).read_bytes()
                      for name in ("ddg.dot", "oeg.dot")])
    assert "graphs" not in reused[0] and "graphs" in reused[2]
    assert files[0] == files[1] == files[2]
