"""Read each source once — the front door, gated on identity and counts.

``repro.api.load_source`` is the one place source text becomes a program:
one parse and one fingerprint per distinct text per process, bounded by
retained source size.  Pinned here: the loader's contract, that nothing
downstream of it re-reads the input program (parse / fingerprint /
whole-program unparse counts, no timing), and that a ``transform()`` does
not pin its result in the job history.
"""

import gc
import json
import sys
import threading
import weakref
from pathlib import Path

import pytest

import repro.api as api
from repro.analysis.accesses import _statements
from repro.api import TransformConfig, load_source, transform
from repro.apps import APP_NAMES, build_app
from repro.cudalite import ast_nodes as ast
from repro.cudalite import parse_program
from repro.errors import ParseError
from repro.observability.metrics import get_registry, reset_registry
from repro.store import keys as store_keys

from conftest import CHAIN_SRC, DIFFUSE_SRC, THREE_KERNEL_SRC
from test_api import small_params


@pytest.fixture(autouse=True)
def _empty_memo():
    api._SOURCE_MEMO.clear()
    yield
    api._SOURCE_MEMO.clear()


def _copy(text):
    """An equal string that is a different object (no identity shortcut)."""
    return "".join(list(text))


@pytest.fixture
def parses(monkeypatch):
    """Every text the front door hands to the parser."""
    seen = []
    real = api.parse_program

    def counting(text):
        seen.append(text)
        return real(text)

    monkeypatch.setattr(api, "parse_program", counting)
    return seen


# ------------------------------------------------------------- (ii) loader


def test_equal_text_loads_the_same_program_and_canonical_fingerprint(parses):
    program, fingerprint, memo = load_source(THREE_KERNEL_SRC)
    again, fingerprint_again, memo_again = load_source(_copy(THREE_KERNEL_SRC))
    assert (memo, memo_again) == ("miss", "hit")
    assert again is program
    assert parses == [THREE_KERNEL_SRC]
    assert fingerprint == fingerprint_again == store_keys.program_fingerprint(
        parse_program(THREE_KERNEL_SRC)
    )
    # the key is the text, not the program: other spacing is another entry
    spaced, spaced_fp, memo = load_source(THREE_KERNEL_SRC + "\n")
    assert memo == "miss" and spaced is not program
    assert spaced == program and spaced_fp == fingerprint


@pytest.mark.parametrize("as_path", [Path, str])
def test_a_path_is_re_read_on_every_call(tmp_path, as_path):
    path = tmp_path / "prog.cu"
    path.write_text(THREE_KERNEL_SRC)
    first, first_fp, label = api._coerce_program(as_path(path), False, {})
    assert label == str(path)
    path.write_text(CHAIN_SRC)
    second, second_fp, _ = api._coerce_program(as_path(path), False, {})
    assert first == parse_program(THREE_KERNEL_SRC)
    assert second == parse_program(CHAIN_SRC)
    assert first_fp != second_fp


def test_eviction_is_by_retained_size_least_recently_used_first(monkeypatch):
    a, b, c = (THREE_KERNEL_SRC + f"// {tag}\n" for tag in "abc")
    monkeypatch.setattr(api, "_SOURCE_MEMO_BYTES", len(a) + len(b))
    program_a = load_source(a)[0]
    load_source(b)
    assert load_source(a)[2] == "hit"  # a is now the most recently used
    assert load_source(c)[2] == "miss"
    assert list(api._SOURCE_MEMO) == [a, c]
    assert load_source(a)[0] is program_a
    assert load_source(b)[2] == "miss"  # it was evicted: parsed again
    assert sum(map(len, api._SOURCE_MEMO)) <= api._SOURCE_MEMO_BYTES


def test_a_text_over_the_bound_is_parsed_and_not_retained(monkeypatch, parses):
    load_source(CHAIN_SRC)
    monkeypatch.setattr(api, "_SOURCE_MEMO_BYTES", len(THREE_KERNEL_SRC) - 1)
    program, fingerprint, memo = load_source(THREE_KERNEL_SRC)
    again, _, memo_again = load_source(THREE_KERNEL_SRC)
    assert (memo, memo_again) == ("uncached", "uncached")
    assert again is not program and again == program
    assert fingerprint == store_keys.program_fingerprint(program)
    # ... and it evicted nothing to make room it would not use
    assert list(api._SOURCE_MEMO) == [CHAIN_SRC]
    assert parses == [CHAIN_SRC, THREE_KERNEL_SRC, THREE_KERNEL_SRC]


def test_a_failing_parse_is_not_cached_and_leaves_its_diagnostic(
    tmp_path, parses
):
    bad = "int main( {"
    for attempt in (1, 2):
        with pytest.raises(ParseError):
            transform(bad, workdir=str(tmp_path), telemetry=True, store=False)
        assert parses == [bad] * attempt
        assert not api._SOURCE_MEMO
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["exit_code"] == 2
    assert run["error"]["type"] == "ParseError"
    assert run["source"] == "<unknown>"
    door = run["front_door"]
    assert door["source_bytes"] == len(bad) and door["memo"] is None
    assert door["load_s"] >= 0.0


def test_concurrent_loads_parse_each_text_once(parses):
    """More threads than cores, a short switch interval: every thread
    gets the one retained program and no text is parsed twice."""
    texts = [THREE_KERNEL_SRC, CHAIN_SRC, DIFFUSE_SRC]
    start = threading.Barrier(8)
    loaded, errors = [], []

    def worker():
        try:
            start.wait(timeout=30)
            for _ in range(3):
                for text in texts:
                    loaded.append((text, load_source(_copy(text))[0]))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(loaded) == 8 * 3 * len(texts)
    assert sorted(parses) == sorted(texts)
    for text in texts:
        assert {id(p) for t, p in loaded if t == text} == {
            id(api._SOURCE_MEMO[text][0])
        }


# -------------------------------------------------------------- (iii) counts


@pytest.fixture
def fingerprints(monkeypatch):
    """Every program fingerprinted, through the one function that does it."""
    seen = []
    real = store_keys.program_fingerprint

    def counting(program):
        seen.append(program)
        return real(program)

    monkeypatch.setattr(store_keys, "program_fingerprint", counting)
    return seen


@pytest.fixture
def program_unparses(monkeypatch):
    """Whole-program unparses, by the module whose binding made them."""
    import repro.cudalite.unparser as unparser
    import repro.pipeline.apply as apply
    import repro.pipeline.stages as stages

    seen = []
    real = unparser.unparse
    for module in (api, stages, apply, unparser):

        def counting(node, _name=module.__name__):
            if isinstance(node, ast.Program):
                seen.append(_name)
            return real(node)

        monkeypatch.setattr(module, "unparse", counting)
    return seen


def _stored(tmp_path, **overrides):
    return TransformConfig(
        ga_params=small_params(),
        store=True,
        store_root=str(tmp_path / "store"),
        **overrides,
    )


def test_three_transforms_of_one_text_parse_and_fingerprint_it_once(
    tmp_path, parses, fingerprints
):
    config = _stored(tmp_path)
    results = [transform(_copy(THREE_KERNEL_SRC), config) for _ in range(3)]
    assert parses == [THREE_KERNEL_SRC]
    assert len(fingerprints) == 1
    # one shared frozen AST, the run's identity seeded from the front door
    assert {id(r.state.program) for r in results} == {id(fingerprints[0])}
    assert results[1].reused["metadata"] == "profile"
    assert results[0].source == results[1].source == results[2].source


def test_a_program_object_is_fingerprinted_once_too(tmp_path, fingerprints):
    program = parse_program(THREE_KERNEL_SRC)
    transform(program, _stored(tmp_path))
    assert fingerprints == [program]


def test_whole_program_unparses_per_run(tmp_path, program_unparses):
    config = _stored(tmp_path)
    transform(THREE_KERNEL_SRC, config)  # cold: loads and fills the store
    program_unparses.clear()

    warm = transform(THREE_KERNEL_SRC, config)
    assert warm.reused["verify_program"] == "verdict"
    assert program_unparses == ["repro.pipeline.stages"]  # the verdict key
    assert warm.source is not None
    assert program_unparses == ["repro.pipeline.stages", "repro.api"]
    program_unparses.clear()

    transform(THREE_KERNEL_SRC, _stored(tmp_path, seed=7), until="search")
    assert program_unparses == []

    # no store to key a verdict in, no workdir to write to: no text needed
    quiet = transform(THREE_KERNEL_SRC, ga_params=small_params(), store=False)
    assert quiet.verified is True and program_unparses == []

    workdir = tmp_path / "run"
    loud = transform(THREE_KERNEL_SRC, config, workdir=str(workdir))
    assert program_unparses == ["repro.pipeline.stages"]  # key + file: one
    assert (workdir / "transformed.cu").read_text() == loud.source


# ------------------------------------------------------------ observability


def test_front_door_block_and_counter(tmp_path):
    reset_registry()
    store_root = tmp_path / "store"
    config = _stored(tmp_path, workdir=str(tmp_path / "run"), until="targets")
    for expected in ("miss", "hit"):
        transform(THREE_KERNEL_SRC, config)
        door = json.loads((tmp_path / "run" / "run.json").read_text())["front_door"]
        assert door["memo"] == expected
        assert door["source_bytes"] == len(THREE_KERNEL_SRC)
        assert door["load_s"] >= 0.0
    transform(parse_program(CHAIN_SRC), config)
    door = json.loads((tmp_path / "run" / "run.json").read_text())["front_door"]
    assert door["source_bytes"] is None and door["memo"] is None
    transform(CHAIN_SRC, config, telemetry=False)  # loads, records nothing
    registry = get_registry()
    assert registry.counter_total("source_loads_total") == 2
    assert registry.counter_value("source_loads_total", outcome="miss") == 1
    assert registry.counter_value("source_loads_total", outcome="hit") == 1
    records = [
        json.loads(p.read_text())["payload"]
        for p in sorted((store_root / "v1" / "run_ledger").rglob("*.json"))
    ]
    assert sorted(str(r["front_door"]["memo"]) for r in records) == [
        "None", "hit", "miss",
    ]


# --------------------------------------------------------------- job history


def test_transform_does_not_pin_its_result_in_the_job_history():
    config = TransformConfig(ga_params=small_params(), until="search")
    history = len(api._JOBS)
    result = transform(THREE_KERNEL_SRC, config)
    state = weakref.ref(result.state)
    for _ in range(3):
        transform(THREE_KERNEL_SRC, config)
    assert len(api._JOBS) == history
    del result
    gc.collect()
    assert state() is None


def test_asynchronous_jobs_keep_their_history():
    job = api.submit(THREE_KERNEL_SRC, TransformConfig(until="metadata"))
    outcome = job.result(timeout=300)
    assert api._JOBS[job.job_id] is job
    assert api.status(job.job_id) == "done"
    assert api.result(job.job_id) is outcome


# ------------------------------------------------------------------ AST walk


def _recursive_walk(node):
    """``Node.walk`` as it was defined: the reference order."""
    yield node
    for child in node.children():
        yield from _recursive_walk(child)


def _walk_programs():
    for name in APP_NAMES:
        yield name, lambda name=name: build_app(name, scale=0.5).program
    for path in sorted((Path(__file__).parent / "corpus").glob("*.json")):
        yield path.stem, lambda path=path: parse_program(
            json.loads(path.read_text())["source"]
        )


@pytest.mark.parametrize(
    "build", [b for _, b in _walk_programs()], ids=[n for n, _ in _walk_programs()]
)
def test_iterative_walk_yields_the_recursive_preorder(build):
    program = build()
    walked = program.walk()
    assert next(walked) is program  # lazy: a generator, root first
    nodes = [program, *walked]
    assert len(nodes) > 20
    assert [id(n) for n in nodes] == [id(n) for n in _recursive_walk(program)]
    for kernel in program.kernels:
        assert [id(n) for n in kernel.body.walk()] == [
            id(n) for n in _recursive_walk(kernel.body)
        ]
        # ``find_global_index_vars`` skips expressions: same statements,
        # same order as the full walk restricted to statements
        assert [id(n) for n in _statements(kernel.body)] == [
            id(n) for n in kernel.body.walk() if isinstance(n, ast.Stmt)
        ]
