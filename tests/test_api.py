"""Tests for the repro.api facade (TransformConfig + transform)."""

import json
import os
import warnings

import pytest

from repro.api import (
    TransformConfig,
    TransformResult,
    transform,
)
from repro.errors import ConfigError, ReproError
from repro.pipeline.cli import main as cli_main
from repro.search import GAParams, fast_params

from conftest import THREE_KERNEL_SRC


def small_params(seed=1):
    params = fast_params(seed=seed)
    params.population = 16
    params.generations = 15
    params.stall_generations = 6
    return params


# -------------------------------------------------------------- precedence


def test_default_when_nothing_set():
    resolved = TransformConfig().resolved(environ={})
    assert resolved.verify_seed == 0
    assert resolved.verify_groups is True
    assert not hasattr(resolved, "block_exec")  # retired in 7.0
    assert resolved.telemetry is True
    assert resolved.store is False


def test_env_beats_default(tmp_path):
    resolved = TransformConfig().resolved(
        environ={"REPRO_TELEMETRY": "0", "REPRO_STORE": str(tmp_path)}
    )
    assert resolved.telemetry is False
    assert resolved.store is True
    assert resolved.store_root == str(tmp_path)
    off = TransformConfig().resolved(environ={"REPRO_STORE": "off"})
    assert off.store is False


def test_explicit_beats_env(tmp_path):
    config = TransformConfig(telemetry=True, store=False)
    resolved = config.resolved(
        environ={"REPRO_TELEMETRY": "0", "REPRO_STORE": str(tmp_path)}
    )
    assert resolved.telemetry is True
    assert resolved.store is False
    rooted = TransformConfig(store_root="/elsewhere").resolved(
        environ={"REPRO_STORE": str(tmp_path)}
    )
    assert rooted.store is True and rooted.store_root == "/elsewhere"


def test_store_env_does_not_warn(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        resolved = TransformConfig().resolved(
            environ={"REPRO_STORE": str(tmp_path), "REPRO_TELEMETRY": "off"}
        )
    assert resolved.store is True
    assert resolved.store_root == str(tmp_path)
    assert resolved.telemetry is False
    assert not caught


def test_null_for_a_formerly_env_backed_field_means_default():
    """Config files and requests written before these four fields had
    concrete defaults carry ``null`` for "unset"."""
    old = TransformConfig.from_dict({
        "verify_groups": None, "verify_seed": None,
        "verify_rtol": None, "block_exec": None,
    })
    assert old == TransformConfig()
    assert old.verify_groups is True


# ------------------------------------------------------------- round-trips


def test_config_file_roundtrip(tmp_path):
    config = TransformConfig(
        device="K40",
        mode="manual",
        seed=7,
        exclude=("boundary_k",),
        verify_seed=3,
        store=True,
        store_root=str(tmp_path / "cache"),
    )
    path = tmp_path / "config.json"
    config.to_json(path)
    loaded = TransformConfig.from_file(path)
    assert loaded == config


def test_config_file_with_ga_params(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "seed": 3,
        "ga_params": {"population": 10, "generations": 5,
                      "penalties": {}},
    }))
    loaded = TransformConfig.from_file(path)
    assert loaded.ga_params.population == 10
    assert loaded.ga_params.generations == 5


def test_ga_params_dict_spelling_equals_the_object():
    """A config file's dict spelling of ``ga_params`` works everywhere the
    object does: the constructor, ``resolved()`` and ``transform()``."""
    spelled = {"population": 10, "generations": 6, "seed": 3}
    params = GAParams(population=10, generations=6, seed=3)
    resolved = TransformConfig(ga_params=dict(spelled)).resolved(environ={})
    assert resolved.ga_params == params and resolved.seed == 3
    as_dict = transform(THREE_KERNEL_SRC, ga_params=dict(spelled), store=False)
    as_object = transform(THREE_KERNEL_SRC, ga_params=params, store=False)
    assert as_dict.source == as_object.source
    assert as_dict.record["outcome"] == as_object.record["outcome"]
    with pytest.raises(ConfigError, match="unknown ga_params field.*threads"):
        TransformConfig(ga_params={"threads": 2})


#: ``TransformConfig(seed=7, ga_params=fast_params(seed=7)).to_json()`` as
#: version 3.1 wrote it: the island knobs at their defaults, null on top
CONFIG_FILE_3_1 = """{
  "device": "K20X", "mode": "automated", "seed": 7,
  "ga_params": {
    "population": 36, "generations": 60, "tournament_size": 3,
    "crossover_rate": 0.8, "mutate_merge": 0.3, "mutate_split": 0.15,
    "mutate_move": 0.2, "mutate_fission": 0.1, "elitism": 2, "seed": 7,
    "objective": "projected_gflops", "stall_generations": 15,
    "islands": 1, "migration_interval": 5, "migration_size": 2,
    "surrogate_topk": 1.0,
    "penalties": {"c_convexity": 200.0, "c_shared_mem": 120.0,
                  "c_unfusable": 200.0, "c_unrealizable": 180.0,
                  "c_sm_relax": 0.75}
  },
  "until": null, "exclude": [], "filtering": true, "fission": true,
  "tuning": true, "verify": true, "fail_hard": false, "workdir": null,
  "metrics_out": null, "trace_out": null, "verify_groups": true,
  "verify_seed": 0, "verify_rtol": 0.0, "block_exec": "auto",
  "telemetry": null, "islands": null, "migration_interval": null,
  "migration_size": null, "surrogate_topk": null, "store": null,
  "store_root": null
}
"""

#: ``GAParams(population=42).write()`` as version 3.1 wrote it
PARAMS_FILE_3_1 = """\
# GA parameter file (amend and pass back to the framework)
population = 42
generations = 500
tournament_size = 3
crossover_rate = 0.8
mutate_merge = 0.3
mutate_split = 0.15
mutate_move = 0.2
mutate_fission = 0.1
elitism = 2
seed = 12345
objective = 'projected_gflops'
stall_generations = 0
islands = 1
migration_interval = 5
migration_size = 2
surrogate_topk = 1.0
penalty.c_convexity = 200.0
penalty.c_shared_mem = 120.0
penalty.c_unfusable = 200.0
penalty.c_unrealizable = 180.0
penalty.c_sm_relax = 0.75
"""


def test_ga_params_retired_keys_dropped_others_rejected(tmp_path):
    # requests / config files written before the evaluation pool was
    # deleted carry these three keys; they behave as if absent
    old = TransformConfig.from_dict({"ga_params": {
        "population": 10, "workers": 4, "executor": "process",
        "fitness_cache": False,
    }})
    assert old == TransformConfig.from_dict({"ga_params": {"population": 10}})
    with pytest.raises(ConfigError, match="unknown ga_params field.*threads"):
        TransformConfig.from_dict({"ga_params": {"threads": 2}})

    # files written before the island model was deleted carry its three
    # knobs at their defaults; they load as if absent
    config_file = tmp_path / "config-3.1.json"
    config_file.write_text(CONFIG_FILE_3_1)
    assert TransformConfig.from_file(config_file) == TransformConfig(
        seed=7, ga_params=fast_params(seed=7)
    )
    params_file = tmp_path / "ga-3.1.params"
    params_file.write_text(PARAMS_FILE_3_1)
    assert GAParams.read(params_file) == GAParams(population=42)
    # any other value asked for the removed mechanism: refused, by name
    with pytest.raises(ConfigError, match="islands=4.*removed"):
        TransformConfig.from_dict({"islands": 4})
    with pytest.raises(ConfigError, match="migration_size=3.*removed"):
        TransformConfig.from_dict({"ga_params": {"migration_size": 3}})
    params_file.write_text("islands = 4\n")
    with pytest.raises(ConfigError, match="islands=4.*removed"):
        GAParams.read(params_file)


def test_verify_rtol_is_retired(tmp_path):
    """The gates compare bits since 6.0: a config written before carries
    ``verify_rtol``, which loads at 0 or null and is refused otherwise."""
    for old in (0, 0.0, None):
        assert TransformConfig.from_dict({"verify_rtol": old}) == TransformConfig()
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 3, "verify_rtol": 0.0}))
    assert TransformConfig.from_file(path) == TransformConfig(seed=3)
    with pytest.raises(ConfigError, match="verify_rtol=1e-06: .*compare bits"):
        TransformConfig.from_dict({"verify_rtol": 1e-6})
    path.write_text(json.dumps({"verify_rtol": 1e-9}))
    with pytest.raises(ConfigError, match="verify_rtol=1e-09: .*compare bits"):
        TransformConfig.from_file(path)
    assert "verify_rtol" not in TransformConfig().to_dict()


# -------------------------------------------------------------- validation


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="unknown config field"):
        TransformConfig.from_dict({"not_a_field": 1})


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        TransformConfig(mode="turbo")
    with pytest.raises(ConfigError):
        TransformConfig(until="assembly")
    with pytest.raises(ConfigError):
        TransformConfig(device="RTX9090")
    with pytest.raises(ConfigError):
        TransformConfig.from_dict({"block_exec": "warp"})


def test_config_file_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        TransformConfig.from_file(path)


def test_transform_unknown_override_rejected():
    with pytest.raises(ConfigError, match="unknown config field"):
        transform(THREE_KERNEL_SRC, banana=True)


def test_transform_rejects_unsupported_input():
    with pytest.raises(ConfigError, match="cannot transform"):
        transform(12345)


# ------------------------------------------------------------------ facade


def test_transform_source_text_end_to_end():
    result = transform(
        THREE_KERNEL_SRC, TransformConfig(ga_params=small_params())
    )
    assert isinstance(result, TransformResult)
    assert result.verified is True
    assert result.speedup is not None and result.speedup > 1.0
    assert result.source is not None and "__global__" in result.source
    assert result.reused == {}  # no store configured
    assert set(result.stage_times) == {
        "metadata", "targets", "graphs", "search", "codegen"
    }
    assert result.config.verify_groups is True  # resolved, not None


def test_transform_until_stops_early():
    result = transform(
        THREE_KERNEL_SRC,
        TransformConfig(ga_params=small_params(), until="graphs"),
    )
    assert result.program is None and result.source is None
    assert result.speedup is None
    assert "graphs" in result.reports and "search" not in result.reports


def test_transform_overrides_apply():
    result = transform(
        THREE_KERNEL_SRC,
        TransformConfig(ga_params=small_params()),
        until="targets",
    )
    assert result.config.until == "targets"
    assert list(result.reports) == ["metadata", "targets"]


def test_transform_app_name():
    result = transform("Fluam", until="metadata")
    assert "metadata" in result.reports


def test_transform_parse_error_raises():
    with pytest.raises(ReproError):
        transform("this is not CUDA", TransformConfig())


def test_facade_matches_cli_output(tmp_path, capsys):
    """The facade and the CLI must produce the identical program."""
    source = tmp_path / "prog.cu"
    source.write_text(THREE_KERNEL_SRC)
    out = tmp_path / "out.cu"
    rc = cli_main(
        [str(source), "-o", str(out), "--seed", "1", "--no-telemetry"]
    )
    capsys.readouterr()
    assert rc == 0
    params = fast_params(seed=1)
    result = transform(
        source, TransformConfig(ga_params=params, telemetry=False)
    )
    assert result.source == out.read_text()


def test_cli_config_file(tmp_path, capsys):
    source = tmp_path / "prog.cu"
    source.write_text(THREE_KERNEL_SRC)
    config_path = tmp_path / "config.json"
    TransformConfig(until="targets", workdir=str(tmp_path / "wd")).to_json(
        config_path
    )
    rc = cli_main([str(source), "--config", str(config_path)])
    capsys.readouterr()
    assert rc == 0
    run = json.loads((tmp_path / "wd" / "run.json").read_text())
    assert run["config"]["until"] == "targets"
    # resolved env-backed fields are dumped concretely, not as null
    assert run["config"]["verify_groups"] is True
    assert "block_exec" not in run["config"]


def test_cli_flag_overrides_config_file(tmp_path, capsys):
    source = tmp_path / "prog.cu"
    source.write_text(THREE_KERNEL_SRC)
    config_path = tmp_path / "config.json"
    TransformConfig(until="metadata").to_json(config_path)
    rc = cli_main(
        [str(source), "--config", str(config_path), "--until", "targets",
         "--workdir", str(tmp_path / "wd")]
    )
    capsys.readouterr()
    assert rc == 0
    run = json.loads((tmp_path / "wd" / "run.json").read_text())
    assert run["config"]["until"] == "targets"


def test_cli_seed_beside_ga_params_file_is_a_config_error(tmp_path, capsys):
    """A seedless parameter file used to run seed 12345 whatever --seed
    said; the pair is refused rather than one seed silently dropped."""
    source = tmp_path / "prog.cu"
    source.write_text(THREE_KERNEL_SRC)
    ga = tmp_path / "ga.txt"
    ga.write_text("population = 6\ngenerations = 2\n")
    rc = cli_main([str(source), "--seed", "10", "--ga-params", str(ga)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "ConfigError" in captured.err and "--seed" in captured.err
    assert captured.out == ""


def test_cli_bad_config_file(tmp_path, capsys):
    source = tmp_path / "prog.cu"
    source.write_text(THREE_KERNEL_SRC)
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "turbo"}')
    rc = cli_main([str(source), "--config", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "ConfigError" in captured.err


def test_public_surface_exports():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name
    assert repro.transform is transform
    assert repro.TransformConfig is TransformConfig


# ------------------------------------------------------------- request key


def _key(config, **overrides):
    from dataclasses import replace

    from repro.api import request_key
    from repro.cudalite import parse_program
    from repro.store import program_fingerprint

    fingerprint = program_fingerprint(parse_program(THREE_KERNEL_SRC))
    return request_key(fingerprint, replace(config, **overrides).resolved())


def test_identical_submissions_share_a_key_not_a_job_id():
    config = TransformConfig(ga_params=small_params(), until="metadata")
    assert _key(config) == _key(config)


def test_semantic_config_changes_the_request_key():
    base = TransformConfig(ga_params=small_params(), until="metadata")
    assert _key(base) != _key(base, ga_params=small_params(seed=999))
    assert _key(base) != _key(base, until="targets")


def test_a_seed_the_ga_ignores_is_not_in_the_request_key():
    """With ``ga_params`` given the search runs on ``ga_params.seed``, so
    a differing ``seed`` is the same request, and the resolved config
    (hence the ledger's config digest and the run record) names the seed
    the search used."""
    ga = {"population": 10, "generations": 6, "stall_generations": 3}
    first = TransformConfig.from_dict({"ga_params": ga, "seed": 101})
    second = TransformConfig.from_dict({"ga_params": ga, "seed": 202})
    assert _key(first) == _key(second)
    assert first.resolved().seed == first.ga_params.seed
    reseeded = TransformConfig.from_dict({"ga_params": {**ga, "seed": 7}})
    assert _key(reseeded) != _key(first)
    assert TransformConfig(seed=101).resolved().seed == 101


def test_output_paths_do_not_change_the_request_key(tmp_path):
    config = TransformConfig(ga_params=small_params(), until="metadata")
    assert _key(config) == _key(config, workdir=str(tmp_path))


# ------------------------------------------------------------ failure paths


def test_bad_input_fails_at_submit_time():
    with pytest.raises(ReproError):
        transform("int main( {", TransformConfig())


def test_bad_submit_while_a_job_runs_leaves_global_state_alone(
    tmp_path, monkeypatch
):
    """The unparseable-input path runs in the caller's thread, outside
    the execution lock: while another thread's ``transform()`` holds the
    lock, it must write its exit-code-2 ``run.json`` without touching
    ``os.environ`` or the telemetry switch that the running transform
    scoped for itself."""
    import threading

    import repro.api as api_module
    from repro.observability.runtime import telemetry_enabled
    from repro.pipeline import framework

    def global_state():
        return dict(os.environ), telemetry_enabled()

    entered, release = threading.Event(), threading.Event()
    seen = {}
    real_stage = framework.STAGE_FUNCTIONS["metadata"]
    real_write = api_module.write_run_outputs

    def blocked_stage(state):
        seen["job_before"] = global_state()
        entered.set()
        assert release.wait(60)
        seen["job_after"] = global_state()
        return real_stage(state)

    def spying_write(*args, **kwargs):
        seen.setdefault("bad_submit", global_state())
        return real_write(*args, **kwargs)

    def running():
        seen["result"] = transform(
            THREE_KERNEL_SRC, TransformConfig(until="metadata", telemetry=False)
        )

    monkeypatch.setitem(framework.STAGE_FUNCTIONS, "metadata", blocked_stage)
    monkeypatch.setattr(api_module, "write_run_outputs", spying_write)
    job = threading.Thread(target=running)
    job.start()
    try:
        assert entered.wait(60)
        bad_dir = tmp_path / "bad"
        with pytest.raises(ReproError):
            transform(
                "int main( {",
                TransformConfig(
                    telemetry=True,
                    workdir=str(bad_dir),
                    store=True,
                    store_root=str(tmp_path / "store"),
                ),
            )
    finally:
        release.set()
        job.join(60)
    assert isinstance(seen["result"], TransformResult)
    assert seen["job_before"][1] is False  # the running transform's scope
    assert seen["bad_submit"] == seen["job_before"]
    assert seen["job_after"] == seen["job_before"]
    run = json.loads((bad_dir / "run.json").read_text())
    assert run["exit_code"] == 2
    assert run["error"]["type"]


def test_failed_job_reports_and_reraises(tmp_path, monkeypatch):
    """``transform()`` re-raises the pipeline error after reporting it."""
    import repro.api as api_module
    from repro.errors import PipelineError

    class ExplodingFramework:
        state = None
        stage_times = {}

        def __init__(self, *args, **kwargs):
            pass

        def run(self, until=None):
            raise PipelineError("stage blew up")

    monkeypatch.setattr(api_module, "Framework", ExplodingFramework)
    with pytest.raises(PipelineError, match="stage blew up"):
        transform(THREE_KERNEL_SRC, TransformConfig(workdir=str(tmp_path)))
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["exit_code"] == 2
    assert run["error"]["type"] == "PipelineError"


# --------------------------------------------------------- surrogate knob


def test_surrogate_knob_reaches_the_resolved_ga_params():
    config = TransformConfig(ga_params=small_params(), surrogate_topk=0.25)
    params = config.resolved().resolved_ga_params()
    assert params.surrogate_topk == 0.25
    assert params.population == small_params().population


def test_run_json_and_ledger_name_this_runs_executors(tmp_path):
    """``interpreter`` in run.json / the ledger is per run: which executor
    ran the launches, which kernels paid the block loop, and why."""
    from repro.observability.ledger import RunLedger

    def run_once(name):
        transform(
            THREE_KERNEL_SRC,
            ga_params=small_params(),
            workdir=str(tmp_path / name),
            store=True,
            store_root=str(tmp_path / "store"),
        )
        return json.loads((tmp_path / name / "run.json").read_text())["interpreter"]

    cold = run_once("cold")
    assert set(cold) == {
        "launches_by_executor", "loop_launches", "hazard_replays", "accesses_by_path",
        "statements_by_path", "lift_replays",
    }
    assert sum(cold["launches_by_executor"].values()) > 0
    # shared-memory-free kernels on the vectorized lattice: every access slices
    assert cold["accesses_by_path"]["slice"] > 0
    assert set(cold["accesses_by_path"]) == {"slice", "funnel"}
    assert cold["loop_launches"] == {} and cold["hazard_replays"] == {}
    # every kernel's k loop runs as a lattice axis, none replays
    assert cold["statements_by_path"]["lifted"] > 0 and cold["lift_replays"] == {}
    warm = run_once("warm")
    # reset per run, not process-cumulative: the warm run reuses verified
    # stages and so launches less, never more
    assert sum(warm["launches_by_executor"].values()) < sum(
        cold["launches_by_executor"].values()
    )
    records = RunLedger(str(tmp_path / "store")).list(kind="transform")
    assert [r["interpreter"] for r in records] == [cold, warm]


def test_ledger_trace_covers_this_run_only(tmp_path, monkeypatch):
    """The ledger's ``trace`` block summarises the spans this run opened,
    not every span the process kept: a second run's record does not
    describe the first, and once the tracer is full a run whose spans
    were all dropped says so instead of repeating stale ones."""
    from repro.observability import tracing
    from repro.observability.ledger import RunLedger

    def two_runs(tracer, root):
        monkeypatch.setattr(tracing, "_tracer", tracer)
        for seed in (1, 2):
            transform(
                THREE_KERNEL_SRC,
                ga_params=small_params(),
                seed=seed,
                telemetry=True,
                store=True,
                store_root=str(root),
            )
        return [r["trace"] for r in RunLedger(str(root)).list(kind="transform")]

    tracer = tracing.Tracer()
    first, second = two_runs(tracer, tmp_path / "roomy")
    assert first["span_count"] > 0 and second["span_count"] > 0
    assert first["span_count"] + second["span_count"] <= len(tracer.spans())

    tiny = tracing.Tracer(max_spans=10)
    first, second = two_runs(tiny, tmp_path / "tiny")
    assert tiny.dropped > 0 and first["span_count"] == 10
    assert second == {"span_count": 0, "critical_path": [], "self_time_ms": {}}
