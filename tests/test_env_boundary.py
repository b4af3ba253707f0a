"""Configuration flows downward as arguments.

The process environment is read once, at the front door
(``TransformConfig.resolved`` / ``from_env``), for exactly two variables;
below that every value travels as an argument and nothing writes to
``os.environ``.  These tests pin the boundary in the source tree and the
behaviour it buys.
"""

import os
import re
from pathlib import Path

import pytest

import repro
import repro.pipeline.apply as apply_module
from repro.api import TransformConfig, transform
from repro.errors import ConfigError
from repro.gpu import interpreter
from repro.search import fast_params

from conftest import THREE_KERNEL_SRC, forced_transform

SRC = Path(repro.__file__).resolve().parent

#: the only modules that may touch the process environment, and why
ENV_ALLOWLIST = {
    "config.py",  # the one configuration reader
    "store/artifact_store.py",  # REPRO_STORE parsing
    "observability/logfmt.py",  # REPRO_LOG_FORMAT
    "observability/runinfo.py",  # run.json provenance snapshot
    "service/pool.py",  # child-process environment construction
}

#: layers that must be configured purely through arguments
DEEP_LAYERS = (
    "gpu/",
    "pipeline/",
    "search/",
    "transform/",
    "analysis/",
    "graphs/",
    "cudalite/",
    "reliability/verify.py",
    "observability/runtime.py",
    "store/stage_cache.py",
)

ENV_READ = re.compile(r"\bos\.environ\b|\bimport\s+environ\b|\bgetenv\b")
FROM_ENV_CALL = re.compile(r"\w*from_env\(")
ENV_WRITE = re.compile(
    r"os\.environ\[[^\]]*\]\s*=(?!=)"
    r"|os\.environ\.(?:update|pop|popitem|setdefault|clear)\("
    r"|\bdel\s+os\.environ"
    r"|os\.(?:putenv|unsetenv)\("
)


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path.read_text()


def test_only_allowlisted_modules_touch_the_environment():
    touching = {rel for rel, text in _sources() if ENV_READ.search(text)}
    assert touching <= ENV_ALLOWLIST, sorted(touching - ENV_ALLOWLIST)


def test_deep_layers_take_configuration_as_arguments():
    offenders = [
        rel
        for rel, text in _sources()
        if rel.startswith(DEEP_LAYERS)
        and (ENV_READ.search(text) or FROM_ENV_CALL.search(text))
    ]
    assert offenders == []


def test_nothing_writes_to_the_environment():
    offenders = [rel for rel, text in _sources() if ENV_WRITE.search(text)]
    assert offenders == []


# ------------------------------------------- config reaches readers as args


def small_params(seed=1):
    params = fast_params(seed=seed)
    params.population = 16
    params.generations = 15
    params.stall_generations = 6
    return params


@pytest.mark.parametrize("mode, slices", [("auto", True), ("loop", False)])
def test_block_exec_reaches_the_interpreter(mode, slices):
    result = forced_transform(
        THREE_KERNEL_SRC,
        mode,
        ga_params=small_params(),
        store=False,
    )
    assert result.verified is True
    # the per-block loop is the oracle: it never runs an access as slices
    assert (interpreter.stats().accesses_by_path["slice"] > 0) is slices


def test_gate_settings_reach_verify_group(monkeypatch):
    calls = []
    real = apply_module.verify_group

    def spy(fused, constituents, shapes, compare, config, **kwargs):
        calls.append((config, kwargs))
        return real(fused, constituents, shapes, compare, config, **kwargs)

    monkeypatch.setattr(apply_module, "verify_group", spy)
    forced_transform(
        THREE_KERNEL_SRC,
        "batched",
        ga_params=small_params(),
        verify_seed=7,
        store=False,
    )
    assert calls, "no fused group reached the gate"
    for config, kwargs in calls:
        assert (config.enabled, config.seed) == (True, 7)
        assert kwargs == {"block_exec": "batched"}


# ------------------------------------------------- deleted variables inert


def test_deleted_variables_are_inert(monkeypatch):
    for name in ("REPRO_BLOCK_EXEC", "REPRO_VERIFY_SEED", "REPRO_ISLANDS"):
        monkeypatch.delenv(name, raising=False)
    clean_config = TransformConfig().resolved()
    clean = transform(THREE_KERNEL_SRC, ga_params=small_params(), store=False)

    monkeypatch.setenv("REPRO_BLOCK_EXEC", "loop")
    monkeypatch.setenv("REPRO_VERIFY_SEED", "9")
    monkeypatch.setenv("REPRO_ISLANDS", "4")
    assert TransformConfig().resolved() == clean_config
    before = dict(os.environ)
    ambient = transform(THREE_KERNEL_SRC, ga_params=small_params(), store=False)
    assert dict(os.environ) == before
    assert ambient.source == clean.source
    assert ambient.config == clean.config


@pytest.mark.parametrize("name", ["REPRO_FAULT_SEAMS", "REPRO_FAULT_SEED"])
def test_retired_fault_variables_are_a_config_error(name, tmp_path, monkeypatch, capsys):
    """Fault injection is gone; a variable that would have turned it on
    fails at the front door instead of running without it."""
    from repro.pipeline.cli import main as cli_main

    monkeypatch.setenv(name, "codegen" if name.endswith("SEAMS") else "1")
    with pytest.raises(ConfigError, match=f"{name}: fault injection was removed"):
        TransformConfig().resolved()
    src = tmp_path / "prog.cu"
    src.write_text(THREE_KERNEL_SRC)
    assert cli_main([str(src)]) == 2
    err = capsys.readouterr().err
    assert f"ConfigError: {name}: fault injection was removed" in err
    monkeypatch.setenv(name, " ")  # blank is unset, as for every variable
    assert TransformConfig().resolved() == TransformConfig().resolved({})


# ------------------------------------------ the two that are still honoured


def test_telemetry_variable_takes_effect_and_explicit_wins(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "0")
    monkeypatch.delenv("REPRO_STORE", raising=False)
    quiet = transform(
        THREE_KERNEL_SRC, until="metadata", workdir=str(tmp_path / "quiet")
    )
    assert quiet.config.telemetry is False
    assert not (tmp_path / "quiet" / "run.json").exists()
    loud = transform(
        THREE_KERNEL_SRC,
        until="metadata",
        workdir=str(tmp_path / "loud"),
        telemetry=True,
    )
    assert loud.config.telemetry is True
    assert (tmp_path / "loud" / "run.json").exists()


def test_store_variable_takes_effect_and_explicit_wins(tmp_path, monkeypatch):
    root = tmp_path / "env-store"
    monkeypatch.setenv("REPRO_STORE", str(root))
    off = transform(THREE_KERNEL_SRC, until="metadata", store=False)
    assert off.config.store is False
    assert not root.exists()
    on = transform(THREE_KERNEL_SRC, until="metadata")
    assert (on.config.store, on.config.store_root) == (True, str(root))
    assert any(root.rglob("*.json"))
    again = transform(THREE_KERNEL_SRC, until="metadata")
    assert again.reused == {"metadata": "profile"}
