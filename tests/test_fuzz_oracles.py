"""The fuzz oracle battery and its failure signatures.

Contracts under test (see ``repro.fuzz.oracles``):

* the full battery passes on generated apps (the pipeline keeps its
  promises on arbitrary valid inputs);
* a violated contract surfaces as an :class:`OracleFailure` with a
  stable ``kind`` signature instead of an exception;
* the ``transform`` oracle catches escapes and ``differential``
  inherits the failure as a skip rather than crashing on a missing
  result;
* oracle selection is validated loudly.
"""

import pytest

from repro.fuzz import generate_app
from repro.fuzz.oracles import (
    CHEAP_ORACLES,
    ORACLE_NAMES,
    OracleFailure,
    OracleVerdict,
    fuzz_config,
    run_oracles,
)
from repro.reliability import faults


@pytest.fixture(autouse=True)
def _no_fault_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


def test_cheap_battery_passes_on_generated_apps():
    for seed in (0, 5):
        app = generate_app(seed)
        verdict = run_oracles(app, CHEAP_ORACLES, fuzz_config(seed=seed))
        assert verdict.ok, verdict.signatures()
        assert set(verdict.passed) == set(CHEAP_ORACLES)
        assert verdict.app == app.name


def test_full_battery_passes_on_one_app():
    app = generate_app(3)
    verdict = run_oracles(app, ORACLE_NAMES, fuzz_config(seed=3))
    assert verdict.ok, [
        (f.signature(), f.detail) for f in verdict.failures
    ]
    assert set(verdict.passed) == set(ORACLE_NAMES)


def test_accepts_plain_programs():
    program = generate_app(1).program
    verdict = run_oracles(program, ("modes",))
    assert verdict.ok
    assert verdict.app == "<program>"


def test_unknown_oracle_rejected():
    with pytest.raises(ValueError, match="unknown oracle"):
        run_oracles(generate_app(0), ("transform", "bogus"))


def test_transform_escape_is_a_stable_failure(monkeypatch):
    import repro.fuzz.oracles as oracles_mod

    def boom(*_args, **_kwargs):
        raise RuntimeError("synthetic pipeline escape")

    monkeypatch.setattr(oracles_mod, "transform", boom)
    verdict = run_oracles(
        generate_app(0), ("transform", "differential"), fuzz_config()
    )
    assert not verdict.ok
    kinds = {f.oracle: f.kind for f in verdict.failures}
    assert kinds["transform"] == "uncaught:RuntimeError"
    # differential cannot compare without a transform result, and says so
    assert kinds["differential"] == "transform-failed"
    escape = next(f for f in verdict.failures if f.oracle == "transform")
    assert isinstance(escape.exc, RuntimeError)
    assert escape.signature() == "transform:uncaught:RuntimeError"


def test_warm_store_oracle_flags_a_front_door_miss(monkeypatch):
    """The warm leg goes in as text; if what the front door makes of it
    does not fingerprint like the program the cold leg was given, the
    store is missed — same output, but a failure of its own kind."""
    import itertools

    from repro.store import keys

    app = generate_app(3)
    assert run_oracles(app, ("warm_store",), fuzz_config(seed=3)).ok
    real, calls = keys.program_fingerprint, itertools.count()
    monkeypatch.setattr(
        keys, "program_fingerprint", lambda p: f"{real(p)}-{next(calls)}"
    )
    verdict = run_oracles(app, ("warm_store",), fuzz_config(seed=3))
    assert verdict.signatures() == ("warm_store:warm-front-door-miss",)
    assert "metadata" in verdict.failures[0].detail


def test_modes_oracle_flags_a_differential_that_is_not_slice_vs_funnel(
    monkeypatch,
):
    """``loop`` against ``auto`` is only an independent check while the
    loop keeps the funnel and ``auto`` leaves it: an ``auto`` that stopped
    slicing passes every comparison and fails the premise."""
    from repro.gpu.interpreter import _KernelExec

    app = generate_app(3)
    assert run_oracles(app, ("modes",)).ok
    monkeypatch.setattr(_KernelExec, "_slice_index", lambda *a, **k: None)
    verdict = run_oracles(app, ("modes",))
    assert verdict.signatures() == ("modes:not-slice-vs-funnel",)
    assert "auto 0" in verdict.failures[0].detail
    # a plain program makes no such promise (it may have nothing to slice)
    assert run_oracles(app.program, ("modes",)).ok


def test_modes_oracle_flags_a_differential_that_is_not_lifted_vs_sequential(
    monkeypatch,
):
    """Likewise ``loop`` against ``auto`` compares lifted loops with
    sequential ones only while ``auto`` lifts: an ``auto`` that stopped
    lifting passes every comparison and fails the premise."""
    from repro.gpu.interpreter import _KernelExec

    app = generate_app(3)
    monkeypatch.setattr(_KernelExec, "_run_lifted", lambda *a, **k: False)
    verdict = run_oracles(app, ("modes",))
    assert verdict.signatures() == ("modes:not-lifted-vs-sequential",)
    assert "auto 0" in verdict.failures[0].detail
    assert run_oracles(app.program, ("modes",)).ok


def test_verdict_signatures_are_ordered_and_stable():
    failures = (
        OracleFailure("modes", "array-mismatch:batched", "x"),
        OracleFailure("transform", "uncaught:KeyError", "y"),
    )
    verdict = OracleVerdict(app="a", failures=failures)
    assert verdict.signatures() == (
        "modes:array-mismatch:batched",
        "transform:uncaught:KeyError",
    )
    assert not verdict.ok


def test_fuzz_config_is_small_and_quiet():
    config = fuzz_config(seed=7)
    params = config.ga_params
    assert params.population <= 16 and params.generations <= 10
    assert config.telemetry is False
    assert config.store is False
    # bitwise verification stays the default for differential soundness
    assert config.verify_rtol == 0.0
    override = fuzz_config(seed=7, telemetry=True)
    assert override.telemetry is True


def test_fault_seam_oracle_restores_plan_state():
    app = generate_app(2)
    verdict = run_oracles(app, ("fault_seams",), fuzz_config(seed=2))
    assert verdict.ok, verdict.signatures()
    assert faults.active_plan() is None
