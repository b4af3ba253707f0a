"""Generative fuzzing of the transformation pipeline.

The six paper apps exercise one structural point each; this package
generates *families* of valid CudaLite applications and checks the
pipeline's contracts on every one of them:

:mod:`repro.fuzz.appgen`
    Seeded, parameterized random application generator.  Every program
    goes through the same front door as the paper apps (an
    :class:`~repro.apps.base.AppBuilder`-built
    :class:`~repro.apps.base.GeneratedApp`).

:mod:`repro.fuzz.oracles`
    The invariant battery: fail-soft transform, bitwise transform
    differential, execution-mode agreement and warm-store determinism.

:mod:`repro.fuzz.reduce`
    Delta-debugging reducer that shrinks a failing program while the
    oracle keeps failing.

:mod:`repro.fuzz.triage`
    Deterministic crash bucketing and campaign reports.

:mod:`repro.fuzz.campaign`
    The seed-range driver behind the ``repro-fuzz`` CLI and the CI jobs.
"""

from .appgen import ARCHETYPES, FuzzSpec, generate_app
from .campaign import CampaignConfig, run_campaign
from .oracles import (
    ORACLE_NAMES,
    OracleFailure,
    OracleVerdict,
    fuzz_config,
    run_oracles,
)
from .reduce import reduce_program
from .triage import CrashBucket, bucket_exception, build_report, write_report

__all__ = [
    "ARCHETYPES",
    "FuzzSpec",
    "generate_app",
    "CampaignConfig",
    "run_campaign",
    "ORACLE_NAMES",
    "OracleFailure",
    "OracleVerdict",
    "fuzz_config",
    "run_oracles",
    "reduce_program",
    "CrashBucket",
    "bucket_exception",
    "build_report",
    "write_report",
]
