"""Command-line front end (``repro-transform``).

Mirrors the paper's tool: the programmer points it at a CUDA(Lite) source
file, optionally bounds the stages (``--until`` / ``--from``) and receives
stage reports, DOT files and the generated program in a working directory.

The CLI is a thin shell over :func:`repro.api.transform`: it assembles a
:class:`repro.api.TransformConfig` (``--config`` file first, then explicit
flags on top) and delegates execution, run-manifest writing and telemetry
output to the facade.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..api import TransformConfig, _merge_overrides, transform
from ..config import STAGES
from ..errors import ConfigError, ReproError
from ..gpu.device import available_devices
from ..observability.logfmt import configure_logging
from ..search.params import GAParams


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-transform",
        description=(
            "Automated CUDA-to-CUDA kernel fission/fusion transformation "
            "for stencil applications (HPDC'15 reproduction)."
        ),
    )
    parser.add_argument("source", help="CudaLite source file")
    parser.add_argument(
        "-o", "--output", default=None, help="write the transformed program here"
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help=(
            "JSON TransformConfig file (see repro.api); explicit flags "
            "override its fields"
        ),
    )
    parser.add_argument(
        "--device",
        default=None,
        choices=sorted(available_devices()),
        help="target device model (default: K20X)",
    )
    parser.add_argument(
        "--mode",
        default=None,
        choices=("automated", "guided", "manual"),
        help=(
            "transformation mode (manual enables the higher-quality codegen; "
            "guided runs as automated)"
        ),
    )
    parser.add_argument(
        "--until", default=None, choices=STAGES, help="stop after this stage"
    )
    parser.add_argument(
        "--workdir", default=None, help="directory for stage artifacts"
    )
    parser.add_argument(
        "--ga-params",
        default=None,
        help="GA parameter file (see GAParams), seed included: not with --seed",
    )
    parser.add_argument(
        "--surrogate-topk",
        type=float,
        default=None,
        metavar="F",
        help=(
            "fraction of offspring admitted to exact fitness evaluation "
            "after the analytic-model-only surrogate ranking "
            "(1.0 disables the pre-filter)"
        ),
    )
    parser.add_argument(
        "--no-fission", action="store_true", help="disable kernel fission"
    )
    parser.add_argument(
        "--no-tuning", action="store_true", help="disable thread-block tuning"
    )
    parser.add_argument(
        "--no-filter", action="store_true", help="disable target filtering"
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="KERNEL",
        help="manually exclude a kernel from the search (repeatable)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip output verification on the simulator",
    )
    parser.add_argument(
        "--no-group-verify",
        action="store_true",
        help="skip the per-group semantic verification gate during codegen",
    )
    parser.add_argument(
        "--fail-hard",
        action="store_true",
        help=(
            "abort on search/verification failures instead of degrading "
            "gracefully to the identity transformation"
        ),
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error"),
        help="logging verbosity for pipeline diagnostics",
    )
    parser.add_argument(
        "--log-format",
        default=None,
        choices=("text", "json"),
        help=(
            "log record format; json emits one object per line with "
            "trace/span correlation ids (default: REPRO_LOG_FORMAT or text)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="GA random seed (default: 12345)"
    )
    # retired in 7.0: 'auto' is accepted and ignored, any other value is
    # a ConfigError (a forced executor is for checks, not a product knob)
    parser.add_argument("--block-exec", default=None, help=argparse.SUPPRESS)
    parser.add_argument(
        "--store",
        nargs="?",
        const=True,
        default=None,
        metavar="ROOT",
        help=(
            "enable the persistent cross-run artifact store, optionally at "
            "ROOT (default: REPRO_STORE or ~/.cache/repro)"
        ),
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable the persistent store even when REPRO_STORE is set",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "write end-of-run metrics here (JSON, or Prometheus text when "
            "the path ends in .prom)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event file (Perfetto-loadable) here",
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        help=(
            "disable metrics, tracing, search telemetry and run.json "
            "(equivalent to REPRO_TELEMETRY=0)"
        ),
    )
    return parser


def _build_config(args) -> TransformConfig:
    """``--config`` file first, explicit flags layered on top.

    Flags whose argparse default is ``None``/``False``/``[]`` only
    override the file when the user actually passed them, preserving the
    documented precedence (explicit > file > env > default; only
    ``REPRO_STORE`` and ``REPRO_TELEMETRY`` are read from the environment).
    """
    config = (
        TransformConfig.from_file(args.config)
        if args.config
        else TransformConfig()
    )
    overrides = {}
    if args.device is not None:
        overrides["device"] = args.device
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.ga_params:
        # the file is the whole GA parameter set, seed included: beside
        # it, --seed would be silently replaced by the file's seed
        if args.seed is not None:
            raise ConfigError(
                "--seed and --ga-params both set the GA seed; put "
                "'seed = N' in the parameter file instead"
            )
        overrides["ga_params"] = GAParams.read(args.ga_params)
    if args.surrogate_topk is not None:
        overrides["surrogate_topk"] = args.surrogate_topk
    if args.until is not None:
        overrides["until"] = args.until
    if args.workdir is not None:
        overrides["workdir"] = args.workdir
    if args.exclude:
        overrides["exclude"] = tuple(args.exclude)
    if args.no_filter:
        overrides["filtering"] = False
    if args.no_fission:
        overrides["fission"] = False
    if args.no_tuning:
        overrides["tuning"] = False
    if args.no_verify:
        overrides["verify"] = False
    if args.no_group_verify:
        overrides["verify_groups"] = False
    if args.fail_hard:
        overrides["fail_hard"] = True
    if args.metrics_out is not None:
        overrides["metrics_out"] = args.metrics_out
    if args.trace_out is not None:
        overrides["trace_out"] = args.trace_out
    if args.block_exec is not None:
        overrides["block_exec"] = args.block_exec
    if args.no_telemetry:
        overrides["telemetry"] = False
    if args.no_store:
        overrides["store"] = False
    elif args.store is not None:
        overrides["store"] = True
        if isinstance(args.store, str):
            overrides["store_root"] = args.store
    return _merge_overrides(config, overrides)


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    configure_logging(args.log_level, args.log_format)
    try:
        config = _build_config(args)
    except (ConfigError, ReproError) as exc:
        print(f"repro-transform: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        result = transform(Path(args.source), config)
    except ReproError as exc:
        # expected failure modes get a one-line diagnostic, not a traceback
        stage = f" [stage: {exc.stage}]" if exc.stage else ""
        print(
            f"repro-transform: {type(exc).__name__}{stage}: {exc}",
            file=sys.stderr,
        )
        return 2
    print(result.report)
    if config.workdir:
        workdir = Path(config.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "report.txt").write_text(result.report + "\n")

    if config.until in (None, "codegen") and result.source is not None:
        if args.output:
            Path(args.output).write_text(result.source)
            print(f"transformed program written to {args.output}")
        else:
            print(result.source)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
