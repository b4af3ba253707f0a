"""Command-line front end (``repro-fuzz``).

Runs a generative fuzz campaign over a seed range::

    repro-fuzz --seeds 0..199 --oracles cheap --out fuzz-artifacts

Exit status: ``0`` when every oracle passed on every seed, ``1`` when
failures or crashes were recorded (the report still gets written), ``2``
on configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Tuple

from ..api import TransformConfig
from ..observability.runtime import telemetry
from .campaign import CampaignConfig, run_campaign
from .oracles import CHEAP_ORACLES, ORACLE_NAMES


def _parse_seed_range(raw: str) -> Tuple[int, int]:
    """``"A..B"`` (inclusive) or a single ``"N"``."""
    text = raw.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            start, end = int(lo), int(hi)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad seed range {raw!r} (expected A..B)"
            ) from None
    else:
        try:
            start = end = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad seed range {raw!r} (expected N or A..B)"
            ) from None
    if end < start:
        raise argparse.ArgumentTypeError(f"empty seed range {raw!r}")
    return start, end


def _parse_oracles(raw: str) -> Tuple[str, ...]:
    text = raw.strip().lower()
    if text == "cheap":
        return CHEAP_ORACLES
    if text == "all":
        return ORACLE_NAMES
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    unknown = set(names) - set(ORACLE_NAMES)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown oracle(s) {sorted(unknown)}; "
            f"choose from {', '.join(ORACLE_NAMES)}, or 'cheap'/'all'"
        )
    if not names:
        raise argparse.ArgumentTypeError("no oracles selected")
    return names


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description=(
            "Generative fuzzing of the transformation pipeline: random "
            "stencil applications, differential oracles, crash triage "
            "and automatic reduction."
        ),
    )
    parser.add_argument(
        "--seeds",
        type=_parse_seed_range,
        default=(0, 49),
        metavar="A..B",
        help="inclusive seed range (default 0..49)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; the campaign stops between seeds",
    )
    parser.add_argument(
        "--oracles",
        type=_parse_oracles,
        default=CHEAP_ORACLES,
        metavar="SET",
        help=(
            "'cheap' (transform+differential+modes), 'all', or a "
            "comma-separated oracle list"
        ),
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write fuzz_report.json and reduced reproducers here",
    )
    parser.add_argument(
        "--no-reduce",
        action="store_true",
        help="skip delta-debugging reduction of failing programs",
    )
    parser.add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        metavar="ROOT",
        help=(
            "append a campaign record to the run ledger of the artifact "
            "store at ROOT (default: REPRO_STORE / ~/.cache/repro)"
        ),
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="never write a ledger record, even with REPRO_STORE set",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-seed progress"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; normalize for callers of main()
        return int(exc.code or 0) and 2
    start, end = args.seeds
    if args.no_store:
        store, store_root = False, None
    elif args.store is not None:
        store, store_root = True, (args.store or None)
    else:
        store, store_root = None, None  # follow REPRO_STORE
    # the front door: REPRO_STORE / REPRO_TELEMETRY are read here, once
    resolved = TransformConfig(store=store, store_root=store_root).resolved()
    config = CampaignConfig(
        seed_start=start,
        seed_end=end,
        oracles=tuple(args.oracles),
        budget=args.budget,
        reduce=not args.no_reduce,
        out_dir=args.out,
        store=resolved.store,
        store_root=resolved.store_root,
        progress=None if args.quiet else lambda line: print(line, flush=True),
    )
    try:
        with telemetry(resolved.telemetry):
            report = run_campaign(config)
    except ValueError as exc:
        print(f"repro-fuzz: {exc}", file=sys.stderr)
        return 2
    summary = report["summary"]
    print(
        f"repro-fuzz: {summary['apps']} apps, "
        f"{summary['failures']} failures, {summary['crashes']} crashes "
        f"({summary['unbucketed']} unbucketed)"
    )
    clean = not summary["failures"] and not summary["crashes"]
    return 0 if clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
