#!/usr/bin/env python
"""Guard the public API surface against accidental removals.

Compares the names exported today — ``repro.__all__``, ``repro.api``,
``repro.store``, the :class:`repro.api.TransformConfig` fields, the
:class:`repro.api.TransformResult` attributes and the fields of the
interpreter's :class:`~repro.gpu.interpreter.LaunchRecord` (what
``RunResult.launches`` consumers read) — against the committed snapshot
(``scripts/api_surface.json``).

* a **removed** name fails the check (that's a breaking change; bump the
  snapshot deliberately with ``--update`` and call it out in the PR);
* an **added** name is reported but allowed — run ``--update`` to record
  it so the next accidental removal is caught.

Usage::

    PYTHONPATH=src python scripts/check_api_surface.py [--update]
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from pathlib import Path

SNAPSHOT = Path(__file__).resolve().parent / "api_surface.json"


def current_surface() -> dict:
    import repro
    import repro.api
    import repro.store
    from repro.gpu.interpreter import LaunchRecord

    return {
        "repro": sorted(repro.__all__),
        "repro.api": sorted(repro.api.__all__),
        "repro.store": sorted(repro.store.__all__),
        "TransformConfig.fields": sorted(
            f.name for f in fields(repro.api.TransformConfig)
        ),
        "TransformResult.attrs": sorted(
            [f.name for f in fields(repro.api.TransformResult)]
            + [
                name
                for name, value in vars(repro.api.TransformResult).items()
                if isinstance(value, property)
            ]
        ),
        "LaunchRecord.fields": sorted(f.name for f in fields(LaunchRecord)),
    }


def main(argv: list[str]) -> int:
    update = "--update" in argv
    surface = current_surface()
    if update or not SNAPSHOT.exists():
        SNAPSHOT.write_text(json.dumps(surface, indent=2) + "\n")
        print(f"api surface snapshot written to {SNAPSHOT}")
        return 0
    snapshot = json.loads(SNAPSHOT.read_text())
    failed = False
    for group, names in snapshot.items():
        have = set(surface.get(group, []))
        removed = [n for n in names if n not in have]
        added = sorted(have - set(names))
        if removed:
            failed = True
            print(
                f"ERROR: {group} lost exported name(s): {', '.join(removed)}\n"
                f"  Removing public API is a breaking change. If intended,\n"
                f"  rerun with --update and document it in the changelog."
            )
        if added:
            print(
                f"note: {group} gained {', '.join(added)} "
                f"(run --update to record)"
            )
    for group in surface:
        if group not in snapshot:
            print(f"note: new surface group {group} (run --update to record)")
    if failed:
        return 1
    print("api surface OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
