"""Table 2 — Tuning Thread Block Size for New Kernels.

Per application: number of kernels output of fusion, how many the tuner
changed, and the average occupancy before/after tuning (§4.2).
"""

import pytest

from repro.apps import APP_NAMES

from common import fmt_row, print_header, run_pipeline

_WIDTHS = (14, 10, 8, 10, 10)
_ROWS = {}

#: paper's Table 2 values: (kernels out of fusion, tuned, occ before, after)
PAPER_TABLE2 = {
    "SCALE-LES": (38, 14, 0.65, 0.80),
    "HOMME": (9, 4, 0.55, 0.85),
    "Fluam": (17, 11, 0.81, 0.90),
    "MITgcm": (6, 3, 0.95, 0.96),
    "AWP-ODC-GPU": (3, 2, 0.75, 0.77),
    "B-CALM": (3, 0, 0.72, 0.72),
}


@pytest.mark.parametrize("app", APP_NAMES)
def test_table2_row(benchmark, app):
    outcome = benchmark.pedantic(
        lambda: run_pipeline(app, tuning=True), rounds=1, iterations=1
    )
    state = outcome.state
    tuning = state.transform.tuning
    tuned = [t for t in tuning if t.changed]
    occ_before = (
        sum(t.occupancy_before for t in tuning) / len(tuning) if tuning else 0.0
    )
    occ_after = (
        sum(t.occupancy_after for t in tuning) / len(tuning) if tuning else 0.0
    )
    _ROWS[app] = (
        len(state.transform.fused_kernels),
        len(tuned),
        round(occ_before, 2),
        round(occ_after, 2),
    )
    # tuning never lowers modeled occupancy
    assert all(t.occupancy_after >= t.occupancy_before - 1e-12 for t in tuning)


def test_table2_print(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_header("Table 2: Tuning Thread Block Size for New Kernels")
    print(fmt_row(("Application", "FusedKern", "Tuned", "OccBefore", "OccAfter"), _WIDTHS))
    for app in APP_NAMES:
        if app not in _ROWS:
            continue
        print(fmt_row((app,) + _ROWS[app], _WIDTHS))
        p = PAPER_TABLE2[app]
        print(f"  (paper: fused={p[0]} tuned={p[1]} occ {p[2]:.2f} -> {p[3]:.2f})")
    # shape: tuning changes occupancy the most where blocks started small
    if {"HOMME", "MITgcm"} <= set(_ROWS):
        gain = lambda app: _ROWS[app][3] - _ROWS[app][2]
        assert gain("HOMME") >= gain("MITgcm") - 1e-9
