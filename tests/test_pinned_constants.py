"""The empirical constants and stability drifts at the criterion-7 config,
pinned to the values in ``acceptance_constants.json``.

Each report's empirical constant and its doubled-grid rerun must match the
file to 1e-12 relative, and so must its stability drift.  The drift is the
relative difference of those two constants, and for a pair that agrees to
rounding it is rounding noise, so it also passes within 1e-12 absolute.

A change that moves a constant on purpose regenerates the file with

    PYTHONPATH=src python tests/test_pinned_constants.py

and lists each move in CHANGES.md.
"""
import json
from pathlib import Path

import pytest

from orliczforms import load_config, run_suite

PINNED = Path(__file__).with_name("acceptance_constants.json")
CRITERION_7 = {"grid_resolution": 27, "ball_resolution": 9, "ball_count": 12,
               "stability_check": True}
REL = 1e-12


def acceptance_constants() -> dict:
    """{report key: {"constant", "doubled", "drift"}} at the criterion-7
    config; a weighted report's key names its weight."""
    out = {}
    for r in run_suite(load_config(overrides=CRITERION_7)):
        key = r.inequality
        if "weight" in r.config:
            key += f"[{r.config['weight']}]"
        out[key] = {"constant": r.empirical_constant,
                    "doubled": r.stability["doubled"], "drift": r.stability["drift"]}
    return out


def test_acceptance_constants_match_pinned_values():
    pinned = json.loads(PINNED.read_text())
    assert pinned["config"] == CRITERION_7
    measured = acceptance_constants()
    assert sorted(measured) == sorted(pinned["constants"]) and len(measured) == 11
    moved = []
    for key, want in sorted(pinned["constants"].items()):
        got = measured[key]
        for name in ("constant", "doubled", "drift"):
            floor = REL if name == "drift" else 0.0
            if got[name] != pytest.approx(want[name], rel=REL, abs=floor):
                moved.append(f"{key} {name}: {want[name]!r} -> {got[name]!r}")
    assert moved == []


if __name__ == "__main__":
    PINNED.write_text(json.dumps({"config": CRITERION_7,
                                  "constants": acceptance_constants()},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")
