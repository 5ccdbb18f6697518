"""Smoke test of scripts/sweep.py on the smallest size of each family,
the solver families included."""

from __future__ import annotations

import importlib.util
import sys

import pytest

from conftest import CORPUS

SWEEP = CORPUS.parent / "scripts" / "sweep.py"


def _load_sweep():
    spec = importlib.util.spec_from_file_location("sepstrat_sweep", SWEEP)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_reports_each_family():
    sweep = _load_sweep()
    smallest = {family: [min(sizes)] for family, (_, _, sizes) in sweep.FAMILIES.items()}
    smallest |= {family: [min(sizes)] for family, (_, sizes) in sweep.SOLVER_FAMILIES.items()}
    result = sweep.sweep(sizes=smallest, repeat=1)
    assert sorted(result) == sorted([*sweep.FAMILIES, *sweep.SOLVER_FAMILIES])
    for family in sweep.SOLVER_FAMILIES:
        [row] = result.pop(family)
        assert row["k"] == smallest[family][0]
        assert row["queries"] > 0 and row["proven"] * 2 == row["queries"] and row["ms"] > 0
        assert row["ms_per_query"] == pytest.approx(row["ms"] / row["queries"], abs=1e-3)
    for family, rows in result.items():
        [row] = rows
        assert row["k"] == smallest[family][0]
        assert row["steps"] > 0 and row["ms"] > 0
        assert row["ms_per_step"] == pytest.approx(row["ms"] / row["steps"], abs=1e-3)
        assert row["serialise_ms"] > 0 and row["replay_ms"] > 0
