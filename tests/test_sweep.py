"""Smoke test of scripts/sweep.py on the smallest size of each family,
the solver and parse families included, and on two paddings of
library_size; the parse family's renamed batch repeats no atom."""

from __future__ import annotations

import importlib.util
import sys

import pytest

from conftest import CORPUS
from sepstrat.frontend import parse_entailments

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
    smallest["library_size"] = [0, 25]
    smallest["parse"] = [25]
    result = sweep.sweep(sizes=smallest, repeat=1)
    assert sorted(result) == sorted([*sweep.FAMILIES, "library_size", "parse", *sweep.SOLVER_FAMILIES])
    parse = result.pop("parse")
    assert [(r["workload"], r["source"]) for r in parse] == [
        (w, source) for w in sweep.PARSE[0] for source in ("batch", "trace_inputs", "batch_unique")
    ]
    for row in parse:
        assert row["goals"] == 25 and row["chars"] > 0 and row["parse_ms"] > 0
        assert row["chars_per_ms"] == pytest.approx(row["chars"] / row["parse_ms"], rel=1e-2)
    bare, padded = result.pop("library_size")
    assert (bare["n"], padded["n"]) == (0, 25) and bare["steps"] == padded["steps"] > 0
    for row in (bare, padded):
        assert row["ms_per_step"] == pytest.approx(row["ms"] / row["steps"], abs=1e-3)
    # a padded strategy's match is checked once, then parked: k = 8 arrays,
    # each matched with its one read
    assert padded["check_calls"] - bare["check_calls"] == 25 * 8
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


def test_unique_batch_repeats_no_atom():
    sweep = _load_sweep()
    wl = sweep._load_workloads()
    for workload in sweep.PARSE[0]:
        batch = wl.WORKLOADS[workload](1, 25)
        sig, _ = sweep._library(batch.library)
        ents = parse_entailments(sweep._unique_text(batch, sig), sig)
        atoms = [a for e in ents for h in (e.lhs, e.rhs) for a in h.spatials]
        assert len(ents) == 25 and len(set(atoms)) == len(atoms)
        # the same goals, renamed
        assert [len(e.lhs.spatials) for e in ents] == [len(e.lhs.spatials) for e in parse_entailments(batch.text, sig)]
