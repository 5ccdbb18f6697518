from __future__ import annotations

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from sepstrat.frontend import parse_entailments, parse_signature, parse_strategies

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDENS = Path(__file__).resolve().parent / "goldens"


def load_library(name: str):
    sig = parse_signature((CORPUS / f"{name}.sig").read_text(), f"{name}.sig")
    prog = parse_strategies((CORPUS / f"{name}.stg").read_text(), sig, f"{name}.stg")
    return sig, prog


def load_entailments(name: str, sig):
    path = CORPUS / f"{name}.sle"
    return parse_entailments(path.read_text(), sig, path.name)


@functools.cache
def load_perfbench(name: str):
    """A module of perfbench/, which is not a package, imported by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", CORPUS.parent / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def sll():
    return load_library("sll")


@pytest.fixture(scope="session")
def array():
    return load_library("array")


@pytest.fixture(scope="session")
def common():
    return load_library("common")
