"""The census of real callers (``benchmarks/census.py``) on a synthetic
package: what its hook records, how units are labelled, and what
``--check`` refuses."""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def _load_census():
    spec = importlib.util.spec_from_file_location(
        "census", ROOT / "benchmarks" / "census.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


census = _load_census()

PACKAGE = '''
import functools
from concurrent.futures import ProcessPoolExecutor


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@deco
def decorated():
    return 1


def outer():
    def inner():
        return 2
    return inner()


class Used:
    def method(self):
        return 3


class Idle:
    def method(self):
        return 4


class Declared(Exception):
    pass


def in_worker(x):
    return x + 1


def tests_only():
    return 5


def unused():
    return 6


def driver():
    assert decorated() + outer() + Used().method() == 6
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert list(pool.map(in_worker, [1])) == [2]
'''


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    """(units, labels) of a package run by one real and one test caller."""
    tmp = tmp_path_factory.mktemp("census")
    pkg = tmp / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(textwrap.dedent(PACKAGE))
    src = tmp / "src"

    def hits(code: str, name: str) -> set:
        status, found, tail = census.run_hooked(
            [sys.executable, "-c", code], tmp, src, tmp / name, timeout=120
        )
        assert status == 0, tail
        return found

    real = hits("import pkg.mod as m; m.driver()", "real")
    tests = hits("import pkg.mod as m; m.tests_only()", "tests")
    units = census.list_units(src, "pkg")
    return units, census.classify(units, real, tests)


def test_labels(synthetic):
    units, labels = synthetic
    assert labels == {
        "pkg.mod:deco": "real",
        "pkg.mod:decorated": "real",  # code starts on the decorator line
        "pkg.mod:outer": "real",      # its nested def rolls up into it
        "pkg.mod:Used": "real",
        "pkg.mod:Used.method": "real",
        "pkg.mod:Idle": "nothing",    # its body ran at import, no method did
        "pkg.mod:Idle.method": "nothing",
        "pkg.mod:Declared": "nothing",
        "pkg.mod:in_worker": "real",  # only a pool worker ran it
        "pkg.mod:tests_only": "tests only",
        "pkg.mod:unused": "nothing",
        "pkg.mod:driver": "real",
    }
    by_name = {u.name: u for u in units}
    assert "pkg.mod:outer.inner" not in by_name
    assert by_name["pkg.mod:Declared"].declaration  # K5: an exception
    assert not by_name["pkg.mod:Idle"].declaration


def test_check_flags_unkept_units_and_stale_keep_entries(synthetic, monkeypatch):
    units, labels = synthetic

    def flagged():
        return sorted(line.split()[1] for line in census.problems(units, labels)
                      if not line.startswith("KEEP"))

    monkeypatch.setattr(census, "KEEP", {})
    assert flagged() == ["pkg.mod:Idle", "pkg.mod:tests_only", "pkg.mod:unused"]

    monkeypatch.setattr(census, "KEEP", {
        "pkg.mod:Idle": ("K4", "x"),
        "pkg.mod:tests_only": ("K1", "x"),
        "pkg.mod:decorated": ("K1", "x"),
        "pkg.gone": ("K3", "x"),
    })
    assert flagged() == ["pkg.mod:unused"]
    stale = [p for p in census.problems(units, labels) if p.startswith("KEEP")]
    assert stale == [
        "KEEP names pkg.gone, which no longer exists",
        "KEEP names pkg.mod:decorated, which real callers now reach",
    ]


def test_every_cli_verb_has_a_census_invocation():
    invoked = census.cli_invocations()
    for leaf in census.leaf_commands(build_parser()):
        assert any(tuple(argv[:len(leaf)]) == leaf for argv in invoked), (
            f"no census invocation runs `repro {' '.join(leaf)}`: add one "
            "to DOC_COMMANDS in benchmarks/census.py"
        )
