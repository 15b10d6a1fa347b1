"""The benchmark's tracer wraps library names from outside, so a traced name
the library drops must fail here, not only in ``bench/run.py --trace 1``."""

import importlib.util
import sys
from pathlib import Path

from dioph import multiform
from dioph.enclosure import Enclosure

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _namespaces():
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "dioph"]
    return [dict(vars(m)) for m in mods] + [dict(vars(Enclosure))]


def test_tracer_installs_over_the_library_and_restores_it(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = _namespaces()
    search = multiform.omega0_search
    tracer = tracing.Tracer().install()
    try:
        assert multiform.omega0_search is not search
    finally:
        tracer.uninstall()
    assert _namespaces() == before
