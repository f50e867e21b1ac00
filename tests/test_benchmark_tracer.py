"""The benchmark tracer still finds every boundary it wraps in ``src/``.

``benchmarks/suite/tracer.py`` (``run.py --trace``) patches functions at the
place their callers look them up: a class's own ``__dict__`` entry or a
module global.  A refactor that renames, moves or inherits one of them makes
``install()`` fail with a ``KeyError`` or ``AttributeError``; this test
installs and uninstalls the tracer against the current source tree.
"""

from __future__ import annotations

import importlib
from pathlib import Path

SUITE = Path(__file__).resolve().parent.parent / "benchmarks" / "suite"


def _raw(boundary):
    target = boundary.resolve()
    if isinstance(target, type):
        return target.__dict__[boundary.attr]
    return getattr(target, boundary.attr)


def test_every_boundary_resolves_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(SUITE))
    tracer_module = importlib.import_module("tracer")
    boundaries = tracer_module.BOUNDARIES
    assert len(boundaries) == 29
    originals = [_raw(boundary) for boundary in boundaries]
    tracer = tracer_module.Tracer().install()
    try:
        wrapped = [_raw(boundary) for boundary in boundaries]
    finally:
        tracer.uninstall()
    for boundary, raw, patched in zip(boundaries, originals, wrapped):
        assert patched is not raw, boundary.name
        assert _raw(boundary) is raw, boundary.name
