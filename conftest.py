"""Pytest root conftest: make the in-tree package importable without installation.

`pip install -e .` needs the `wheel` package, which is unavailable in fully
offline environments; `python setup.py develop` works there instead.  To keep
`pytest` runnable either way, the source directory is prepended to sys.path.

It also turns every `DeprecationWarning` into an error, so no code path
(and no test) can keep leaning on a deprecated API.
"""
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")
