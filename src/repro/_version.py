"""Single-source package version.

``repro.__version__`` and ``pyproject.toml`` must never drift.  The
version is resolved in this order:

1. the ``version`` field of the ``pyproject.toml`` two directories up,
   which a source checkout (run via ``PYTHONPATH=src`` or installed
   in editable mode) has;
2. the installed distribution's metadata
   (:func:`importlib.metadata.version`), for a wheel, which has no
   pyproject there;
3. the hard-coded last-known version, if both fail (e.g. the package
   files were vendored without their pyproject).

The pyproject comes first because it is one small file read, while
importing :mod:`importlib.metadata` and searching for a distribution
costs every process tens of milliseconds.

The serving layer surfaces this value in ``GET /healthz`` and the CLI
in ``repro-hetsim --version``.
"""

from __future__ import annotations

import re
from pathlib import Path

__all__ = ["__version__", "detect_version"]

#: Last-resort fallback when neither metadata nor pyproject is readable.
_FALLBACK = "1.0.0"


def _from_metadata() -> "str | None":
    try:
        from importlib import metadata
    except ImportError:  # pragma: no cover - py3.8 vendored copies
        return None
    try:
        return metadata.version("repro")
    except metadata.PackageNotFoundError:
        return None


def _from_pyproject() -> "str | None":
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        text = pyproject.read_text(encoding="utf-8")
    except OSError:
        return None
    match = re.search(r'(?m)^version\s*=\s*"([^"]+)"', text)
    return match.group(1) if match else None


def detect_version() -> str:
    """Resolve the version: pyproject, then metadata, then fallback."""
    return _from_pyproject() or _from_metadata() or _FALLBACK


__version__ = detect_version()
