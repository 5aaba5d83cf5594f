"""Canonical JSON and content hashes, from the standard library only.

Campaign task hashes, result-store checksums, tensor-store manifests,
DSE scenario forms and request echoes all serialise through
:func:`canonical_json` and hash through :func:`sha256_text`.  They live
here rather than in :mod:`repro.campaign.spec` so that a module which
only needs the serialisation -- the result store, the tensor store,
the request schemas, the DSE layer -- imports them at module top and
loads no campaign code: ``materialize build`` and ``serve`` never load
the campaign spec, and :mod:`repro.dse` has no import cycle with it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from typing import Any, Dict, Tuple

__all__ = ["canonical_json", "flat_asdict", "sha256_text"]


@lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def flat_asdict(obj: Any) -> Dict[str, Any]:
    """``dataclasses.asdict`` for a dataclass whose fields are scalars
    or tuples of scalars (every task and request type): a dict of the
    fields, without ``asdict``'s recursive deep copy."""
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


def canonical_json(value: Any) -> str:
    """The canonical serialisation hashes and checksums are taken over.

    Sorted keys, no whitespace, ``repr``-shortest floats: byte-stable
    for any JSON-representable value across processes and runs.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def sha256_text(text: str) -> str:
    """SHA-256 hex digest of a text string (UTF-8)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
