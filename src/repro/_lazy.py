"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that imports every submodule makes each process
pay for all of them: ``repro-hetsim materialize build`` and ``serve``
would load the reporting, layout, measurement, simulation and DSE code
they never run.  Each ``__init__`` instead hands :func:`lazy_exports` a
table of what it re-exports from which submodule, the one place a
re-export is declared.  ``package.Name``, ``from package import Name``
and ``from package import *`` then import the owning submodule when a
name is first read, and ``dir(package)`` and ``__all__`` list every
name before any is loaded.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: Dict[str, Any],
    exports: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """A package's module-level ``__getattr__``, ``__dir__`` and
    ``__all__``.

    ``namespace`` is the package's ``globals()``.  ``exports`` maps a
    submodule, relative to the package, to the names the package
    re-exports from it; ``submodules`` lists submodules that are
    exports themselves.  ``__all__`` is the submodules, then the
    re-exported names in table order.  A resolved name is stored in
    ``namespace``, so each is looked up once.

    A re-export named like its own submodule (``repro.service.watch``)
    reads as that submodule once it has been imported directly, since
    the import binds the package attribute before any lookup.
    """
    package = namespace["__name__"]
    targets: Dict[str, Tuple[str, str | None]] = {
        name: (name, None) for name in submodules
    }
    for module, names in exports.items():
        targets.update((name, (module, name)) for name in names)

    def __getattr__(name: str) -> Any:
        try:
            module, attribute = targets[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = import_module(f".{module}", package)
        if attribute is not None:
            value = getattr(value, attribute)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(targets))

    return __getattr__, __dir__, list(targets)
