"""The benchmark's contract with the program, checked without running it.

``perfbench/tracing.py`` wraps the layers it times by name (its
``TARGETS`` table) and the traced run dies on a name that no longer
resolves; ``perfbench/launch.py`` and ``perfbench/run.py`` import
``repro`` names directly.  A refactor that renames or moves any of
them passes the rest of this suite and still breaks the benchmark, so
every such name is resolved here -- without calling ``install`` or
importing the benchmark scripts' own dependencies.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracing().TARGETS


def _repro_imports(script):
    """``(module, name)`` for every ``repro`` import in ``script``;
    ``name`` is None for a plain ``import repro.x``."""
    tree = ast.parse((PERFBENCH / script).read_text(), filename=script)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "repro" or node.module.startswith("repro.")
        ):
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            )
    return found


@pytest.mark.parametrize(
    "module_name,attr_path",
    [(module, attr) for module, attr, _layer, _reader in TARGETS],
    ids=[f"{module}:{attr}" for module, attr, _layer, _reader in TARGETS],
)
def test_every_traced_target_resolves(module_name, attr_path):
    owner = importlib.import_module(module_name)
    *outer, name = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # ``install`` reads a method from the class's own namespace.
    target = owner.__dict__[name] if outer else getattr(owner, name)
    assert callable(target)


@pytest.mark.parametrize("script", ["launch.py", "run.py"])
def test_every_repro_import_resolves(script):
    imports = _repro_imports(script)
    assert imports, f"{script} imports nothing from repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"{module_name}.{name}"
