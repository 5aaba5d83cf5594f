"""The benchmark's contract with the program, checked without running it.

``perfbench/tracing.py`` wraps the layers it times by name (its
``TARGETS`` table) and the traced run dies on a name that no longer
resolves; ``perfbench/launch.py`` and ``perfbench/run.py`` import
``repro`` names directly, and ``run.py`` warms the page cache by
importing a list of modules in a subprocess that must succeed.  A
refactor that renames or moves any of them passes the rest of this
suite and still breaks the benchmark, so every such name is resolved
here -- without calling ``install`` or importing the benchmark
scripts' own dependencies.

The ``campaign`` workload also checks its results against a digest
that ``BENCHMARK.json`` records for seed 1; that digest is checked
here too, so a change to the model's output fails the suite rather
than only a benchmark run.
"""

import ast
import importlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    """A perfbench module, imported by path (the scripts are not a
    package)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Registered first: dataclasses resolve string annotations
    # through the defining module.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TARGETS = _load("tracing").TARGETS


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


def _warmed_modules():
    """The modules ``run.warm_page_cache`` imports in its subprocess,
    read from its ``import a, b, ...`` string."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(), filename="run.py")
    [warm] = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name == "warm_page_cache"
    ]
    [statement] = [
        node.value for node in ast.walk(warm)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("import ")
    ]
    return [
        name.strip()
        for name in statement[len("import "):].split(",")
    ]


@pytest.mark.parametrize("module_name", _warmed_modules())
def test_every_warmed_module_imports(module_name):
    """A warm-up import that fails stops every workload of the
    benchmark (the subprocess runs with ``check=True``)."""
    importlib.import_module(module_name)


def test_campaign_seed_1_matches_the_recorded_digest(tmp_path):
    """Drain the ``campaign`` workload's seed-1 spec as its campaign
    process does (serial runner, builtin scenarios swapped in) and
    compare the results digest with the one ``BENCHMARK.json``
    records."""
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.spec import CampaignSpec, sha256_text
    from repro.campaign.store import ResultStore
    from repro.dse.dsl import builtin_scenario

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    [why] = [w["why"] for w in bench["workloads"] if w["name"] == "campaign"]
    recorded = re.search(r"sha256 ([0-9a-f]{64})", why).group(1)

    payload = _load("workloads").campaign_payload(1)
    for key in ("dse_pareto", "dse_halving"):
        for task in payload[key]:
            task["scenario_json"] = builtin_scenario(
                task["scenario_json"]
            ).canonical()
    report = CampaignRunner(
        store=ResultStore(tmp_path / "store"), workers=1,
        executor="serial",
    ).run(CampaignSpec.from_payload(payload))
    assert report.ok
    assert sha256_text(report.results_json()) == recorded
