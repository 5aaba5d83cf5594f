"""Smoke tests for the top-level public API surface."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        listed = dir(repro)
        for name in repro.__all__:
            assert hasattr(repro, name), name
            assert name in listed, name

    @pytest.mark.parametrize("module", [
        "repro.core", "repro.devices", "repro.workloads",
        "repro.measure", "repro.itrs", "repro.projection",
        "repro.reporting", "repro.cli", "repro.units", "repro.errors",
        "repro.layout", "repro.sim", "repro.perf", "repro.service",
        "repro.campaign", "repro.dse", "repro.obs", "repro.cluster",
        "repro.archmodels", "repro.hls",
    ])
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        listed = dir(mod)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"
            assert name in listed, f"{module}.{name}"

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.core.no_such_name


#: Modules neither ``materialize build`` nor single-process ``serve``
#: runs; a process that loads one pays start-up for nothing.  Neither
#: runs a process pool, so neither loads ``multiprocessing``.
UNUSED_BY_SERVING = (
    "repro.reporting", "repro.layout", "repro.measure",
    "repro.archmodels", "repro.sim", "repro.hls", "repro.dse",
    "repro.cluster", "repro.obs.regress", "repro.obs.profdiff",
    "repro.service.watch", "multiprocessing",
    "concurrent.futures.process",
)

#: The Prometheus families a fresh ``serve`` exposes at its first
#: scrape, before any model request: what its modules register at
#: import time plus the service's own.
BOOT_FAMILIES = [
    "repro_campaign_store_events_total",
    "repro_dse_requests_total",
    "repro_perf_cache_caches",
    "repro_perf_cache_entries",
    "repro_perf_cache_hits",
    "repro_perf_cache_misses",
    "repro_profile_samples_total",
    "repro_service_batch_dispatches_total",
    "repro_service_batched_items_total",
    "repro_service_jobs_total",
    "repro_service_max_batch_items",
    "repro_service_request_seconds",
    "repro_service_requests_total",
    "repro_service_response_cache_total",
    "repro_service_uptime_seconds",
    "repro_slo_burn_rate",
    "repro_slo_error_budget_remaining",
    "repro_slo_events_total",
    "repro_slo_status",
    "repro_stream_events_total",
    "repro_stream_events_trimmed_total",
    "repro_tensorstore_build_age_seconds",
    "repro_tensorstore_requests_total",
]

_BUILD = """
import json, sys
from repro.cli import main
assert main(["materialize", "build", "--dir", sys.argv[1]]) == 0
print(json.dumps({"modules": sorted(sys.modules)}))
"""

# What ``repro-hetsim serve`` imports, then one request per endpoint
# family on and off the store's grid.
_SERVE = """
import asyncio, json, sys
from repro.cli import build_parser
from repro.service.app import ModelService, ServiceConfig
from repro.service.http import run_server

build_parser()
REQUESTS = [
    ("/v1/speedup", {"workload": "fft", "f": 0.99, "design": "ASIC",
                     "node_nm": 22}),
    ("/v1/speedup", {"workload": "mmm", "f": 0.987654,
                     "design": "GTX285", "node_nm": 16}),
    ("/v1/sweep", {"workload": "bs", "f": 0.9, "design": "LX760"}),
    ("/v1/optimize", {"workload": "mmm", "f": 0.99, "node_nm": 11}),
]

async def main():
    service = ModelService(ServiceConfig(tensor_dir=sys.argv[1]))
    try:
        _, boot = await service.handle("GET", "/metrics?format=prom")
        for path, body in REQUESTS:
            status, payload = await service.handle(
                "POST", path, json.dumps(body).encode()
            )
            assert status == 200, (path, payload)
    finally:
        service.close()
    return boot

boot = asyncio.run(main())
print(json.dumps({
    "modules": sorted(sys.modules),
    "families": sorted(
        line.split()[2] for line in boot.splitlines()
        if line.startswith("# TYPE ")
    ),
}))
"""


def _probe(script, *args):
    env = dict(os.environ)
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src")
    )
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _unused(modules):
    return sorted(
        name for name in modules
        if any(name == unused or name.startswith(unused + ".")
               for unused in UNUSED_BY_SERVING)
    )


class TestStartupImports:
    """A process imports what its command runs: the package
    ``__init__``s resolve re-exports on first use, and the CLI imports
    each command's modules inside that command."""

    def test_build_and_serve_load_no_unused_module(self, tmp_path):
        built = _probe(_BUILD, tmp_path / "tensors")
        assert _unused(built["modules"]) == []
        # A build runs no event loop, so it pays for no asyncio.
        assert "asyncio" not in built["modules"]
        served = _probe(_SERVE, tmp_path / "tensors")
        assert _unused(served["modules"]) == []
        assert served["families"] == BOOT_FAMILIES


class TestQuickstartFlow:
    def test_readme_quickstart(self):
        """The exact flow documented in the package docstring."""
        asic = repro.ucore_for("ASIC", "fft", 1024)
        chip = repro.HeterogeneousChip(asic)
        budget = repro.Budget(area=19, power=10, bandwidth=42)
        best = repro.optimize(chip, f=0.99, budget=budget)
        assert best.speedup > 30
        assert best.limiter is repro.LimitingFactor.BANDWIDTH
        assert "ASIC" in best.describe()

    def test_projection_flow(self):
        result = repro.project("mmm", 0.99)
        assert result.winner().design.short_label == "ASIC"

    def test_error_hierarchy(self):
        assert issubclass(repro.ModelError, repro.ReproError)
        assert issubclass(repro.CalibrationError, repro.ReproError)
        assert issubclass(repro.InfeasibleDesignError, repro.ReproError)
        assert issubclass(repro.UnknownDeviceError, KeyError)
