"""The materialized tensor store: build, verify, lookup, interpolate.

The contract under test is the serving fast path's foundation:

* exact grid hits are **bit-identical** to a live
  :func:`~repro.perf.batch.optimize_batch` call (every channel,
  including non-finite bounds);
* harmonic interpolation between bracketing ``f`` grid points stays
  within the documented :data:`~repro.perf.tensorstore.REL_ERROR_BOUND`
  and is refused (``miss``) whenever it could be wrong -- infeasible
  corners, brackets that disagree on the optimal ``r``, anything
  outside the materialized range (the store never extrapolates);
* integrity: a corrupted channel file or tampered manifest raises
  :class:`~repro.errors.TensorStoreError` at load/verify time, and the
  atomic-rename publish means a store without its manifest does not
  exist.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

from repro.errors import TensorStoreError
from repro.perf.batch import optimize_batch
from repro.perf.tensorstore import (
    MANIFEST_NAME,
    REL_ERROR_BOUND,
    TensorStore,
    build_tensor_store,
    materialize_spec,
)
from repro.itrs.scenarios import get_scenario
from repro.projection.designs import standard_designs
from repro.projection.engine import node_budget

#: Small but representative grids keep the module-scoped build fast.
F_GRID = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)
R_GRID = tuple(range(1, 17))
WORKLOADS = (("mmm", None), ("bs", None))


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tensors")
    build_tensor_store(
        directory,
        spec=materialize_spec(workloads=WORKLOADS, f_grid=F_GRID,
                              r_grid=R_GRID),
    )
    return directory


@pytest.fixture(scope="module")
def store(store_dir):
    return TensorStore.load(store_dir)


def _live_point(workload, design_label, node_nm, f, r_max):
    scenario = get_scenario("baseline")
    design = next(
        d for d in standard_designs(workload, None)
        if d.short_label == design_label
    )
    node = next(
        n for n in scenario.roadmap.nodes if n.node_nm == node_nm
    )
    budget = node_budget(
        node, workload, None, scenario,
        bandwidth_exempt=design.bandwidth_exempt,
    )
    [point] = optimize_batch(design.chip, f, [budget], r_max=r_max)
    return point


class TestBuildAndLoad:
    def test_manifest_is_checksummed_and_described(self, store):
        described = store.describe()
        assert described["groups"] == len(WORKLOADS)
        assert described["f_points"] == len(F_GRID)
        assert described["r_max"] == len(R_GRID)
        assert described["cells"] > 0
        assert store.verify()["status"] == "ok"

    def test_missing_manifest_means_no_store(self, tmp_path):
        with pytest.raises(TensorStoreError, match="no tensor store"):
            TensorStore.load(tmp_path)

    def test_corrupted_channel_fails_checksum(self, store_dir,
                                              tmp_path):
        copy = tmp_path / "corrupt"
        shutil.copytree(store_dir, copy)
        victim = next(copy.glob("*speedup*.f64"))
        blob = bytearray(victim.read_bytes())
        blob[64] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(TensorStoreError, match="checksum"):
            TensorStore.load(copy)

    def test_truncated_channel_fails_on_size(self, store_dir,
                                             tmp_path):
        copy = tmp_path / "truncated"
        shutil.copytree(store_dir, copy)
        victim = next(copy.glob("*.f64"))
        victim.write_bytes(victim.read_bytes()[:-8])
        # Size is checked even with verify=False -- cheap and load-
        # bearing, since memmap would otherwise fail or alias.
        with pytest.raises(TensorStoreError, match="bytes"):
            TensorStore.load(copy, verify=False)

    def test_tampered_manifest_fails_self_checksum(self, store_dir,
                                                   tmp_path):
        copy = tmp_path / "tampered"
        shutil.copytree(store_dir, copy)
        path = copy / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["f_grid"][0] = 0.001
        path.write_text(json.dumps(manifest))
        with pytest.raises(TensorStoreError, match="self-checksum"):
            TensorStore.load(copy)

    def test_foreign_model_version_rejected(self, store_dir, tmp_path):
        from repro.campaign.spec import canonical_json, sha256_text

        copy = tmp_path / "foreign"
        shutil.copytree(store_dir, copy)
        path = copy / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["envelope"]["model_version"] = "0.0.1"
        body = {k: v for k, v in manifest.items() if k != "checksum"}
        manifest["checksum"] = sha256_text(canonical_json(body))
        path.write_text(json.dumps(manifest))
        with pytest.raises(TensorStoreError, match="model version"):
            TensorStore.load(copy)

    def test_empty_workload_set_rejected(self, tmp_path):
        from repro.errors import ModelError

        with pytest.raises(ModelError, match="empty campaign"):
            materialize_spec(workloads=())


class TestExactLookup:
    @pytest.mark.parametrize("workload", ("mmm", "bs"))
    @pytest.mark.parametrize("f", F_GRID)
    def test_hits_are_bit_identical_to_live(self, store, workload, f):
        scenario = get_scenario("baseline")
        for design in standard_designs(workload, None):
            for node in scenario.roadmap.nodes:
                for r_max in (1, 7, 16):
                    cell = store.lookup(
                        "baseline", workload, None,
                        design.short_label, node.node_nm, f, r_max,
                    )
                    assert cell.outcome == "hit"
                    live = _live_point(
                        workload, design.short_label, node.node_nm,
                        f, r_max,
                    )
                    if live is None:
                        assert not cell.feasible
                        continue
                    assert cell.feasible
                    assert cell.values["r"] == live.r
                    assert cell.values["n"] == live.n
                    assert cell.values["speedup"] == live.speedup
                    assert cell.values["n_area"] == live.bounds.n_area
                    assert (
                        cell.values["n_power"] == live.bounds.n_power
                    )
                    assert (
                        cell.values["n_bandwidth"]
                        == live.bounds.n_bandwidth
                    )

    def test_bandwidth_exempt_inf_survives_round_trip(self, store):
        cell = store.lookup(
            "baseline", "mmm", None, "ASIC", 40, 0.99, 16
        )
        assert cell.outcome == "hit" and cell.feasible
        assert math.isinf(cell.values["n_bandwidth"])

    def test_unknown_names_miss(self, store):
        assert store.lookup(
            "baseline", "fft", 1024, "ASIC", 40, 0.5, 16
        ).outcome == "miss"  # workload group not materialized
        assert store.lookup(
            "baseline", "mmm", None, "NotADesign", 40, 0.5, 16
        ).outcome == "miss"
        assert store.lookup(
            "baseline", "mmm", None, "ASIC", 13, 0.5, 16
        ).outcome == "miss"  # node not on the roadmap
        assert store.lookup(
            "dark-silicon", "mmm", None, "ASIC", 40, 0.5, 16
        ).outcome == "miss"  # scenario not materialized

    def test_r_max_outside_grid_misses(self, store):
        assert store.lookup(
            "baseline", "mmm", None, "ASIC", 40, 0.5, 0
        ).outcome == "miss"
        assert store.lookup(
            "baseline", "mmm", None, "ASIC", 40, 0.5, 17
        ).outcome == "miss"


class TestInterpolation:
    def test_boundary_f_values_are_exact_hits(self, store):
        for f in (F_GRID[0], F_GRID[-1]):
            cell = store.lookup(
                "baseline", "mmm", None, "SymCMP", 40, f, 16
            )
            assert cell.outcome == "hit"
            assert cell.interpolation is None

    @pytest.mark.parametrize("f", (0.3, 0.62, 0.93, 0.995))
    @pytest.mark.parametrize("r_max", (1, 16))
    def test_interp_within_documented_bound(self, store, f, r_max):
        """Off-grid f: when the store answers, r/n/bounds are exact
        and the speedup is within REL_ERROR_BOUND of live compute."""
        answered = 0
        for design in ("SymCMP", "GTX480", "ASIC"):
            cell = store.lookup(
                "baseline", "mmm", None, design, 22, f, r_max
            )
            if cell.outcome == "miss":
                # Legal refusal (bracket disagreement/infeasibility);
                # the serving layer falls back to live compute.
                assert cell.reason
                continue
            assert cell.outcome == "interp"
            answered += 1
            live = _live_point("mmm", design, 22, f, r_max)
            assert live is not None
            assert cell.values["r"] == live.r
            assert cell.values["n"] == live.n
            assert cell.values["n_area"] == live.bounds.n_area
            rel = abs(cell.values["speedup"] - live.speedup) / (
                live.speedup
            )
            assert rel <= REL_ERROR_BOUND
            interp = cell.interpolation
            assert interp["kind"] == "harmonic-f"
            f0, f1 = interp["f_bracket"]
            assert f0 < f < f1
            assert interp["rel_error_bound"] == REL_ERROR_BOUND
        assert answered, f"every lookup refused at f={f}"

    def test_disagreeing_brackets_refuse(self, store):
        """Somewhere in (0, 1) the optimal r switches between grid
        points; the store must refuse rather than blend regimes."""
        reasons = set()
        for design in ("SymCMP", "AsymCMP", "GTX480"):
            for f in (0.3, 0.62, 0.8, 0.93):
                cell = store.lookup(
                    "baseline", "mmm", None, design, 40, f, 16
                )
                if cell.outcome == "miss":
                    reasons.add(cell.reason)
        assert "bracketing grid points disagree on r" in reasons

    def test_never_extrapolates_outside_hull(self, tmp_path):
        """A store materialized over [0.4, 0.6] refuses f outside it
        -- fall back, never extrapolate."""
        directory = tmp_path / "narrow"
        build_tensor_store(
            directory,
            spec=materialize_spec(
                workloads=(("mmm", None),),
                f_grid=(0.4, 0.5, 0.6),
                r_grid=R_GRID,
            ),
        )
        narrow = TensorStore.load(directory)
        for f in (0.1, 0.39, 0.61, 0.99):
            cell = narrow.lookup(
                "baseline", "mmm", None, "SymCMP", 40, f, 16
            )
            assert cell.outcome == "miss"
            assert cell.reason == "f outside materialized range"
        assert narrow.lookup(
            "baseline", "mmm", None, "SymCMP", 40, 0.45, 16
        ).outcome == "interp"

    def test_non_finite_f_refused(self, store):
        for f in (float("nan"), float("inf"), float("-inf")):
            cell = store.lookup(
                "baseline", "mmm", None, "ASIC", 40, f, 16
            )
            assert cell.outcome == "miss"
            assert cell.reason == "non-finite f"


#: sha256 of every channel file of the default build (the full paper
#: grid: 3 groups x 7 channels).  Serving maps these bytes, so any
#: change to them is a change to the model's answers.
PINNED_DEFAULT_CHANNELS = {
    "baseline-bs-feasible-7a9d8897.f64":
        "7a9d8897f4a98310092b8f47662b05f605cf9bfea67731fca68da7ca752a93d9",
    "baseline-bs-n-c5509ca3.f64":
        "c5509ca32be91f7c5d26c2ddbef7bcce9401b3a5692302b0109e5d3038d5e7cf",
    "baseline-bs-n_area-a684d245.f64":
        "a684d245d0b6d7c3dd6d8f1cea391b5cd5e6833ffbae82598539f9dde8e489c6",
    "baseline-bs-n_bandwidth-5440a064.f64":
        "5440a064bf6bdf4336ca852002ac0e4160bfc883b7f9d3ba8f4a9f73db847b9a",
    "baseline-bs-n_power-8ae888be.f64":
        "8ae888be4a22d56c781854aa154d312fabf1227a2b7ad831c0d0cc9655b5fd79",
    "baseline-bs-r-b468d9f4.f64":
        "b468d9f427b8ca0c77a8f883c2421f225be4dcb53171efcad1bf7179e300290a",
    "baseline-bs-speedup-0c696fa8.f64":
        "0c696fa8fe518108516c632af4f98f8776c630d748bda82f9dcda8a22321b2be",
    "baseline-fft-1024-feasible-50aac593.f64":
        "50aac59398d7cc45472ce401333335befe1ff7562a783cd5e4576fdd24ec8677",
    "baseline-fft-1024-n-842286b6.f64":
        "842286b6948c89dd7598bd0ae76b3a86afba3a421a0e27219c9360922cea623c",
    "baseline-fft-1024-n_area-e21fded6.f64":
        "e21fded645da24dbf4296e4a15435142300d2ef9c70989bef733948b915cb0bb",
    "baseline-fft-1024-n_bandwidth-e3f7e8f2.f64":
        "e3f7e8f25445668f5151b8f17c306f43a413cc170708c69fc6fff5b0be225884",
    "baseline-fft-1024-n_power-8a2233af.f64":
        "8a2233af51b92689df03a24530dd7cc01521bc06e9f9eb3dba5e69a1e9d005e3",
    "baseline-fft-1024-r-3a39ecec.f64":
        "3a39ececa76ae9f269a7c7c1cdfa76bdddbe8d7e3cd52d7b959d98248995c882",
    "baseline-fft-1024-speedup-b763bb0b.f64":
        "b763bb0bbe1640c0c23cf1bfdc3b8c87de5825464aa390d883686408b40e9e8b",
    "baseline-mmm-feasible-f8346cc7.f64":
        "f8346cc7c6739c38018fa15e44607022c5cbc42a26a0799d764838a1a3bd53ba",
    "baseline-mmm-n-b0ca6228.f64":
        "b0ca62280c6de770fdf4b5d21530dbba2970ac5cec089f175eb973604e624e5e",
    "baseline-mmm-n_area-93500cc4.f64":
        "93500cc48030ae60ed11db8ddffb908c9afe8627e3175efe391029760be8d6f3",
    "baseline-mmm-n_bandwidth-2a256d6c.f64":
        "2a256d6c824e46d89430a2474d5ea68fdb103c0dc059caf6dc644e831802ef0f",
    "baseline-mmm-n_power-8c91318c.f64":
        "8c91318c6490a613bcfbd9f64ea8868cc1ee48a803c67e1642c55920d6f99a3f",
    "baseline-mmm-r-97e1c5e3.f64":
        "97e1c5e3edbdfe7296d16ff3ba4915b765d5f231893fd8bed18ffdb3c582d584",
    "baseline-mmm-speedup-03d01a27.f64":
        "03d01a272fe398abcfa539a741f8319779c84cf50531855687a7f64f8db2abf9",
}


def _channel_digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in directory.glob("*.f64")
    }


def _leftover_stores(tmp):
    return sorted(path.name for path in tmp.glob("repro-campaign-*"))


class TestDefaultBuild:
    def test_default_build_is_pinned(self, tmp_path):
        directory = tmp_path / "tensors"
        build_tensor_store(directory)
        assert _channel_digests(directory) == PINNED_DEFAULT_CHANNELS

    def test_parent_format_results_are_misses(self, tmp_path):
        """A result store holding the per-cell ``planes`` payloads an
        earlier build wrote, under that build's task hashes (the
        task's fields without ``encoding``), resumes into the pinned
        bytes: those entries are never read."""
        from repro.campaign.spec import (
            canonical_json,
            flat_asdict,
            sha256_text,
        )
        from repro.campaign.store import ResultStore

        spec = materialize_spec()
        store = ResultStore(tmp_path / "results")
        for task in spec.tasks():
            fields = flat_asdict(task)
            del fields["encoding"]
            store.put(
                sha256_text(canonical_json(fields)),
                {
                    "kind": "materialize",
                    "task": fields,
                    "nodes": [],
                    "planes": [[[None]] * len(task.r_grid)]
                    * len(task.f_grid),
                },
            )
        directory = tmp_path / "tensors"
        build_tensor_store(directory, spec=spec, store=store, resume=True)
        assert _channel_digests(directory) == PINNED_DEFAULT_CHANNELS
        assert store.stats().hits == 0
        assert len(store) == 2 * len(spec.tasks())

    def test_build_removes_its_ephemeral_store(self, tmp_path,
                                               monkeypatch):
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        build_tensor_store(
            tmp_path / "tensors",
            spec=materialize_spec(workloads=(("bs", None),),
                                  f_grid=(0.5, 0.99), r_grid=(1, 2)),
        )
        assert _leftover_stores(tmp) == []

    def test_cli_build_leaves_no_ephemeral_store(self, tmp_path):
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        env = dict(os.environ, TMPDIR=str(tmp))
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else ""
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "materialize", "build",
             "--dir", str(tmp_path / "tensors")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert "materialized 18 tasks" in done.stdout
        assert _leftover_stores(tmp) == []
