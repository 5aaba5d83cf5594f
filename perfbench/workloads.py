"""Seeded inputs for the four benchmark workloads.

Everything here is a pure function of the workload seed: the same seed
yields the same request sequence (serving workloads) or the same
campaign spec payload (``campaign``); another seed yields different
ones drawn from the same distribution, so throughput is comparable
across seeds.  There is no production trace, so every mix below is an
assumption; ``BENCHMARK.json`` states each one with its reason.

The program sees only what these functions generate: request bytes on
the wire, or a campaign spec payload handed to the campaign process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

#: The paper's design lists, as the service names them (short labels).
DESIGNS: Dict[str, Tuple[str, ...]] = {
    "mmm": ("SymCMP", "AsymCMP", "LX760", "GTX285", "GTX480", "R5870",
            "ASIC"),
    "fft": ("SymCMP", "AsymCMP", "LX760", "GTX285", "GTX480", "ASIC"),
    "bs": ("SymCMP", "AsymCMP", "LX760", "GTX285", "ASIC"),
}
WORKLOADS: Tuple[str, ...] = ("mmm", "fft", "bs")
NODES: Tuple[int, ...] = (40, 32, 22, 16, 11)
R_MAXES: Tuple[int, ...] = tuple(range(1, 17))
#: The materialized f grid: every percent plus 0.999 (float64 nearest
#: each decimal, which is what the server's JSON parser produces).
F_GRID: Tuple[float, ...] = tuple(
    sorted({i / 100 for i in range(101)} | {0.999})
)

#: Endpoint mix shared by every serving workload.  Assumed: callers
#: mostly query one design point at a time, and ask for a node sweep
#: or the best design less often.
ENDPOINT_MIX: Tuple[Tuple[str, float], ...] = (
    ("/v1/speedup", 0.80),
    ("/v1/sweep", 0.10),
    ("/v1/optimize", 0.10),
)
#: Zipf exponent of key popularity on the materialized grid.  Assumed
#: skewed, as design-space sweeps revisit popular points; 1.2 gives ~11k
#: distinct keys per ~90k requests, about the reuse seen in a service
#: probe, so the working set outgrows the 4,096-entry transport byte
#: cache and first-seen entries keep setting the tail.
ZIPF_S = 1.2
#: Share of ``/v1/speedup`` requests at a near-grid f.  Assumed a
#: minority: enough to keep the store's interpolation path in the
#: measured phase, while exact grid points dominate.
NEAR_GRID_SHARE = 0.10
#: Near-grid keys drawn into the interpolation pool.
NEAR_GRID_POOL = 2048
#: Share of api-live requests drawn from a small repeating hot set.
#: Assumed a minority: the response LRU's hit path runs, while most
#: requests still reach the micro-batcher.
LIVE_REPEAT_SHARE = 0.10
#: Size of that hot set (well inside the 1,024-entry response LRU).
LIVE_HOT_KEYS = 64

_BLOCK = 4096


@dataclass(frozen=True)
class Request:
    """One generated request: its sequence index, route and body."""

    index: int
    path: str
    body: bytes


def encode_request(path: str, body: bytes) -> bytes:
    """The exact bytes a default keep-alive client sends (no request id)."""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _body(fields: Dict[str, object]) -> bytes:
    return json.dumps(fields, separators=(",", ":")).encode("utf-8")


def _zipf_cdf(n: int, s: float = ZIPF_S) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


class _KeySpace:
    """A seeded, Zipf-skewed draw over one endpoint's key universe."""

    def __init__(self, keys: List[Tuple], rng: np.random.Generator):
        self.keys = keys
        self.order = rng.permutation(len(keys))
        self.cdf = _zipf_cdf(len(keys))

    def draw(self, u: np.ndarray) -> np.ndarray:
        """Key indices for uniform draws ``u`` (hot keys most often)."""
        ranks = np.minimum(
            np.searchsorted(self.cdf, u), len(self.keys) - 1
        )
        return self.order[ranks]


def _speedup_keys() -> List[Tuple]:
    return [
        (w, d, node, f, r)
        for w in WORKLOADS
        for d in DESIGNS[w]
        for node in NODES
        for f in F_GRID
        for r in R_MAXES
    ]


def _sweep_keys() -> List[Tuple]:
    return [
        (w, d, f, r)
        for w in WORKLOADS
        for d in DESIGNS[w]
        for f in F_GRID
        for r in R_MAXES
    ]


def _optimize_keys() -> List[Tuple]:
    return [
        (w, node, f, r)
        for w in WORKLOADS
        for node in NODES
        for f in F_GRID
        for r in R_MAXES
    ]


def speedup_body(w: str, d: str, node: int, f: float, r: int) -> bytes:
    return _body(
        {"workload": w, "f": f, "design": d, "node_nm": node, "r_max": r}
    )


def sweep_body(w: str, d: str, f: float, r: int) -> bytes:
    return _body({"workload": w, "f": f, "design": d, "r_max": r})


def optimize_body(w: str, node: int, f: float, r: int) -> bytes:
    return _body({"workload": w, "f": f, "node_nm": node, "r_max": r})


_BODIES = {
    "/v1/speedup": speedup_body,
    "/v1/sweep": sweep_body,
    "/v1/optimize": optimize_body,
}


def near_grid_candidates(
    seed: int, count: int
) -> List[Tuple[str, str, int, float, int, int]]:
    """Seeded near-grid speedup keys ``(w, d, node, f, r_max, lo)``.

    ``f`` lies strictly between grid points ``F_GRID[lo]`` and
    ``F_GRID[lo + 1]`` (both below 0.99, so brackets are 0.01 wide),
    rounded to six decimals.
    """
    rng = np.random.default_rng([seed, 7])
    out = []
    while len(out) < count:
        w = WORKLOADS[rng.integers(len(WORKLOADS))]
        d = DESIGNS[w][rng.integers(len(DESIGNS[w]))]
        node = NODES[rng.integers(len(NODES))]
        r = int(R_MAXES[rng.integers(len(R_MAXES))])
        lo = int(rng.integers(0, 98))
        f = round(F_GRID[lo] + float(rng.uniform(0.1, 0.9)) * 0.01, 6)
        out.append((w, d, node, f, r, lo))
    return out


def interpolable(keys, optimal_r) -> List[Tuple]:
    """The near-grid keys whose two bracketing grid points agree on r.

    The materialized store interpolates only such brackets (any other
    near-grid request falls back to live compute), so the pool keeps
    exactly those.  ``optimal_r(w, d, node, f, r_max)`` is the scalar
    reference optimizer's r; it depends only on the paper's model.
    """
    kept = []
    for w, d, node, f, r, lo in keys:
        left = optimal_r(w, d, node, F_GRID[lo], r)
        right = optimal_r(w, d, node, F_GRID[lo + 1], r)
        if left == right:
            kept.append((w, d, node, f, r))
    return kept


def reference_optimal_r():
    """``optimal_r`` backed by the scalar reference optimizer (memoized)."""
    from repro.core.optimizer import optimize
    from repro.devices.bce import DEFAULT_BCE
    from repro.itrs.scenarios import get_scenario
    from repro.projection.designs import standard_designs
    from repro.projection.engine import node_budget

    scenario = get_scenario("baseline")
    memo: Dict[Tuple, int] = {}

    def optimal_r(w, d, node, f, r_max):
        key = (w, d, node, f, r_max)
        if key not in memo:
            fft_size = 1024 if w == "fft" else None
            design = {
                spec.short_label: spec
                for spec in standard_designs(w, fft_size)
            }[d]
            budget = node_budget(
                scenario.roadmap.node(node), w, fft_size, scenario,
                DEFAULT_BCE, design.bandwidth_exempt,
            )
            memo[key] = optimize(design.chip, f, budget, r_max).r
        return memo[key]

    return optimal_r


class OnGridStream:
    """The ``api-ongrid``/``fleet`` request sequence.

    Keys on the materialized grid, Zipf-skewed over a seeded
    permutation of each endpoint's universe; a minority of speedup
    requests sit at a near-grid f that the store interpolates.
    """

    def __init__(self, seed: int, near_grid: Optional[List[Tuple]] = None):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self._spaces = {
            "/v1/speedup": _KeySpace(_speedup_keys(), rng),
            "/v1/sweep": _KeySpace(_sweep_keys(), rng),
            "/v1/optimize": _KeySpace(_optimize_keys(), rng),
        }
        self._near = (
            _KeySpace(near_grid, rng) if near_grid else None
        )
        self._rng = np.random.default_rng([seed, 2])

    def __iter__(self) -> Iterator[Request]:
        index = 0
        paths = [p for p, _ in ENDPOINT_MIX]
        weights = np.array([w for _, w in ENDPOINT_MIX])
        spaces = [self._spaces[p] for p in paths]
        while True:
            route = self._rng.choice(len(paths), size=_BLOCK, p=weights)
            u = self._rng.random(_BLOCK)
            near = self._rng.random(_BLOCK) < NEAR_GRID_SHARE
            drawn = [space.draw(u) for space in spaces]
            near_drawn = (
                self._near.draw(u) if self._near is not None else None
            )
            for k in range(_BLOCK):
                which = route[k]
                path = paths[which]
                if which == 0 and near[k] and near_drawn is not None:
                    key = self._near.keys[near_drawn[k]]
                else:
                    key = spaces[which].keys[drawn[which][k]]
                yield Request(index, path, _BODIES[path](*key))
                index += 1


class LiveStream:
    """The ``api-live`` request sequence: f off the 0.01 grid.

    Most keys are new to the 1,024-entry response LRU; a stated
    minority repeat from a small hot set.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = np.random.default_rng([seed, 3])
        self._hot = [self._fresh() for _ in range(LIVE_HOT_KEYS)]

    def _fresh(self) -> Tuple[str, bytes]:
        rng = self._rng
        path = ENDPOINT_MIX[
            rng.choice(len(ENDPOINT_MIX), p=[w for _, w in ENDPOINT_MIX])
        ][0]
        w = WORKLOADS[rng.integers(len(WORKLOADS))]
        d = DESIGNS[w][rng.integers(len(DESIGNS[w]))]
        node = NODES[rng.integers(len(NODES))]
        r = int(R_MAXES[rng.integers(len(R_MAXES))])
        while True:
            f = round(float(rng.uniform(0.5, 0.999)), 6)
            if f not in F_GRID:
                break
        if path == "/v1/speedup":
            return path, speedup_body(w, d, node, f, r)
        if path == "/v1/sweep":
            return path, sweep_body(w, d, f, r)
        return path, optimize_body(w, node, f, r)

    def __iter__(self) -> Iterator[Request]:
        index = 0
        while True:
            if self._rng.random() < LIVE_REPEAT_SHARE:
                path, body = self._hot[self._rng.integers(LIVE_HOT_KEYS)]
            else:
                path, body = self._fresh()
            yield Request(index, path, body)
            index += 1


# -- campaign ------------------------------------------------------------

#: Sensitivity tasks: three workloads at every node, Monte-Carlo trials
#: per task.  With the DSE tasks below, two traced runs of seed 1
#: measured sensitivity (its own self time plus the grid kernel's) at
#: 54-56% of the pass and DSE (engine plus halving) at 31-33%, so a gain
#: in either shows; the traced run prints these shares.  A pass takes about 2 s
#: on a 2-vCPU host, so each drain time averages over the host's
#: second-scale speed swings.
SENSITIVITY_NODES: Tuple[int, ...] = NODES
SENSITIVITY_TRIALS = 120
SENSITIVITY_F: Tuple[float, ...] = (0.9, 0.95, 0.99, 0.999)
PARETO_SHARDS = 5
PARETO_GRID: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
HALVING_GRID: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
#: The builtin DSE scenario every DSE task explores.
DSE_SCENARIO = "baseline"


def campaign_payload(seed: int) -> Dict[str, object]:
    """The campaign spec, as a ``CampaignSpec.payload()``-shaped dict.

    ``scenario_json`` fields carry the builtin scenario *name*; the
    campaign process swaps in that scenario's canonical JSON.  The
    seed picks each sensitivity task's f and Monte-Carlo seed; task
    counts and sizes are fixed, so a pass costs the same on any seed.
    """
    rng = np.random.default_rng([seed, 4])
    sensitivity = []
    for workload in WORKLOADS:
        for node in SENSITIVITY_NODES:
            sensitivity.append(
                {
                    "workload": workload,
                    "fft_size": 1024 if workload == "fft" else None,
                    "node_nm": node,
                    "f": SENSITIVITY_F[rng.integers(len(SENSITIVITY_F))],
                    "trials": SENSITIVITY_TRIALS,
                    "seed": int(rng.integers(1, 2**31)),
                }
            )
    dse_pareto = [
        {
            "scenario_json": DSE_SCENARIO,
            "area_scale_grid": list(PARETO_GRID),
            "power_scale_grid": list(PARETO_GRID),
            "shard": shard,
            "shards": PARETO_SHARDS,
        }
        for shard in range(PARETO_SHARDS)
    ]
    dse_halving = [
        {
            "scenario_json": DSE_SCENARIO,
            "area_scale_grid": list(HALVING_GRID),
            "power_scale_grid": list(HALVING_GRID),
        }
    ]
    return {
        "name": f"perfbench-{seed}",
        "sensitivity": sensitivity,
        "dse_pareto": dse_pareto,
        "dse_halving": dse_halving,
    }
