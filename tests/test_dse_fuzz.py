"""Property test (hypothesis) for the DSE scenario loader.

``DSEScenario.from_payload`` and ``parse_dse`` read untrusted JSON (a
scenario file, a ``POST /v1/dse`` body), and the service's JSON decoder
accepts ``NaN`` and ``Infinity``.  Validation must be eager and total:
any JSON-shaped input is either a scenario that serialises, round-trips
and expands into configs, or a ``ModelError`` (a 400 that names the
field), nothing else.  The property then runs the 1x1 grid's configs
through :func:`~repro.dse.engine.exhaustive_sweep`, as a ``/v1/dse``
job would, and allows only a ``ModelError`` there too: a budget that
underflows to zero is one, found only at expansion; a budget near the
float limit (``1e308``) must evaluate, its serial bound unbounded.
"""

import json
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.dse.dsl import BEST_SUBSTRATE, SUBSTRATES, DSEScenario
from repro.dse.engine import expand_configs, exhaustive_sweep
from repro.dse.providers import provider_names
from repro.errors import BadRequestError, ModelError
from repro.service.schemas import parse_dse

INF = math.inf

_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.sampled_from([0, 1, 2.0, -0.0, 0.99, 5e-324, 1e308, 10**400]),
)
_SCALAR = st.one_of(
    st.none(), st.booleans(), _NUMBER, st.text(max_size=6),
)
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=8,
)


def _either(plausible):
    """Mostly a plausible value for the field, sometimes any JSON."""
    return st.one_of(plausible, plausible, _JSON)


_SEGMENT = st.fixed_dictionaries(
    {},
    optional={
        "name": _either(st.text(min_size=1, max_size=4)),
        "weight": _either(_NUMBER),
        "device": _either(st.sampled_from(SUBSTRATES + (BEST_SUBSTRATE,))),
    },
)
_CHIP = st.fixed_dictionaries(
    {},
    optional={
        "kind": _either(st.sampled_from(["single", "multi"])),
        "device": _either(st.sampled_from(SUBSTRATES)),
        "segments": _either(st.lists(_either(_SEGMENT), max_size=3)),
    },
)
_SCENARIO = st.fixed_dictionaries(
    {"name": _either(st.text(min_size=1, max_size=4))},
    optional={
        "description": _either(st.text(max_size=4)),
        "workload": _either(st.sampled_from(["mmm", "fft", "bs"])),
        "fft_size": _either(st.sampled_from([64, 1024, 16384])),
        "bandwidth_gbps_at_start": _either(_NUMBER),
        "power_budget_w": _either(_NUMBER),
        "area_factor": _either(_NUMBER),
        "alpha": _either(_NUMBER),
        "provider": _either(st.sampled_from(provider_names())),
        "f_values": _either(st.lists(_NUMBER, max_size=3)),
        "chips": _either(st.lists(_either(_CHIP), max_size=2)),
    },
)


def _multi(*weights):
    segments = [
        {"name": f"k{i}", "weight": w} for i, w in enumerate(weights)
    ]
    return {"name": "x", "chips": [{"kind": "multi", "segments": segments}]}


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(_SCENARIO, _JSON))
@example({"name": "x", "alpha": INF})
@example({"name": "x", "area_factor": INF})
@example({"name": "x", "bandwidth_gbps_at_start": INF})
@example({"name": "x", "power_budget_w": INF})
@example({"name": "x", "description": ["a"]})
@example({"name": "x", "workload": "fft"})
@example({"name": "x", "workload": "fft", "fft_size": 100})
@example({"name": "x", "workload": "bs"})
@example({**_multi(1), "workload": "bs"})
@example(_multi(INF))
@example(_multi(1e308, 1e308))
@example(_multi(5e-324, 1))
@example({"name": "x", "power_budget_w": 5e-324})
@example({"name": "x", "power_budget_w": 1e308})
@example({"name": "x", "bandwidth_gbps_at_start": 1e308})
def test_any_json_is_a_scenario_or_a_model_error(payload):
    try:
        scenario = DSEScenario.from_payload(payload)
    except ModelError:
        scenario = None
    try:
        spec = parse_dse({"scenario": payload})
    except BadRequestError:
        spec = None
    if isinstance(payload, dict):
        # An inline object is accepted exactly when the DSL accepts it.
        assert (spec is None) == (scenario is None)
    if scenario is None:
        return
    text = scenario.canonical()
    assert DSEScenario.from_payload(scenario.payload()) == scenario
    assert DSEScenario.from_payload(json.loads(text)) == scenario
    try:
        exhaustive_sweep(expand_configs(scenario, (1.0,), (1.0,)))
    except ModelError:
        pass
