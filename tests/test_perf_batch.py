"""Differential tests: the batched sweep must match the scalar one.

Bit-for-bit equality is the contract -- every ``DesignPoint`` field,
including the floats, compared with ``==`` (no tolerance).  The grid
covers all standard designs, every roadmap node of every scenario the
paper studies, and the paper's f values; infeasible cells must map a
scalar ``InfeasibleDesignError`` (or exhausted candidate list) to a
batch ``None``.  A hypothesis property extends the same check to
random budgets far off the calibrated grid.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.chip import (
    AsymmetricCMP,
    AsymmetricOffloadCMP,
    DynamicCMP,
    HeterogeneousAssistedChip,
    HeterogeneousChip,
    SymmetricCMP,
)
from repro.core.constraints import Budget
from repro.core.multicore import MultiUCoreChip, WorkloadSegment
from repro.core.optimizer import DEFAULT_R_MAX, optimize, sweep_designs
from repro.core.ucore import UCore
from repro.errors import InfeasibleDesignError, ModelError
from repro.itrs.scenarios import get_scenario, scenario_names
from repro.perf.batch import (
    GridRows,
    PrefixOptima,
    _prefix_argmax,
    best_speedups,
    bound_grid,
    optimize_batch,
    optimize_prefix_batch,
    sweep_designs_batch,
)
from repro.projection.designs import standard_designs
from repro.projection.engine import node_budget

WORKLOADS = (("fft", 1024), ("mmm", None), ("bs", None))
F_VALUES = (0.0, 0.5, 0.9, 0.99, 0.999, 1.0)


def _all_chips():
    """One instance of every chip model, including U-core variants."""
    gpu = UCore(name="gpu-like", mu=3.0, phi=0.6, kind="gpu")
    asic = UCore(name="asic-like", mu=500.0, phi=5.0, kind="asic")
    return [
        SymmetricCMP(),
        AsymmetricCMP(),
        AsymmetricOffloadCMP(),
        DynamicCMP(),
        HeterogeneousChip(gpu),
        HeterogeneousChip(asic),
        HeterogeneousAssistedChip(gpu),
    ]


def _scalar_optimize(chip, f, budget, r_max=DEFAULT_R_MAX):
    """Scalar optimize with infeasibility mapped to None (batch's
    convention)."""
    try:
        return optimize(chip, f, budget, r_max)
    except InfeasibleDesignError:
        return None


class TestOptimizeBatchMatchesScalar:
    @pytest.mark.parametrize("scenario_name", scenario_names())
    @pytest.mark.parametrize("workload,size", WORKLOADS)
    @pytest.mark.parametrize("f", (0.5, 0.99, 0.999))
    def test_paper_grid(self, scenario_name, workload, size, f):
        """Every standard design at every node, full point equality."""
        scenario = get_scenario(scenario_name)
        for design in standard_designs(workload, size):
            budgets = [
                node_budget(
                    node, workload, size, scenario,
                    bandwidth_exempt=design.bandwidth_exempt,
                )
                for node in scenario.roadmap.nodes
            ]
            batch = optimize_batch(design.chip, f, budgets)
            scalar = [
                _scalar_optimize(design.chip, f, b) for b in budgets
            ]
            assert batch == scalar

    def test_infeasible_budgets_map_to_none(self):
        """Cells where the scalar path raises must come back as None,
        without aborting the feasible cells around them."""
        chip = HeterogeneousChip(
            UCore(name="gpu-like", mu=3.0, phi=0.6, kind="gpu")
        )
        budgets = [
            Budget(area=19.0, power=10.0, bandwidth=42.0),  # feasible
            Budget(area=100.0, power=0.5),  # serial power forbids r=1
            Budget(area=1.0, power=1e9),  # no room for any U-core
            Budget(area=100.0, power=1e9, bandwidth=0.2),  # serial bw
        ]
        points = optimize_batch(chip, 0.99, budgets)
        assert points[0] is not None
        assert points[1] is None
        assert points[2] is None
        assert points[3] is None
        assert points == [
            _scalar_optimize(chip, 0.99, b) for b in budgets
        ]

    @pytest.mark.parametrize("f", F_VALUES)
    def test_edge_fractions_all_models(self, f, basic_budget,
                                       roomy_budget):
        for chip in _all_chips():
            for budget in (basic_budget, roomy_budget):
                assert optimize_batch(chip, f, [budget]) == [
                    _scalar_optimize(chip, f, budget)
                ]

    def test_infinite_speedup_point_survives(self):
        """f=1 with a huge budget: speedup=inf is a result, not None."""
        budget = Budget(area=1e6, power=1e6, bandwidth=1e6)
        [point] = optimize_batch(SymmetricCMP(), 1.0, [budget])
        assert point is not None
        assert point == optimize(SymmetricCMP(), 1.0, budget)

    def test_empty_budget_list(self):
        assert optimize_batch(SymmetricCMP(), 0.5, []) == []

    @pytest.mark.parametrize("f", (0.5, 0.999))
    def test_r_max_past_every_ceiling_matches_the_full_grid(self, f):
        """The grid stops at the largest serial ceiling (149.6 at
        double-power's 11 nm); the answers equal an explicit
        ``r = 1..400`` grid, which is not capped, and the scalar
        path's, for any larger ``r_max``."""
        scenario = get_scenario("double-power")
        for design in standard_designs("mmm", None):
            budgets = [
                node_budget(
                    node, "mmm", None, scenario,
                    bandwidth_exempt=design.bandwidth_exempt,
                )
                for node in scenario.roadmap.nodes
            ] + [Budget(area=100.0, power=0.5)]  # no r fits: None
            full = optimize_batch(
                design.chip, f, budgets,
                r_values=[float(r) for r in range(1, 401)],
            )
            assert full[-1] is None
            for r_max in (400, 10**12):
                assert optimize_batch(
                    design.chip, f, budgets, r_max
                ) == full
            assert [
                _scalar_optimize(design.chip, f, b, 10**6)
                for b in budgets
            ] == full

    def test_every_row_infeasible_with_a_huge_r_max(self):
        budgets = [Budget(area=100.0, power=0.5), Budget(area=0.5, power=9.0)]
        assert optimize_batch(SymmetricCMP(), 0.9, budgets, 10**12) == [
            None, None,
        ]

    def test_explicit_r_values(self, basic_budget):
        chip = AsymmetricOffloadCMP()
        r_values = [1.0, 2.0, 4.0, 7.5, 16.0]
        batch = optimize_batch(
            chip, 0.9, [basic_budget], r_values=r_values
        )
        scalar = optimize(chip, 0.9, basic_budget, r_values=r_values)
        assert batch == [scalar]


class TestSweepMatchesScalar:
    @pytest.mark.parametrize("f", (0.0, 0.5, 0.999, 1.0))
    def test_all_models(self, f, basic_budget, roomy_budget):
        for chip in _all_chips():
            for budget in (basic_budget, roomy_budget):
                assert sweep_designs_batch(chip, f, budget) == (
                    sweep_designs(chip, f, budget)
                )

    def test_order_is_ascending_r(self, basic_budget):
        points = sweep_designs_batch(SymmetricCMP(), 0.9, basic_budget)
        assert [p.r for p in points] == sorted(p.r for p in points)


@given(
    area=st.floats(0.5, 1e4),
    power=st.floats(0.5, 1e4),
    bandwidth=st.one_of(
        st.just(math.inf), st.floats(0.5, 1e4)
    ),
    alpha=st.floats(1.0, 3.0),
    f=st.sampled_from(F_VALUES),
    chip_index=st.integers(0, len(_all_chips()) - 1),
)
@settings(max_examples=150, deadline=None)
def test_random_budget_parity(area, power, bandwidth, alpha, f,
                              chip_index):
    """optimize_batch == optimize on arbitrary budgets, or both
    infeasible."""
    budget = Budget(
        area=area, power=power, bandwidth=bandwidth, alpha=alpha
    )
    chip = _all_chips()[chip_index]
    assert optimize_batch(chip, f, [budget]) == [
        _scalar_optimize(chip, f, budget)
    ]


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _assert_prefix_matches_batch(chip, f_values, budgets, r_maxes):
    """Cell [i, j, k] of every channel is optimize_batch's answer for
    budgets[i] at f_values[j] and r_maxes[k]: feasible exactly where
    it returns a point, that point's values bit for bit, NaN where it
    returns None."""
    prefix = optimize_prefix_batch(chip, f_values, budgets, r_maxes)
    shape = (len(budgets), len(f_values), len(r_maxes))
    for name in PrefixOptima._fields:
        assert getattr(prefix, name).shape == shape
    for j, f in enumerate(f_values):
        for k, r_max in enumerate(r_maxes):
            points = optimize_batch(chip, f, budgets, r_max=r_max)
            for i, point in enumerate(points):
                cell = {name: getattr(prefix, name)[i, j, k]
                        for name in PrefixOptima._fields}
                if point is None:
                    assert _bits(cell.pop("feasible")) == _bits(0.0)
                    assert all(np.isnan(v) for v in cell.values()), cell
                    continue
                assert _bits(cell["feasible"]) == _bits(1.0)
                expected = {
                    "speedup": point.speedup,
                    "r": point.r,
                    "n": point.n,
                    "n_area": point.bounds.n_area,
                    "n_power": point.bounds.n_power,
                    "n_bandwidth": point.bounds.n_bandwidth,
                }
                for name, value in expected.items():
                    assert _bits(cell[name]) == _bits(value), (
                        name, i, f, r_max
                    )


class TestPrefixBatchMatchesBatch:
    """optimize_prefix_batch must equal a fresh optimize_batch call
    for every f and r_max -- same bit-for-bit contract as the scalar
    tests above.  This is the equality the tensor materializer rests
    on."""

    R_MAXES = tuple(range(1, 17))

    @pytest.mark.parametrize("workload,size", WORKLOADS)
    @pytest.mark.parametrize("f", (0.0, 0.5, 0.99, 0.999, 1.0))
    def test_paper_grid_every_r_max(self, workload, size, f):
        # f shares its pass with both edge fractions, whose masks and
        # formulas differ from every interior f's.
        scenario = get_scenario("baseline")
        for design in standard_designs(workload, size):
            budgets = [
                node_budget(
                    node, workload, size, scenario,
                    bandwidth_exempt=design.bandwidth_exempt,
                )
                for node in scenario.roadmap.nodes
            ]
            _assert_prefix_matches_batch(
                design.chip, (f, 0.0, 1.0), budgets, self.R_MAXES
            )

    def test_all_models_basic_budget(self, basic_budget):
        for chip in _all_chips():
            _assert_prefix_matches_batch(
                chip, F_VALUES, [basic_budget], self.R_MAXES
            )

    def test_infeasible_cells_match(self):
        chip = HeterogeneousChip(
            UCore(name="gpu-like", mu=3.0, phi=0.6, kind="gpu")
        )
        budgets = [
            Budget(area=19.0, power=10.0, bandwidth=42.0),
            Budget(area=100.0, power=0.5),
            Budget(area=1.0, power=1e9),
        ]
        _assert_prefix_matches_batch(
            chip, (0.0, 0.99, 1.0), budgets, (1, 4, 16)
        )

    def test_empty_inputs(self):
        budget = Budget(area=10.0, power=10.0)
        for budgets, f_values, r_maxes in (
            ([], (0.0, 0.5, 1.0), (1, 2)),
            ([budget], (0.0, 0.5, 1.0), ()),
            ([budget], (), (1, 2)),
        ):
            prefix = optimize_prefix_batch(
                SymmetricCMP(), f_values, budgets, r_maxes
            )
            for name in PrefixOptima._fields:
                assert getattr(prefix, name).shape == (
                    len(budgets), len(f_values), len(r_maxes)
                )


class _LateFabricCMP(AsymmetricOffloadCMP):
    """Offload fabric that only fits beside a fast core of r >= 4.

    No vector branch serves it, so the kernel's per-cell fallback
    evaluates it; at f > 0 a row is infeasible for r_max < 4 and may
    be feasible from r_max = 4 on.
    """

    model_id = "late-fabric"

    def bound_area(self, budget, r):
        return budget.area if r >= 4 else float(r)


_PREFIX_CHIPS = _all_chips() + [_LateFabricCMP()]
_LATE = len(_PREFIX_CHIPS) - 1
_DYNAMIC = next(
    i for i, chip in enumerate(_PREFIX_CHIPS)
    if isinstance(chip, DynamicCMP)
)

_small_budget = st.builds(
    Budget,
    area=st.floats(0.5, 64.0),
    power=st.floats(0.5, 64.0),
    bandwidth=st.one_of(st.just(math.inf), st.floats(0.5, 64.0)),
    alpha=st.floats(1.0, 3.0),
)


@given(
    budgets=st.lists(_small_budget, min_size=1, max_size=6),
    f_values=st.lists(st.sampled_from(F_VALUES), min_size=1, max_size=6),
    chip_index=st.integers(0, len(_PREFIX_CHIPS) - 1),
    r_maxes=st.lists(st.integers(1, 20), min_size=1, max_size=8),
)
# Rows feasible only from r_max = 4 at f > 0 (from r_max = 1 at
# f = 0, where no fabric is needed), a row with no feasible column
# (power < 1 leaves no serial core) and, on the dynamic chip, tied
# speedups (every r <= n has the same speedup; the first wins).
@example(
    budgets=[Budget(area=32.0, power=32.0), Budget(area=32.0, power=0.7)],
    f_values=[0.9, 0.0], chip_index=_LATE, r_maxes=[16, 3, 4, 1],
)
@example(
    budgets=[Budget(area=16.0, power=8.0, alpha=2.0)],
    f_values=[0.5, 1.0], chip_index=_DYNAMIC, r_maxes=[1, 2, 8, 16],
)
@settings(max_examples=150, deadline=None)
def test_prefix_batch_parity(budgets, f_values, chip_index, r_maxes):
    """optimize_prefix_batch == optimize_batch per (f, r_max), on
    random budgets small enough that rows and columns go infeasible;
    f values and r_maxes come in any order, repeats included."""
    _assert_prefix_matches_batch(
        _PREFIX_CHIPS[chip_index], f_values, budgets, r_maxes
    )


def test_parity_examples_reach_their_edge_cases():
    """The pinned examples above exercise what they claim."""
    late = optimize_prefix_batch(
        _PREFIX_CHIPS[_LATE], (0.9, 0.0),
        [Budget(area=32.0, power=32.0), Budget(area=32.0, power=0.7)],
        (1, 3, 4, 16),
    )
    assert late.feasible.tolist() == [
        [[0, 0, 1, 1], [1, 1, 1, 1]],
        [[0, 0, 0, 0], [0, 0, 0, 0]],
    ]
    dynamic = _PREFIX_CHIPS[_DYNAMIC]
    budget = Budget(area=16.0, power=8.0, alpha=2.0)
    tied = sweep_designs_batch(dynamic, 0.5, budget, r_max=8)
    assert len(tied) == 8 and len({p.speedup for p in tied}) == 1
    [best] = optimize_batch(dynamic, 0.5, [budget], r_max=8)
    assert best.r == 1


@given(
    score=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 12)),
        elements=st.sampled_from(
            (-np.inf, -1.5, 0.0, 1.0, 2.0, np.inf, np.nan)
        ),
    )
)
@settings(max_examples=200, deadline=None)
def test_prefix_argmax_is_argmax_of_every_prefix(score):
    """Ties, -inf rows and NaN are ranked exactly as np.argmax ranks
    them."""
    best = _prefix_argmax(score)
    for m in range(1, score.shape[1] + 1):
        assert best[:, m - 1].tolist() == (
            np.argmax(score[:, :m], axis=1).tolist()
        )


_row = st.tuples(
    st.floats(0.5, 1e4),  # area
    st.floats(0.5, 1e4),  # power
    st.one_of(st.just(math.inf), st.floats(0.5, 1e4)),  # bandwidth
    st.floats(1.0, 3.0),  # alpha
    st.floats(0.05, 1e3),  # mu
    st.floats(0.05, 50.0),  # phi
)


@given(
    rows=st.lists(_row, min_size=1, max_size=8),
    f=st.sampled_from(F_VALUES),
    model=st.sampled_from((HeterogeneousChip, HeterogeneousAssistedChip)),
)
@settings(max_examples=150, deadline=None)
def test_parameter_rows_match_row_by_row_budgets(rows, f, model):
    """A call over per-row arrays (mu and phi included) equals
    ``optimize_batch`` row by row on ``model(UCore(mu_i, phi_i))`` and
    ``Budget(...)``; the bound grid equals ``chip.bounds`` cell by
    cell; and one multi-budget adapter call equals the per-budget
    calls, full DesignPoint for full DesignPoint."""
    area, power, bandwidth, alpha, mu, phi = map(np.array, zip(*rows))
    grid_rows = GridRows(area, power, bandwidth, alpha, mu=mu, phi=phi)
    template = model(UCore(name="row", mu=1.0, phi=1.0))
    speed, feasible = best_speedups(template, f, grid_rows)
    n_effective, ceilings = bound_grid(template, grid_rows)
    # The bound grid stops where every row's serial bound does.
    width = max(1, min(16, math.floor(max(ceilings))))
    assert n_effective.shape == (len(rows), width)
    budgets = [Budget(a, p, b, al) for a, p, b, al, _, _ in rows]
    for i, (budget, (*_, mu_i, phi_i)) in enumerate(zip(budgets, rows)):
        chip = model(UCore(name="row", mu=mu_i, phi=phi_i))
        [point] = optimize_batch(chip, f, [budget])
        assert feasible[i] == (point is not None)
        if point is not None:
            assert speed[i] == point.speedup
        assert ceilings[i] == chip.max_serial_r(budget)
        assert n_effective[i].tolist() == [
            chip.bounds(budget, r).n_effective for r in range(1, width + 1)
        ]
    chip = model(UCore(name="row", mu=rows[0][4], phi=rows[0][5]))
    assert optimize_batch(chip, f, budgets) == [
        optimize_batch(chip, f, [budget])[0] for budget in budgets
    ]


class TestParameterRows:
    def test_bad_rows_raise_the_budget_errors(self):
        chip = HeterogeneousChip(UCore(name="u", mu=2.0, phi=1.0))
        for field, value, message in (
            ("area", math.nan, "area budget must not be NaN"),
            ("power", 0.0, "power budget must be positive, got 0.0"),
            ("bandwidth", -1.0,
             "bandwidth budget must be positive, got -1.0"),
            ("alpha", 0.5, "alpha must be >= 1, got 0.5"),
        ):
            rows = dict(area=[10.0, 10.0], power=[5.0, 5.0],
                        bandwidth=[4.0, 4.0], alpha=[1.75, 1.75])
            rows[field] = [rows[field][0], value]
            with pytest.raises(ModelError, match=message):
                best_speedups(chip, 0.9, GridRows(**rows))
            with pytest.raises(ModelError, match=message):
                bound_grid(chip, GridRows(**rows))

    def test_bad_ucore_rows_are_rejected(self):
        chip = HeterogeneousChip(UCore(name="u", mu=2.0, phi=1.0))
        with pytest.raises(ModelError, match="mu must be positive"):
            best_speedups(chip, 0.9, GridRows(10.0, 5.0, mu=[1.0, 0.0]))
        with pytest.raises(ModelError, match="phi must be positive"):
            best_speedups(chip, 0.9, GridRows(10.0, 5.0, phi=[math.nan]))
        with pytest.raises(ModelError, match="U-core chip"):
            best_speedups(SymmetricCMP(), 0.9, GridRows(10.0, 5.0, mu=2.0))

    def test_r_max_past_every_ceiling_costs_nothing(self, monkeypatch):
        """Columns past every row's serial ceiling are masked in every
        row, so both row kernels stop there: an ``r_max`` far past it
        gives the same answers over the ceiling's width."""
        import repro.perf.batch as batch

        chip = HeterogeneousChip(UCore(name="u", mu=2.0, phi=1.0))
        rows = GridRows([19.0, 64.0], [10.0, 30.0], [42.0, 90.0], 1.75)
        _, ceilings = bound_grid(chip, rows, r_max=1)
        top = math.floor(max(ceilings))
        assert 16 < top < 20_000
        n_top, _ = bound_grid(chip, rows, r_max=top)
        n_far, _ = bound_grid(chip, rows, r_max=20_000)
        assert n_far.shape == (2, top)
        assert np.array_equal(n_far, n_top)
        widths = []
        evaluate = batch._evaluate_grid
        monkeypatch.setattr(
            batch, "_evaluate_grid",
            lambda chip, f, rows, r_vals, ceilings=None: (
                widths.append(len(r_vals))
                or evaluate(chip, f, rows, r_vals, ceilings)
            ),
        )
        at_top = best_speedups(chip, 0.9, rows, r_max=top)
        far = best_speedups(chip, 0.9, rows, r_max=20_000)
        assert widths == [top, top]
        assert far[0].tolist() == at_top[0].tolist()
        assert far[1].tolist() == at_top[1].tolist()

    def test_fallback_models_use_their_own_methods(self):
        """A multi-U-core chip (no vector branch) through the bound
        grid and the best-speedup path matches its scalar methods."""
        chip = MultiUCoreChip([
            WorkloadSegment("hot", 3.0, UCore(name="a", mu=50.0, phi=2.0)),
            WorkloadSegment("simd", 1.0, UCore(name="g", mu=3.0, phi=0.6)),
        ])
        budgets = [Budget(19.0, 10.0, 42.0), Budget(64.0, 1e9, 1e9)]
        rows = GridRows.from_budgets(budgets)
        n_effective, _ = bound_grid(chip, rows, r_max=8)
        speed, feasible = best_speedups(chip, 0.99, rows, r_max=8)
        for i, budget in enumerate(budgets):
            assert n_effective[i].tolist() == [
                chip.bounds(budget, r).n_effective for r in range(1, 9)
            ]
            point = optimize(chip, 0.99, budget, r_max=8)
            assert feasible[i] and speed[i] == point.speedup
