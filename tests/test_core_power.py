"""Unit tests for repro.core.power (Pollack + power laws)."""

import math

import pytest

from repro.core.power import (
    DEFAULT_ALPHA,
    SCENARIO_HIGH_ALPHA,
    max_r_for_serial_bandwidth,
    max_r_for_serial_power,
    perf_to_power,
    pollack_area,
    pollack_perf,
    power_to_perf,
    seq_power,
)
from repro.errors import ModelError


class TestPollack:
    def test_unit_core(self):
        assert pollack_perf(1.0) == pytest.approx(1.0)

    def test_four_bce_doubles_perf(self):
        assert pollack_perf(4.0) == pytest.approx(2.0)

    def test_paper_fast_core(self):
        # r = 2 gives the Core i7's sqrt(2) relative performance.
        assert pollack_perf(2.0) == pytest.approx(math.sqrt(2.0))

    def test_area_inverts_perf(self):
        for r in (1.0, 2.0, 7.5, 16.0):
            assert pollack_area(pollack_perf(r)) == pytest.approx(r)

    def test_rejects_nonpositive(self):
        with pytest.raises(ModelError):
            pollack_perf(0.0)
        with pytest.raises(ModelError):
            pollack_area(-1.0)


class TestPowerLaw:
    def test_default_alpha_value(self):
        assert DEFAULT_ALPHA == 1.75
        assert SCENARIO_HIGH_ALPHA == 2.25

    def test_power_of_unit_perf(self):
        assert perf_to_power(1.0) == pytest.approx(1.0)

    def test_superlinear(self):
        assert perf_to_power(2.0) == pytest.approx(2.0**1.75)

    def test_power_to_perf_inverts(self):
        for p in (0.5, 1.0, 3.0, 100.0):
            assert perf_to_power(power_to_perf(p)) == pytest.approx(p)

    def test_alpha_validation(self):
        with pytest.raises(ModelError):
            perf_to_power(2.0, alpha=0.5)

    def test_rejects_nonpositive_perf(self):
        with pytest.raises(ModelError):
            perf_to_power(0.0)


class TestSeqPower:
    def test_bce_consumes_unit_power(self):
        assert seq_power(1.0) == pytest.approx(1.0)

    def test_matches_composition_of_laws(self):
        for r in (2.0, 4.0, 9.0, 16.0):
            assert seq_power(r) == pytest.approx(
                perf_to_power(pollack_perf(r))
            )

    def test_paper_fast_core_power(self):
        # r = 2: 2^(1.75/2) ~= 1.834 BCE power units.
        assert seq_power(2.0) == pytest.approx(2.0**0.875)

    def test_higher_alpha_costs_more(self):
        assert seq_power(8.0, alpha=2.25) > seq_power(8.0, alpha=1.75)


class TestSerialBounds:
    def test_power_bound_inverts_seq_power(self):
        budget = 10.0
        r_max = max_r_for_serial_power(budget)
        assert seq_power(r_max) == pytest.approx(budget)

    def test_power_bound_paper_value(self):
        # P = 10 -> r <= 10^(2/1.75) ~= 13.9: the reason the f=0.9
        # projections never reach the r=16 sweep ceiling at 40nm.
        assert max_r_for_serial_power(10.0) == pytest.approx(
            10.0 ** (2.0 / 1.75)
        )

    def test_bandwidth_bound_is_square(self):
        assert max_r_for_serial_bandwidth(3.0) == pytest.approx(9.0)

    def test_bandwidth_bound_consistency(self):
        # A core at the bound consumes exactly B units of bandwidth.
        bound = max_r_for_serial_bandwidth(5.0)
        assert pollack_perf(bound) == pytest.approx(5.0)

    @pytest.mark.parametrize("func", [
        max_r_for_serial_power, max_r_for_serial_bandwidth,
    ])
    def test_rejects_nonpositive_budget(self, func):
        with pytest.raises(ModelError):
            func(0.0)

    @pytest.mark.parametrize("func", [
        max_r_for_serial_power, max_r_for_serial_bandwidth,
    ])
    def test_bound_past_the_float_range_is_unbounded(self, func):
        # 1e308 ** (2/1.75) and 1e308 ** 2 overflow a float: no finite
        # r is excluded, so the bound is inf, not an OverflowError.
        assert func(1e308) == math.inf
