"""Spectral data of the linearization."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cutoff_certificate
from revdeg.spectra import (
    LinearizationSpec,
    ReversibilityError,
    analysed_modes,
    degenerate_fold_search,
    mode_sum,
    spectral_summary,
    xi,
    xi_published_form,
)


def test_xi_single_delay():
    s = LinearizationSpec(1, {0: (F(-3),)}, {0: 1})
    assert xi(s, 0, 0) == -3
    assert xi(s, 1, 0) == -1
    assert xi(s, 2, 0) == F(1, 5)


def test_xi_zero_mode_is_mu_sum():
    s = LinearizationSpec(4, {0: (F(2), F(-1), F(3), F(-1))}, {0: 1})
    assert xi(s, 0, 0) == 2 - 1 + 3 - 1


def test_xi_tends_to_one():
    s = LinearizationSpec(1, {0: (F(-3),)}, {0: 1})
    assert abs(float(xi(s, 40, 0)) - 1) < 0.01


def test_derived_m4_example():
    s = LinearizationSpec(4, {0: (F(-6), F(1), F(1, 2), F(1))}, {0: 1})
    assert xi(s, 0, 0) == F(-7, 2)
    assert xi(s, 1, 0) == F(-11, 4)
    assert xi(s, 2, 0) == F(-7, 10)
    assert xi(s, 3, 0) == F(1, 4)
    assert spectral_summary(s).active_modes == [0, 1, 2]


def test_reversibility_enforced():
    with pytest.raises(ReversibilityError):
        LinearizationSpec(3, {0: (F(1), F(2), F(3))}, {0: 1})


def test_cutoff_certificate():
    s = LinearizationSpec(1, {0: (F(-3),)}, {0: 1})
    summ = spectral_summary(s)
    assert cutoff_certificate(s, summ.kstar)
    assert all(k <= summ.kstar for k, _ in summ.negative)


def test_degenerate_detection_and_fold():
    s = LinearizationSpec(1, {0: (F(-1),)}, {0: 1})  # xi_1 = 0 exactly
    summ = spectral_summary(s)
    assert summ.degenerate_modes == (1,)
    assert not summ.nondegenerate
    assert degenerate_fold_search(summ) == 2


def test_degenerate_fold_avoids_odd_multiples():
    s = LinearizationSpec(1, {0: (F(-4),)}, {0: 1})  # xi_2 = 1 + (-5)/5 = 0
    summ = spectral_summary(s)
    assert summ.degenerate_modes == (2,)
    # odd multiples of 1 are 1, 3, 5, ... all avoiding {2}
    assert degenerate_fold_search(summ) == 1


@pytest.mark.parametrize("mu,want", [
    (F(-6), (None, [1, 2])),     # nondegenerate: the active modes from 1
    (F(-1, 2), (None, [])),      # only mode 0 active
    (F(-1), (2, [2])),           # xi_1 = 0: fold 2, the odd multiples of 2 up to K* = 2
    (F(-4), (1, [1, 3])),        # xi_2 = 0: fold 1, the odd modes up to K* = 3
])
def test_analysed_modes(mu, want):
    summ = spectral_summary(LinearizationSpec(1, {0: (mu,)}, {0: 1}))
    assert analysed_modes(summ) == want


def test_analysed_modes_without_a_fold_within_the_bound():
    summ = spectral_summary(LinearizationSpec(1, {0: (F(-1),)}, {0: 1}))
    assert analysed_modes(summ, bound=1) == (None, [])


def test_published_form_even_m_flagged():
    s = LinearizationSpec(4, {0: (F(-2), F(1), F(3), F(1))}, {0: 1})
    assert spectral_summary(s).published_form_disagreements()
    s_odd = LinearizationSpec(3, {0: (F(-2), F(1), F(1))}, {0: 1})
    assert not spectral_summary(s_odd).published_form_disagreements()


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=3),
       st.sampled_from([1, 2, 3, 4, 6]), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_mode_sum_reversible_symmetry(half, m, k):
    # build a reversible mu row and check the merged-pair evaluation agrees
    row = [F(0)] * m
    row[0] = F(half[0])
    for j in range(1, (m // 2) + 1):
        v = F(half[min(j, len(half) - 1)])
        row[j] = v
        row[m - j] = v
    spec = LinearizationSpec(m, {0: tuple(row)}, {0: 1})
    s = mode_sum(spec, k, 0)
    assert isinstance(s, F)
    if m % 2 == 1:
        assert xi(spec, k, 0) == xi_published_form(spec, k, 0)


def test_all_mu_zero_is_degenerate():
    s = LinearizationSpec(2, {0: (F(0), F(0))}, {0: 1})
    summ = spectral_summary(s)
    assert xi(s, 0, 0) == 0
    assert 0 in summ.degenerate_modes and not summ.nondegenerate


NIVEN = {F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(5, 6)}


@given(st.integers(1, 12), st.integers(0, 30), st.lists(st.integers(-6, 6), min_size=7, max_size=7))
@settings(max_examples=80, deadline=None)
def test_mode_sum_exact_exactly_where_every_cosine_is_rational(m, k, values):
    # a mode is exact when every j k / m mod 1 has a rational cosine (Niven's
    # theorem), whatever m is; every mode is when m is 1, 2, 3, 4 or 6; the
    # exact value agrees with the float sum, and for odd m with the folded
    # half-sum
    row = [F(values[min(j, m - j)]) for j in range(m)]
    spec = LinearizationSpec(m, {0: tuple(row)}, {0: 1})
    s = mode_sum(spec, k, 0)
    rational = all(F(j * k % m, m) in NIVEN for j in range(m))
    assert isinstance(s, F) == rational
    if m in (1, 2, 3, 4, 6):
        assert rational
    floats = sum(math.cos(2 * math.pi * j * k / m) * float(v) for j, v in enumerate(row))
    assert abs(float(s) - floats) < 1e-9
    if rational and m % 2:
        assert xi(spec, k, 0) == xi_published_form(spec, k, 0)
