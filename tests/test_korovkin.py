"""Bernstein operator deviations against the closed-form identities."""

from __future__ import annotations

from fractions import Fraction
from math import comb, ldexp

import numpy as np
import pytest

from opsyslab.errors import InputError
from opsyslab.korovkin import CHUNK_ENTRIES, _bernstein_table, bernstein_values, bernstein_weights, korovkin_demo


def test_weights_sum_to_one():
    for n in (1, 10, 250, 1000):
        for x in (0.0, 0.1, 0.5, 0.73, 1.0):
            w = bernstein_weights(n, x)
            assert abs(float(np.sum(w)) - 1.0) <= 1e-12


def test_weights_finite_at_the_degree_limit():
    from math import comb

    n = 2000
    w = bernstein_weights(n, 0.5)
    assert np.all(np.isfinite(w))
    assert abs(float(np.sum(w)) - 1.0) <= 1e-12
    exact = np.array([comb(n, k) / 2**n for k in range(n + 1)])
    mass = exact > 1e-300
    assert np.allclose(w[mass], exact[mass], rtol=1e-11, atol=0)
    assert np.all(w[~mass] <= 1e-290)


@pytest.mark.parametrize("x", [1e-9, 0.013, 0.37, 0.73, 1.0 - 1e-9])
def test_weights_finite_at_high_degree(x):
    w = bernstein_weights(1500, x)
    assert np.all(np.isfinite(w)) and np.all(w >= 0)
    assert abs(float(np.sum(w)) - 1.0) <= 1e-12
    # mean of the binomial distribution
    assert float(w @ np.arange(1501)) == pytest.approx(1500 * x, rel=1e-10, abs=1e-10)


def test_weights_match_direct_binomial():
    from math import comb

    n = 12
    x = 0.37
    direct = np.array([comb(n, k) * x**k * (1 - x) ** (n - k) for k in range(n + 1)])
    assert np.allclose(bernstein_weights(n, x), direct, rtol=1e-13, atol=0)


def exact_weights(n: int, x: float) -> np.ndarray:
    """C(n,k) x^k (1-x)^(n-k) for the double x, in exact integer arithmetic
    (x = p/2^e), each rounded to a double only at the end."""
    X = Fraction(x)
    p, q, e = X.numerator, X.denominator - X.numerator, X.denominator.bit_length() - 1
    num, out = q**n, []  # C(n,k) p^k q^(n-k), stepped by the exact ratio p(n-k) / (q(k+1))
    for k in range(n + 1):
        if k == n // 2:
            assert num == comb(n, k) * p**k * q ** (n - k)
        shift = max(num.bit_length() - 64, 0)
        out.append(ldexp(float(num >> shift), shift - e * n))
        num, rest = divmod(num * p * (n - k), q * (k + 1))
        assert rest == 0
    return np.array(out)


@pytest.mark.parametrize("x", [1e-9, 0.013, 0.37, 0.5, 1.0 - 1e-9])
@pytest.mark.parametrize("n", [1, 2, 37, 2000])
def test_weights_match_exact_rationals(n, x):
    w, exact = bernstein_weights(n, x), exact_weights(n, x)
    mass = exact > 1e-300
    assert np.max(np.abs(w[mass] - exact[mass]) / exact[mass]) <= 1e-12
    assert np.all(w[~mass] <= 1e-290)


@pytest.mark.parametrize("n", [10, 2000])
def test_table_is_the_concatenation_of_its_chunks(n):
    fs = [lambda x: np.sin(np.pi * x), lambda x: x**3]
    rows = CHUNK_ENTRIES // (n + 1)
    grid = np.linspace(0.0, 1.0, 2 * rows + 3)
    whole = _bernstein_table(fs, n, grid)
    pieces = [_bernstein_table(fs, n, part) for part in (grid[:rows], grid[rows:])]
    assert whole.tobytes() == np.concatenate(pieces).tobytes()


def test_constant_exactly_reproduced():
    table = korovkin_demo(50, 101)
    assert table["1"] <= 1e-12
    assert table["x"] <= 1e-12


def test_x_squared_deviation_closed_form():
    # B_n(x^2) - x^2 = x(1-x)/n with grid maximum at x = 1/2
    # (the benchmark's checker holds every odd grid to 1e-9 relative)
    for n in (10, 100, 1000, 2000):
        table = korovkin_demo(n, 1001)
        assert abs(table["x^2"] - 0.25 / n) <= min(1e-12, 1e-9 * 0.25 / n)


def test_cubic_deviation_decreases():
    devs = [korovkin_demo(n, 201, ["x^3"])["x^3"] for n in (10, 100, 1000)]
    assert devs[0] > devs[1] > devs[2]


def test_bernstein_values_pointwise():
    # B_2 f at x: w = [(1-x)^2, 2x(1-x), x^2]
    f = lambda x: np.asarray(x) ** 3
    vals = bernstein_values(f, 2, np.array([0.25]))
    w = np.array([0.75**2, 2 * 0.25 * 0.75, 0.25**2])
    expected = float(w @ (np.array([0.0, 0.5, 1.0]) ** 3))
    assert vals[0] == pytest.approx(expected, abs=1e-15)


def test_unknown_function_rejected():
    with pytest.raises(Exception):
        korovkin_demo(10, 11, ["nope"])


def test_extra_functions_are_registry_names_only():
    # a (name, callable) pair is not a registry name
    with pytest.raises(InputError, match="unknown test function"):
        korovkin_demo(10, 11, [("x^3", lambda x: x**3)])
