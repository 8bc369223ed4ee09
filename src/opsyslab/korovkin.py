"""Bernstein operators on a grid: smallness on {1, x, x^2} forces smallness
everywhere as the degree grows."""

from __future__ import annotations

import numpy as np

from .errors import InputError

# Work limits of one demo: at the largest degree a grid point costs about
# 80 us (one BLAS thread, 2-core box), so the largest grid is about a minute.
MAX_DEGREE = 2000
MAX_GRID_SIZE = 750_000

TEST_FUNCTIONS = {
    "1": lambda x: np.ones_like(x),
    "x": lambda x: x,
    "x^2": lambda x: x * x,
    "x^3": lambda x: x**3,
    "x^4": lambda x: x**4,
    "sin_pi": lambda x: np.sin(np.pi * x),
    "abs_mid": lambda x: np.abs(x - 0.5),
    "exp": lambda x: np.exp(x),
}


def bernstein_weights(n: int, x: float) -> np.ndarray:
    """Binomial weights C(n,k) x^k (1-x)^(n-k), k = 0..n.

    Computed in log space from the ratios w_{k+1}/w_k = x(n-k) / ((1-x)(k+1)),
    summed outward from the mode k = floor((n+1)x), where the log-weights
    stay near zero and their rounding stays small; then exponentiated and
    normalized to unit sum.  No weight overflows, the tails underflow to 0
    only below 1e-308, and the weights that carry the mass keep a relative
    error near 1e-13 up to n = 2000.
    """
    if not 0.0 <= x <= 1.0:
        raise InputError("Bernstein weights need x in [0, 1]")
    if x == 0.0:
        w = np.zeros(n + 1)
        w[0] = 1.0
        return w
    if x == 1.0:
        w = np.zeros(n + 1)
        w[-1] = 1.0
        return w
    k = np.arange(n)
    log_ratio = np.log(x / (1.0 - x) * (n - k) / (k + 1))
    mode = min(int((n + 1) * x), n)
    log_w = np.zeros(n + 1)
    log_w[mode + 1 :] = np.cumsum(log_ratio[mode:])
    log_w[:mode] = -np.cumsum(log_ratio[:mode][::-1])[::-1]
    w = np.exp(log_w)
    return w / np.sum(w)


def bernstein_values(f, n: int, grid: np.ndarray) -> np.ndarray:
    """(B_n f)(x) on the grid: sum_k w_k(x) f(k/n)."""
    return _bernstein_table([f], n, grid)[:, 0]


def _bernstein_table(fs, n: int, grid: np.ndarray) -> np.ndarray:
    """(B_n f)(x) for every grid point x (rows) and every f in fs (columns);
    the weights of each grid point are computed once for all functions."""
    nodes = np.arange(n + 1) / n
    samples = np.stack([np.asarray(f(nodes), dtype=float) for f in fs], axis=1)
    return np.array([bernstein_weights(n, float(x)) @ samples for x in grid])


def korovkin_demo(n: int, grid_size: int, test_functions=()) -> dict:
    """Sup-grid deviations ||B_n f - f|| for the generating triple and extras.

    Extra functions are given by registry name (see TEST_FUNCTIONS) or as
    (name, callable) pairs.
    """
    if n < 1:
        raise InputError("degree must be at least 1")
    if grid_size < 2:
        raise InputError("grid needs at least two points")
    if n > MAX_DEGREE:
        raise InputError(f"degrees above {MAX_DEGREE} are not supported")
    if grid_size > MAX_GRID_SIZE:
        raise InputError(f"grids above {MAX_GRID_SIZE} points are not supported")
    grid = np.linspace(0.0, 1.0, grid_size)
    table = {}
    fns = [("1", TEST_FUNCTIONS["1"]), ("x", TEST_FUNCTIONS["x"]), ("x^2", TEST_FUNCTIONS["x^2"])]
    for item in test_functions:
        if isinstance(item, str):
            if item in ("1", "x", "x^2"):
                continue
            if item not in TEST_FUNCTIONS:
                raise InputError(f"unknown test function {item!r}; known: {sorted(TEST_FUNCTIONS)}")
            fns.append((item, TEST_FUNCTIONS[item]))
        else:
            name, func = item
            fns.append((str(name), func))
    approx = _bernstein_table([f for _, f in fns], n, grid)
    for (name, f), column in zip(fns, approx.T):
        exact = np.asarray(f(grid), dtype=float)
        table[name] = float(np.max(np.abs(column - exact)))
    return table
