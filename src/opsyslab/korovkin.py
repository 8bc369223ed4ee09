"""Bernstein operators on a grid: smallness on {1, x, x^2} forces smallness
everywhere as the degree grows."""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .limits import MAX_DEGREE, MAX_GRID_SIZE

# Grid points are weighed in chunks of about this many weights (128 KB): big
# enough to amortize numpy's per-call cost, small enough not to raise peak RSS.
CHUNK_ENTRIES = 1 << 14
# exp of -745..-708 is subnormal and about 100x slower per entry in numpy.
LOG_WEIGHT_FLOOR = -700.0

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
    """Binomial weights C(n,k) x^k (1-x)^(n-k), k = 0..n, normalized to unit sum.

    With D_k = log C(n,k) - log C(n, n//2), summed outward from the centre
    once per degree, the log-weights are (D_k - D_m) + (k - m) log(x/(1-x))
    relative to the mode m = floor((n+1)x): at most 0, so none overflows.
    Those below LOG_WEIGHT_FLOOR are raised to it (tail weights ~1e-304).
    Weights above 1e-300 keep a relative error below 1e-12 up to n = 2000
    (at most 6e-13 against exact rationals over x in [1e-9, 1 - 1e-9]).
    """
    return next(_weight_chunks(n, np.array([x], dtype=float)))[0]


def bernstein_values(f, n: int, grid: np.ndarray) -> np.ndarray:
    """(B_n f)(x) on the grid: sum_k w_k(x) f(k/n)."""
    return _bernstein_table([f], n, grid)[:, 0]


def _bernstein_table(fs, n: int, grid: np.ndarray) -> np.ndarray:
    """(B_n f)(x) for every grid point x (rows) and every f in fs (columns);
    each chunk of weights meets every function in one matmul."""
    nodes = np.arange(n + 1) / n
    samples = np.stack([np.asarray(f(nodes), dtype=float) for f in fs], axis=1)
    return np.concatenate([w @ samples for w in _weight_chunks(n, np.asarray(grid, dtype=float))])


def _weight_chunks(n: int, grid: np.ndarray):
    """The weights of the grid points in order, as (rows, n + 1) arrays of
    at most CHUNK_ENTRIES entries (at least one row)."""
    if not np.all((grid >= 0.0) & (grid <= 1.0)):
        raise InputError("Bernstein weights need x in [0, 1]")
    k = np.arange(n + 1.0)
    step = np.log((n - k[:-1]) / (k[:-1] + 1))  # log C(n,k+1)/C(n,k)
    half = n // 2
    log_binom = np.concatenate([-np.cumsum(step[:half][::-1])[::-1], [0.0], np.cumsum(step[half:])])
    mode = np.minimum(((n + 1) * grid).astype(np.intp), n)[:, None]
    with np.errstate(divide="ignore"):
        log_odds = np.log(grid / (1.0 - grid))[:, None]
    # +-inf at x = 0 and 1; 1e3 exceeds the log-odds of every double in (0, 1)
    # and still sends every weight off the mode to the floor.
    np.clip(log_odds, -1e3, 1e3, out=log_odds)
    rows = max(1, CHUNK_ENTRIES // (n + 1))
    for i in range(0, len(grid), rows):
        m = mode[i : i + rows]
        w = k - m
        w *= log_odds[i : i + rows]
        w += log_binom - log_binom[m]
        np.exp(np.maximum(w, LOG_WEIGHT_FLOOR, out=w), out=w)
        w /= w.sum(axis=1, keepdims=True)
        yield w


def korovkin_demo(n: int, grid_size: int, test_functions=()) -> dict:
    """Sup-grid deviations ||B_n f - f|| for the generating triple and extras,
    given by registry name (see TEST_FUNCTIONS)."""
    if not (1 <= n <= MAX_DEGREE and 2 <= grid_size <= MAX_GRID_SIZE):
        raise InputError(f"need a degree in 1..{MAX_DEGREE} and 2..{MAX_GRID_SIZE} grid points")
    fns = {name: TEST_FUNCTIONS[name] for name in ("1", "x", "x^2")}
    for name in test_functions:
        if not isinstance(name, str) or name not in TEST_FUNCTIONS:
            raise InputError(f"unknown test function {name!r}; known: {sorted(TEST_FUNCTIONS)}")
        fns[name] = TEST_FUNCTIONS[name]
    grid = np.linspace(0.0, 1.0, grid_size)
    approx = _bernstein_table(list(fns.values()), n, grid).T
    return {name: float(np.max(np.abs(col - np.asarray(f(grid), dtype=float))))
            for (name, f), col in zip(fns.items(), approx)}
