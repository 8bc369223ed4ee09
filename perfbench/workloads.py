"""Seeded problem documents for the three benchmark workloads.

Each generator returns a list of `Doc`: the CLI command, the JSON text the
program reads, and `expect`, facts known by construction that the checker
in `verify.py` uses.  The program never sees `expect`.

The mix of document kinds and sizes is a fixed schedule; the seed draws
every matrix, state and numeric parameter inside it.  Fixing the schedule
keeps the cost of a round comparable from seed to seed, so run-to-run
spread measures the program and not the draw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("order", "extension", "algebra")


@dataclass
class Doc:
    command: str
    kind: str
    text: str
    expect: dict = field(default_factory=dict)

    @property
    def payload(self) -> dict:
        return json.loads(self.text)["payload"]


# ------------------------------------------------------------ matrices


def to_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def unit(n, i, j) -> np.ndarray:
    E = np.zeros((n, n), dtype=complex)
    E[i, j] = 1.0
    return E


def random_hermitian(rng, n) -> np.ndarray:
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (G + G.conj().T) / 2.0
    return H / np.linalg.norm(H, 2)


def random_unitary(rng, n) -> np.ndarray:
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_density(rng, n, rank) -> np.ndarray:
    V = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    D = V @ V.conj().T
    D = (D + D.conj().T) / 2.0
    return D / np.trace(D).real


def hermitian_basis(n) -> list:
    """E_ii, E_ij + E_ji, i(E_ij - E_ji): a hermitian basis of M_n."""
    out = [unit(n, i, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out.append(unit(n, i, j) + unit(n, j, i))
            out.append(1j * unit(n, i, j) - 1j * unit(n, j, i))
    return out


def block_projections(partition) -> list:
    n = sum(partition)
    out, offset = [], 0
    for k in partition:
        P = np.zeros((n, n), dtype=complex)
        P[offset:offset + k, offset:offset + k] = np.eye(k)
        out.append(P)
        offset += k
    return out


def block_algebra_basis(partition, U) -> list:
    """Hermitian spanning set of U (M_k1 + M_k2 + ...) U*."""
    n = sum(partition)
    out, offset = [], 0
    for k in partition:
        for h in hermitian_basis(k):
            H = np.zeros((n, n), dtype=complex)
            H[offset:offset + k, offset:offset + k] = h
            out.append(U @ H @ U.conj().T)
        offset += k
    return out


def unital_system(rng, n, extra) -> list:
    """span{I, h_1..h_extra} for random hermitian h_i."""
    return [np.eye(n, dtype=complex)] + [random_hermitian(rng, n) for _ in range(extra)]


def _doc(command, kind, payload, seed=None, **expect) -> Doc:
    body = {"kind": kind, "payload": payload}
    if seed is not None:
        body["seed"] = seed
    return Doc(command=command, kind=kind, text=json.dumps(body), expect=expect)


# ---------------------------------------------------------------- order

RIESZ_PARTITIONS = ((2, 2), (2, 1, 1), (3, 1), (1, 1, 1, 1))


def riesz_doc(rng, partition, N) -> Doc:
    n = sum(partition)
    U = random_unitary(rng, n)
    B = block_algebra_basis(partition, U)
    a = random_hermitian(rng, n)
    eye = np.eye(n)

    def in_b():
        return sum(rng.standard_normal() * h for h in B) / np.sqrt(len(B))

    lowers, uppers = [], []
    for _ in range(2):
        h = in_b()
        gap = np.linalg.eigvalsh(h - a)[-1] + rng.uniform(0.05, 0.5)
        lowers.append(h - gap * eye)
        h = in_b()
        gap = np.linalg.eigvalsh(a - h)[-1] + rng.uniform(0.05, 0.5)
        uppers.append(h + gap * eye)
    payload = {
        "B": [to_json(h) for h in B],
        "a": to_json(a),
        "lowers": [to_json(x) for x in lowers],
        "uppers": [to_json(x) for x in uppers],
        "epsilon": float(rng.uniform(0.1, 1.0)),
        "N": N,
    }
    return _doc("riesz", "riesz", payload)


def unperforated_instance_doc(rng, n, s_dim, t_extra) -> Doc:
    S = [random_hermitian(rng, n) for _ in range(s_dim)]
    T = unital_system(rng, n, t_extra)
    a = sum(rng.standard_normal() * s for s in S)
    t = sum(rng.standard_normal() * x for x in T[1:])
    shift = np.linalg.eigvalsh(a - t)[-1] + rng.uniform(0.0, 0.5)
    b = t + shift * np.eye(n)
    payload = {"S": [to_json(x) for x in S], "T": [to_json(x) for x in T],
               "a": to_json(a), "b": to_json(b)}
    return _doc("check-unperforated", "unperforated", payload)


def unperforated_search_doc(rng, n, s_dim, t_extra, trials) -> Doc:
    S = [random_hermitian(rng, n) for _ in range(s_dim)]
    T = unital_system(rng, n, t_extra)
    payload = {"S": [to_json(x) for x in S], "T": [to_json(x) for x in T], "trials": trials}
    return _doc("check-unperforated", "unperforated", payload, seed=int(rng.integers(0, 2**31)))


def order_docs(rng) -> list:
    docs = []
    for i in range(21):
        docs.append(riesz_doc(rng, RIESZ_PARTITIONS[i % 4], 2 + i % 7))
    for i in range(59):
        n = 2 + i % 3
        docs.append(unperforated_instance_doc(rng, n, 1 + i % 2, 1 + (i // 3) % n))
    for i in range(20):
        n = 2 + i % 3
        docs.append(unperforated_search_doc(rng, n, 1 + i % 2, 1 + (i // 3) % n, 3 + i % 8))
    return docs


# ------------------------------------------------------------ extension

M2_PLUS_C = [unit(3, 0, 0), unit(3, 1, 1), unit(3, 0, 1) + unit(3, 1, 0),
             1j * unit(3, 0, 1) - 1j * unit(3, 1, 0), unit(3, 2, 2)]


def uep_block_doc(rng, block_supported, rank) -> Doc:
    if block_supported:
        state = np.zeros((3, 3), dtype=complex)
        state[:2, :2] = random_density(rng, 2, min(rank, 2))
    else:
        state = random_density(rng, 3, rank)
    payload = {"S": [to_json(x) for x in M2_PLUS_C], "state": to_json(state)}
    return _doc("uep", "uep", payload, must_hold=block_supported)


def uep_random_doc(rng, n, extra, rank) -> Doc:
    S = unital_system(rng, n, extra)
    state = random_density(rng, n, rank)
    return _doc("uep", "uep", {"S": [to_json(x) for x in S], "state": to_json(state)})


def extension_interval_doc(rng, n, rank, extra) -> Doc:
    S = unital_system(rng, n, extra)
    payload = {"S": [to_json(x) for x in S], "phi": to_json(random_density(rng, n, rank)),
               "t": to_json(random_hermitian(rng, n))}
    return _doc("extension-interval", "extension-interval", payload)


def boundary_doc(rng, n, extra) -> Doc:
    S = unital_system(rng, n, extra)
    return _doc("boundary", "boundary", {"S": [to_json(x) for x in S]})


def extension_docs(rng) -> list:
    docs = []
    for i in range(16):
        docs.append(uep_block_doc(rng, block_supported=i % 2 == 0, rank=1 + (i // 2) % 3))
    for i in range(16):
        n = 2 + i % 2
        docs.append(uep_random_doc(rng, n, 1 + (i // 2) % (n * n - 2), 1 + (i // 2) % n))
    # mostly M3, so that the median document sits in one dense cluster
    for n, count in ((2, 9), (3, 33), (4, 20)):
        for i in range(count):
            docs.append(extension_interval_doc(rng, n, 1 + i % n, 1 + (i // n) % (n * n - 2)))
    for i in range(6):
        docs.append(boundary_doc(rng, 3 if i == 5 else 2, 1 + i % 2))
    return docs


# -------------------------------------------------------------- algebra

ALGEBRA_PARTITIONS = ((1, 1), (2, 1), (1, 1, 1), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def state_on_blocks(rng, partition, U, style, rank):
    """A density for the rotated block algebra and whether its restriction
    is pure: a vector inside one block, a vector across blocks, or a mixed
    state of the given rank (at least 2)."""
    n = sum(partition)
    if style == "block-vector":
        i = int(rng.integers(0, len(partition)))
        P = block_projections(partition)[i]
        xi = P @ (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        rho_local = np.outer(xi, xi.conj()) / np.vdot(xi, xi).real
        return U @ rho_local @ U.conj().T, True
    if style == "vector":
        return random_density(rng, n, 1), False
    return random_density(rng, n, rank), False


def state_algebra_doc(rng, command, partition, style, rank=2, full=False) -> Doc:
    n = sum(partition)
    U = random_unitary(rng, n)
    rho, pure = state_on_blocks(rng, partition, U, style, min(rank, n))
    payload = {"state": to_json(rho)}
    if full:
        payload["A"] = n
        pure = style != "mixed"
    else:
        payload["A"] = [to_json(h) for h in block_algebra_basis(partition, U)]
    return _doc(command, command, payload, partition=list(partition), rotation=U,
                full=full, pure=pure)


FULL_ALGEBRA_DOCS = (
    ("purity", 2, "mixed"), ("decompose", 3, "vector"), ("purity", 4, "vector"),
    ("decompose", 4, "mixed"), ("purity", 3, "block-vector"), ("decompose", 2, "mixed"),
)
KOROVKIN_EXTRAS = ("x^3", "x^4", "sin_pi", "abs_mid", "exp")


def korovkin_doc(rng, lo, hi, grid_size, functions) -> Doc:
    payload = {"n": int(rng.integers(lo, hi)), "grid_size": grid_size, "functions": functions}
    return _doc("korovkin", "korovkin", payload)


def algebra_docs(rng) -> list:
    docs = []
    styles = ("block-vector", "vector", "mixed")
    for i in range(56):
        part = ALGEBRA_PARTITIONS[i % len(ALGEBRA_PARTITIONS)]
        docs.append(state_algebra_doc(rng, "purity", part, styles[i % 3], 2 + (i // 3) % 3))
    for i in range(28):
        part = ALGEBRA_PARTITIONS[i % len(ALGEBRA_PARTITIONS)]
        docs.append(state_algebra_doc(rng, "decompose", part, styles[i % 3], 2 + (i // 3) % 3))
    # full M_n given as an integer; purity of a mixed state on full M3 or M4
    # needs an 81- or 256-dimensional commutant kernel (about 10 s for M4 on
    # a 2-core box with the Jacobi eigensolver), so mixed states go to purity
    # only on M2
    for command, n, style in FULL_ALGEBRA_DOCS:
        docs.append(state_algebra_doc(rng, command, (n,), style, n, full=True))
    # degrees stratified over the whole accepted range 1..2000, odd and even grids
    edges = np.linspace(1, 2001, 11).astype(int)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        fns = list(KOROVKIN_EXTRAS[i % 5:i % 5 + 1 + i % 2])
        docs.append(korovkin_doc(rng, lo, hi, 101 + 10 * (i % 5) + i % 2, fns))
    return docs


GENERATORS = {"order": order_docs, "extension": extension_docs, "algebra": algebra_docs}


def make_docs(workload: str, seed: int) -> list:
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    return GENERATORS[workload](rng)
