"""Independent checks of the program's reports, in plain numpy.

Nothing here calls opsyslab: every verdict is re-derived from the
document and the report with numpy's own linear algebra.  Each checker
returns None for a correct report or a one-line reason for a wrong one.
"""

from __future__ import annotations

import numpy as np

# Agreement tolerances, a factor 10 looser than the program's own.
PSD_TOL = 1e-6
EQ_TOL = 1e-6
UEP_TOL = 1e-6


def matrix(value) -> np.ndarray:
    """A matrix of [re, im] pairs or bare reals, as written by the program
    or by the generators."""
    A = np.array(value, dtype=float)
    if A.ndim == 3:
        return A[..., 0] + 1j * A[..., 1]
    return A.astype(complex)


def matrices(values) -> list:
    return [matrix(v) for v in values]


def min_eig(A) -> float:
    return float(np.linalg.eigvalsh((A + A.conj().T) / 2.0)[0])


def op_norm(A) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh((A + A.conj().T) / 2.0))))


def span_residual(basis, X) -> float:
    """Distance from X to the complex span of the basis matrices."""
    M = np.stack([b.reshape(-1) for b in basis], axis=1)
    coeffs, *_ = np.linalg.lstsq(M, X.reshape(-1), rcond=None)
    return float(np.linalg.norm(M @ coeffs - X.reshape(-1)))


def is_hermitian(A, tol=1e-9) -> bool:
    return float(np.max(np.abs(A - A.conj().T))) <= tol * (1.0 + float(np.max(np.abs(A))))


def pairing(A, B) -> float:
    """Real part of tr(A B), the state pairing for hermitian A, B."""
    return float(np.trace(A @ B).real)


# ---------------------------------------------------------------- order


def check_riesz(payload, results, expect):
    B = matrices(payload["B"])
    a = matrix(payload["a"])
    lowers, uppers = matrices(payload["lowers"]), matrices(payload["uppers"])
    na = op_norm(a)
    tol = PSD_TOL * (1.0 + na)
    betas = matrices(results["betas"])
    if len(betas) != payload["N"] or len(results["norms"]) != payload["N"]:
        return f"expected {payload['N']} interpolants, got {len(betas)}"
    if abs(results["norm_a"] - na) > EQ_TOL * (1.0 + na):
        return "norm_a does not match the element"
    eye = np.eye(a.shape[0])
    for n, (beta, norm) in enumerate(zip(betas, results["norms"]), start=1):
        if not is_hermitian(beta):
            return f"beta_{n} is not hermitian"
        if span_residual(B, beta) > EQ_TOL * (1.0 + op_norm(beta)):
            return f"beta_{n} is not in B"
        if any(min_eig(beta - l + eye / n) < -tol for l in lowers):
            return f"beta_{n} is not above a lower bound minus I/{n}"
        if any(min_eig(u + eye / n - beta) < -tol for u in uppers):
            return f"beta_{n} is not below an upper bound plus I/{n}"
        if op_norm(beta) > (1.0 + payload["epsilon"] / n) * na + tol:
            return f"beta_{n} exceeds the norm cap"
        if abs(norm - op_norm(beta)) > EQ_TOL * (1.0 + norm):
            return f"reported norm of beta_{n} is wrong"
    return None


def farkas_violation(T, a, b, Z) -> str | None:
    """The Farkas identity for { x : a <= T(x) <= b, ||T(x)|| <= ||a|| }.

    The four blocks are T(x) - a, b - T(x), ||a|| I - T(x) and ||a|| I + T(x);
    a certificate Z_1..Z_4 >= 0 annihilates the linear part and is negative
    on the constant part.
    """
    if len(Z) != 4:
        return f"certificate has {len(Z)} blocks, expected 4"
    na = op_norm(a)
    scale = 1.0 + max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), na)
    for Zk in Z:
        ev = np.linalg.eigvalsh((Zk + Zk.conj().T) / 2.0)
        if ev[0] < -PSD_TOL * (1.0 + float(np.max(np.abs(ev)))):
            return "certificate block is not PSD"
    linear = Z[0] - Z[1] - Z[2] + Z[3]
    for t in T:
        if abs(pairing(linear, t)) > EQ_TOL * scale:
            return "certificate does not annihilate T"
    constant = -pairing(Z[0], a) + pairing(Z[1], b) + na * float(np.trace(Z[2] + Z[3]).real)
    if not constant < 0:
        return f"certificate is not negative on the constants ({constant:.3e})"
    return None


def check_instance(T, a, b, results):
    na = op_norm(a)
    tol = PSD_TOL * (1.0 + na)
    if abs(results["norm_a"] - na) > EQ_TOL * (1.0 + na):
        return "norm_a does not match a"
    if results["verdict"] == "FEASIBLE":
        bp = matrix(results["b_prime"])
        if span_residual(T, bp) > EQ_TOL * (1.0 + op_norm(bp)):
            return "b' is not in T"
        if min_eig(bp - a) < -tol or min_eig(b - bp) < -tol:
            return "b' is not between a and b"
        if op_norm(bp) > na + tol:
            return "b' exceeds the norm of a"
        return None
    if results["verdict"] == "INFEASIBLE":
        return farkas_violation(T, a, b, matrices(results["certificate"]))
    return f"unknown verdict {results['verdict']!r}"


def check_unperforated(payload, results, expect):
    S, T = matrices(payload["S"]), matrices(payload["T"])
    if "a" in payload:
        return check_instance(T, matrix(payload["a"]), matrix(payload["b"]), results)
    if results["verdict"] == "NO_COUNTEREXAMPLE":
        return None if results["trials"] == payload["trials"] else "trial count not echoed"
    if results["verdict"] != "INFEASIBLE":
        return "search returned an instance that is not a counterexample"
    a, b = matrix(results["a"]), matrix(results["b"])
    if span_residual(S, a) > EQ_TOL * (1.0 + op_norm(a)):
        return "counterexample a is not in S"
    if span_residual(T, b) > EQ_TOL * (1.0 + op_norm(b)):
        return "counterexample b is not in T"
    if min_eig(b - a) < -PSD_TOL * (1.0 + op_norm(a)):
        return "counterexample violates a <= b"
    return check_instance(T, a, b, results)


# ------------------------------------------------------------ extension


def check_witness(W, S, rho, t, endpoint, name):
    if not is_hermitian(W, 1e-8):
        return f"{name} is not hermitian"
    if min_eig(W) < -1e-8 or abs(float(np.trace(W).real) - 1.0) > 1e-8:
        return f"{name} is not a density"
    for s in S:
        v = pairing(rho, s)
        if abs(pairing(W, s) - v) > EQ_TOL * (1.0 + abs(v)):
            return f"{name} does not agree with the state on S"
    if abs(pairing(W, t) - endpoint) > 1e-5 * (1.0 + abs(endpoint)):
        return f"{name} does not attain its endpoint"
    return None


def check_extension_interval(payload, results, expect):
    S, rho, t = matrices(payload["S"]), matrix(payload["phi"]), matrix(payload["t"])
    lo, hi = results["min"], results["max"]
    v = pairing(rho, t)
    tol = EQ_TOL * (1.0 + abs(v))
    if not lo - tol <= v <= hi + tol:
        return f"the state's own value {v:.6g} lies outside [{lo:.6g}, {hi:.6g}]"
    if abs(results["length"] - (hi - lo)) > 1e-12 * (1.0 + abs(hi) + abs(lo)):
        return "length is not max - min"
    for key, endpoint in (("witness_min", lo), ("witness_max", hi)):
        reason = check_witness(matrix(results[key]), S, rho, t, endpoint, key)
        if reason:
            return reason
    return None


def check_uep(payload, results, expect):
    rho = matrix(payload["state"])
    if expect.get("must_hold") and results["holds"] is not True:
        return "a block-supported state on M2 + C lost the unique extension property"
    if results["holds"]:
        return None if "witness" not in results else "UEP holds but a witness is reported"
    t = matrix(results["witness"])
    if not is_hermitian(t, 1e-8):
        return "UEP witness is not hermitian"
    lo, hi = results["interval"]["min"], results["interval"]["max"]
    v = pairing(rho, t)
    if not lo - EQ_TOL * (1 + abs(v)) <= v <= hi + EQ_TOL * (1 + abs(v)):
        return f"the state's own value {v:.6g} lies outside [{lo:.6g}, {hi:.6g}]"
    if hi - lo <= UEP_TOL:
        return "UEP fails on a degenerate interval"
    return None


def apply_choi(J, X, n) -> np.ndarray:
    """Phi(X) for the Choi matrix J = sum_ij E_ij (x) Phi(E_ij)."""
    return np.einsum("ij,iajb->ab", X, J.reshape(n, n, n, n))


def check_boundary(payload, results, expect):
    S = matrices(payload["S"])
    n = S[0].shape[0]
    dev = results["max_deviation"]
    if dev < -EQ_TOL:
        return "negative deviation"
    if results["boundary"] != (dev <= 1e-6):
        return "boundary verdict disagrees with the deviation"
    if ("witness_choi" in results) == results["boundary"]:
        return "a witness map must come exactly with a non-boundary verdict"
    if results["boundary"]:
        return None
    J = matrix(results["witness_choi"])
    if J.shape != (n * n, n * n) or min_eig(J) < -PSD_TOL:
        return "witness Choi matrix is not PSD"
    for X in [np.eye(n)] + S:
        if np.linalg.norm(apply_choi(J, X, n) - X) > EQ_TOL * (1.0 + np.linalg.norm(X)):
            return "witness map does not fix S and the identity"
    J_id = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            J_id[i * n + i, j * n + j] = 1.0
    if np.linalg.norm(J - J_id) <= 1e-7:
        return "witness map is the identity"
    return None


# -------------------------------------------------------------- algebra


def block_frame(expect, n):
    """Rotated block projections of the algebra the document was built on."""
    if expect["full"]:
        return [np.eye(n, dtype=complex)]
    U = expect["rotation"]
    out, offset = [], 0
    for k in expect["partition"]:
        P = np.zeros((n, n), dtype=complex)
        P[offset:offset + k, offset:offset + k] = np.eye(k)
        out.append(U @ P @ U.conj().T)
        offset += k
    return out


def check_purity(payload, results, expect):
    if results["pure"] is not expect["pure"]:
        return f"purity verdict {results['pure']} contradicts the construction"
    return None


def check_decompose(payload, results, expect):
    rho = matrix(payload["state"])
    n = rho.shape[0]
    blocks = block_frame(expect, n)
    canonical = sum(P @ rho @ P for P in blocks)
    atoms = results["atoms"]
    if not atoms:
        return "no atoms"
    mass = np.zeros(len(blocks))
    recon = np.zeros((n, n), dtype=complex)
    for atom in atoms:
        w, D = atom["weight"], matrix(atom["density"])
        if not w > 0:
            return "atom weight is not positive"
        ev = np.linalg.eigvalsh((D + D.conj().T) / 2.0)
        if ev[0] < -1e-8 or abs(float(np.sum(ev)) - 1.0) > 1e-8:
            return "atom density is not a density"
        if n > 1 and ev[-2] > 1e-7:
            return "atom is not a vector state"
        inside = [i for i, P in enumerate(blocks) if pairing(P, D) > 1.0 - 1e-7]
        if len(inside) != 1:
            return "atom is not supported in a single block"
        mass[inside[0]] += w
        recon += w * D
    if abs(float(sum(a["weight"] for a in atoms)) - 1.0) > 1e-9:
        return "atom weights do not sum to 1"
    if np.linalg.norm(recon - canonical) > 1e-7 * (1.0 + np.linalg.norm(canonical)):
        return "atoms do not reconstruct the state on the algebra"
    for i, P in enumerate(blocks):
        if abs(mass[i] - pairing(P, rho)) > 1e-7:
            return f"atom weights in block {i} do not match the state's mass there"
    if expect["pure"] and len(atoms) != 1:
        return "a pure state decomposed into several atoms"
    return None


def check_korovkin(payload, results, expect):
    n, g = payload["n"], payload["grid_size"]
    dev = results["deviations"]
    if results["n"] != n or results["grid_size"] != g:
        return "degree or grid size not echoed"
    if set(dev) != {"1", "x", "x^2", *payload["functions"]}:
        return "deviation table has the wrong functions"
    if not all(np.isfinite(v) and v >= 0 for v in dev.values()):
        return "deviation is not a finite nonnegative number"
    if dev["1"] > 1e-9 or dev["x"] > 1e-9:
        return "B_n does not reproduce 1 and x"
    quarter = 1.0 / (4 * n)
    if g % 2 == 1 and abs(dev["x^2"] - quarter) > 1e-9 * quarter:
        return f"x^2 deviation {dev['x^2']!r} is not 1/(4n) on a grid containing 1/2"
    if dev["x^2"] > quarter * (1.0 + 1e-9):
        return "x^2 deviation exceeds 1/(4n)"
    return None


CHECKERS = {
    "riesz": check_riesz,
    "unperforated": check_unperforated,
    "uep": check_uep,
    "extension-interval": check_extension_interval,
    "boundary": check_boundary,
    "purity": check_purity,
    "decompose": check_decompose,
    "korovkin": check_korovkin,
}


def check_report(doc, report: dict) -> str | None:
    """None when the report answers the document correctly."""
    kind = doc.kind
    if report.get("schema") != "opsyslab/1" or report.get("kind") != kind:
        return "report schema or kind is wrong"
    try:
        return CHECKERS[kind](doc.payload, report["results"], doc.expect)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
