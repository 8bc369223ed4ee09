"""Every advertised size and work limit, each with the measured cost that
sets it (one BLAS thread, 2-core x86-64 box).  Past a limit a document
exits 2 naming its field, and a library call raises InputError."""

# Matrix dimension: a checked eigendecomposition of a 64 x 64 takes 1.5 ms.
MAX_DIM = 64
# Algebra ambient dimension: the closure check forms all k^2 products of a
# basis (k^3 n^2 work); M15 (+) C, the largest proper algebra in M16, given
# as its 226 matrix units takes 1.0 to 1.3 s (peak RSS 98 MB).  A list that
# spans M_n is closed by definition and skips the check.
MAX_AMBIENT = 16
# Elements of a subspace basis (dim M_n, n <= MAX_AMBIENT): independence is
# read from Gram eigenvalues, 25 ms for the 256 hermitian units of M16.
MAX_COEFFICIENT_DIM = MAX_AMBIENT**2
# UCP fixed-set extent: its Choi matrices are n^2 x n^2; `boundary` on M4
# takes 0.4 to 0.7 s.
MAX_CHOI_AMBIENT = 4
# Variables of one optimization program (`sdp.SdpProblem`, and the face that
# `spectrahedron.optimize_linear` ranges over), whose count per document grows
# with trials, bound pairs or faces: one search trial in the 144 of full M12
# takes 50 ms.  A feasibility program (an instance, a riesz step, a face
# search) is bounded by MAX_COEFFICIENT_DIM or MAX_FACE_SEARCH instead; the
# worst, 256 variables on a 64 x 64 block, takes 1.5 to 1.7 s (448 MB).
MAX_VARIABLES = 128
# Coordinates of the face that one round of facial reduction searches
# (`spectrahedron.reduce_spectrahedron`), every face inside M40: the search
# on the 1598 coordinates of span{I, E11}'s extension set at E11 took 5.6 s
# and 625 MB of peak RSS on M40, 1.5 to 2.3 s and 291 MB on M32.
MAX_FACE_SEARCH = 40 * 40
# Work of one document, each at most about a minute at the largest size
# measured (full M8): N = 1000 riesz steps with one lower and one upper
# bound, one batch of feasibility SDPs, took 8-12 s (peak RSS 76 MB), the
# 100 automatic bound pairs one batch of 200 warm-started solves (the whole
# document with N = 1, 1.2 s and 116 MB), a search trial a generation solve
# and one instance SDP (18-25 ms).
MAX_RIESZ_N = 1000
MAX_AUTO_BOUNDS = 100
MAX_TRIALS = 2000
# Work of one korovkin demo: at the largest degree a grid point costs about
# 19 us, so the largest grid takes 14 s.
MAX_DEGREE = 2000
MAX_GRID_SIZE = 750_000
# Complex entries in one block of a batched array computation (16 MB), the
# working set of every batch (`chunks`).  Smaller blocks cost loop passes:
# riesz N = 1000 on full M8 with scalar bounds 1/2 outside a's spectrum took
# 4.7-4.9 s (peak RSS 70 MB) with it, 5.4 s (55 MB) with 2^18.  Larger ones cost memory: the closure check of M15 (+) C
# peaked at 98 MB with it, 284 MB with 2^22, in 1.0 to 1.3 s either way.
BLOCK_ENTRIES = 1 << 20


def chunks(count: int, entries_each: int) -> list:
    """Slices of range(count) such that the items of one slice, each of
    `entries_each` entries, hold at most BLOCK_ENTRIES entries (at least one
    item a slice)."""
    step = max(1, BLOCK_ENTRIES // max(1, entries_each))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]
