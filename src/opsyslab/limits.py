"""Every advertised size and work limit, each with the measured cost that
sets it (one BLAS thread, 2-core x86-64 box).  Past a limit a document
exits 2 naming its field, and a library call raises InputError."""

# Matrix dimension: a checked eigendecomposition of a 64 x 64 takes 1.5 ms.
MAX_DIM = 64
# Algebra ambient dimension: the closure check forms all k^2 products of a
# basis (k^3 n^2 work); full M16 given as 256 spanning matrices takes 2.6 s.
MAX_AMBIENT = 16
# Elements of a subspace basis (dim M_n, n <= MAX_AMBIENT): independence is
# read from Gram eigenvalues, 25 ms for the 256 hermitian units of M16.
MAX_COEFFICIENT_DIM = MAX_AMBIENT**2
# UCP fixed-set extent: its Choi matrices are n^2 x n^2; `boundary` on M4
# takes 0.4 to 0.7 s.
MAX_CHOI_AMBIENT = 4
# Variables of one optimization program (`sdp.SdpProblem`, and the face that
# `spectrahedron.optimize_linear` ranges over); a feasibility program in 128
# of them on a 16 x 16 block takes 33 ms.  Feasibility programs are exempt:
# facial reduction's face search poses them over all n^2 - dim S coordinates
# of an extension set.
MAX_VARIABLES = 128
# Work of one document, each at most about a minute at the largest size
# measured (full M8): N = 1000 riesz steps with one lower and one upper
# bound, one batch of feasibility SDPs, took 7-9 s (peak RSS 80 MB), an
# automatic bound pair two warm-started solves (about 40 ms), a search
# trial one instance SDP (26 ms).
MAX_RIESZ_N = 1000
MAX_AUTO_BOUNDS = 100
MAX_TRIALS = 2000
# Work of one korovkin demo: at the largest degree a grid point costs about
# 19 us, so the largest grid takes 14 s.
MAX_DEGREE = 2000
MAX_GRID_SIZE = 750_000
