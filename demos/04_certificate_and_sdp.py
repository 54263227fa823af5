"""Dual-certificate checks and the low-rank solver for the relaxation.

The certificate matrix 2L + 11^T annihilates the planted labeling exactly;
when it is PSD with a strictly positive second-smallest eigenvalue, the
relaxation provably has the planted partition as its unique optimum, so
recovery can be certified without running any solver.

Run: python demos/04_certificate_and_sdp.py
"""

import math

import numpy as np

from sbmx import SbmParams, agreement, generate_sbm
from sbmx.sdp import (
    SdpConfig,
    certificate_check,
    expected_certificate_matrix,
    sdp_solve,
    signed_adjacency,
    smallest_eigenvalues,
)
from sbmx.seeding import derive_seed

# expectation: closed-form spectrum
params = SbmParams(100, 5, 1)
mat = expected_certificate_matrix(params)
vals = np.sort(np.linalg.eigvalsh(mat))
log_n = math.log(100)
print("expected certificate matrix at (n=100, alpha=5, beta=1)")
print(f"  smallest eigenvalue:  {vals[0]:.2e}   (exactly 0, on the labeling)")
print(f"  bulk eigenvalue:      {vals[1]:.5f} (= (alpha-beta) log n = {4 * log_n:.5f})")
print(f"  largest eigenvalue:   {vals[-1]:.5f} (= n - 2 beta log n = {100 - 2 * log_n:.5f})")

# one strongly separated instance: certificate holds, solver agrees
strong = SbmParams(100, 20, 1)
g, truth = generate_sbm(strong, seed=5)
rep = certificate_check(g, truth)
print(f"\ninstance at (100, 20, 1): certified={rep.certified}")
print(f"  lambda_min={rep.lambda_min:.3e}, lambda_2={rep.lambda_2:.3f}, residual={rep.g_residual}")

sol = sdp_solve(signed_adjacency(g), SdpConfig(seed=derive_seed(5, 1)))
print(f"  solver objective {sol.objective:.1f}, truth objective {float(truth @ signed_adjacency(g) @ truth):.1f}")
print(f"  rounded labeling recovers truth: {agreement(sol.rounded, truth) == 1.0}")

# no signal: the certificate must fail
null = SbmParams(100, 4, 4)
g0, truth0 = generate_sbm(null, seed=5)
rep0 = certificate_check(g0, truth0)
print(f"\ninstance at (100, 4, 4): certified={rep0.certified} (lambda_2={rep0.lambda_2:.3f})")

# the subset eigensolver matches a full dense eigvalsh on the bottom of the spectrum
m = signed_adjacency(g).astype(float)
bottom = smallest_eigenvalues(m, 3)
dense = np.sort(np.linalg.eigvalsh(m))[:3]
print(f"\neigensolver check on B: {np.round(bottom.values, 6)} vs dense {np.round(dense, 6)}")
