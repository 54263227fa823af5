"""The two-phase pipeline: split, partial recovery, one round of local flips.

The cheating oracle corrupts the truth by an exact fraction per side, which
isolates the local-improvement step; the spectral oracle is a real
partial-recovery stand-in. The splitting constant must satisfy
c <= log(n): the pair-sampling probability is c/log(n). Every run goes
through `harness.recover`, the same call a seeded trial and `sbmx recover`
make.

Run: python demos/05_two_phase_pipeline.py
"""

import numpy as np

from sbmx import SbmParams, generate_sbm
from sbmx.harness import recover
from sbmx.seeding import derive_seed

params = SbmParams(300, 10, 1)
g, truth = generate_sbm(params, seed=2)

# one run with a 10 percent corrupted oracle, read from its diagnostics
out = recover("two-phase", g, truth, 2, split_c=1.0, oracle="cheating", oracle_delta=0.1)
d = out.diagnostics
print(f"split: |E(G)|={g.m}, |E(G1)|={d['g1_edges']}, |E(G2)|={d['g2_edges']} (exact partition)")
print(f"oracle output agreement: {d['oracle_agreement']:.3f}")
print(f"after one flip round:    {out.agreement:.3f} ({d['flips_applied']} labels flipped)")

# success statistics over seeded trials
trials = 20
wins = 0
for t in range(trials):
    seed = derive_seed(3000, t)
    gg, tt = generate_sbm(params, seed)
    wins += recover(
        "two-phase", gg, tt, seed, split_c=1.0, oracle="cheating", oracle_delta=0.1
    ).success
print(f"\nexact recovery with the cheating oracle: {wins}/{trials} trials (f(10,1) = 2.34)")

# the spectral oracle needs no truth at all; the truth only scores the result
spectral_agreements = []
for t in range(10):
    seed = derive_seed(4000, t)
    gg, tt = generate_sbm(SbmParams(300, 20, 1), seed)
    spectral_agreements.append(recover("two-phase", gg, tt, seed, split_c=1.0).agreement)
print(f"spectral oracle at (300, 20, 1): mean agreement {np.mean(spectral_agreements):.3f}")

# no signal at alpha = beta: the flip rule cannot repair the corruption, so
# the cheating oracle stays pinned at 0.9 and never reaches exact recovery,
# while the truth-blind spectral oracle degrades to a coin flip
null_cheat, null_spec, exact = [], [], 0
for t in range(10):
    seed = derive_seed(5000, t)
    gg, tt = generate_sbm(SbmParams(300, 4, 4), seed)
    cheat = recover("two-phase", gg, tt, seed, split_c=1.0, oracle="cheating", oracle_delta=0.1)
    exact += cheat.success
    null_cheat.append(cheat.agreement)
    null_spec.append(recover("two-phase", gg, tt, seed, split_c=1.0).agreement)
print(
    f"alpha = beta = 4: cheating oracle mean {np.mean(null_cheat):.3f} "
    f"(exact recoveries {exact}/10), spectral oracle mean {np.mean(null_spec):.3f}"
)
