"""The four workloads: what one pass runs, and why each exists.

A pass is a fixed list of calls into the public API; a run repeats passes
with fresh seeds until the measured time reaches --seconds, so every pass of
a workload has the same composition and per-pass rates can be compared.
README.md gives the layer -> metric -> workload map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

DEFAULT_SEED = 1
# never used while the benchmark or a change measured by it is written, so a
# later claim can be re-checked on it
HELD_OUT_SEED = 20261017


def grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive range, as `sbmx phase` parses START:STOP:STEP."""
    count = int((stop - start) / step + 1e-9) + 1
    return tuple(start + i * step for i in range(count))


@dataclass(frozen=True)
class Sweep:
    """One phase_diagram call over alphas x betas with `trials` per cell."""

    method: str
    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    trials: int = 1

    @property
    def cells(self) -> list[tuple[float, float]]:
        return [(a, b) for a in self.alphas for b in self.betas]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    sweeps: tuple[Sweep, ...] = ()
    # single run_trial calls: (method, alpha, beta)
    points: tuple[tuple[str, float, float], ...] = ()
    # re-run the first pass's sweeps with workers=2, off the clock, and
    # require the same success counts
    pool_check: bool = False
    split_c: float | None = None
    # evaluate tails.ml_failure_upper_bound once per sweep cell
    ml_bounds: bool = False

    @property
    def options(self) -> dict:
        return {} if self.split_c is None else {"split_c": self.split_c}

    @property
    def trials_per_pass(self) -> int:
        return sum(len(s.cells) * s.trials for s in self.sweeps) + len(self.points)

    def smoke(self) -> "Workload":
        """A one-cell pass of the same kind, for the self-tests."""
        sweeps = tuple(Sweep(s.method, s.alphas[:1], s.betas[:1], 1) for s in self.sweeps[:1])
        return replace(self, sweeps=sweeps, points=self.points[:2])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cert-n300",
            "the paper's headline certificate sweep on one process; graph build dominates",
            300,
            sweeps=(Sweep("certificate", grid(4, 40, 4), grid(0, 10, 2)),),
            pool_check=True,
        ),
        Workload(
            "sdp-n300",
            "SDP solver sweep at n=300 on cells with f(alpha, beta) from 2 to 11",
            300,
            # cells with f < 2 are left out: there one solve takes seconds
            # (5-20 s below f = 1) on some instances, which spread
            # trials_per_s across seeds beyond any usable bound
            sweeps=(
                Sweep("sdp", (12.0, 16.0, 24.0, 32.0), (1.0,), 2),
                Sweep("sdp", (16.0, 24.0, 32.0), (4.0,), 2),
            ),
        ),
        Workload(
            "scale-n2000",
            "certificate and spectral two-phase at n=2000, where the dense O(n^2) paths dominate",
            2000,
            points=(
                ("certificate", 20.0, 2.0),
                ("two-phase", 20.0, 2.0),
                ("two-phase", 30.0, 4.0),
            ),
            # the default split_c = 8 is infeasible below n = e^8
            split_c=1.0,
        ),
        Workload(
            "ml-n22",
            "exhaustive ML sweep with its union bound per cell, the impossibility side",
            22,
            sweeps=(Sweep("ml", grid(3, 7, 1), (0.5, 1.0, 2.0), 2),),
            ml_bounds=True,
        ),
    )
}
