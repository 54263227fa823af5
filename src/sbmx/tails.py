"""Exact tail probabilities, threshold functions, and exponent formulas.

Everything here is computed in natural-log space: the tails of interest decay
like n^(-c) with c growing in log(n), and reach 1e-300 scales well before the
graph sizes of interest. Probability mass functions use the log-gamma
function, sums use log-sum-exp, and any support truncation is certified by a
Chernoff bound on the discarded mass (reported, never silent).

The central object is the tail of a difference of independent binomials,

    P( Z - W >= s ),   Z ~ Binomial(m_z, q),  W ~ Binomial(m_w, p),

which drives both the impossibility and the achievability side of the
recovery threshold f(alpha, beta) = (alpha+beta)/2 - sqrt(alpha*beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .model import SbmParams

__all__ = [
    "ThresholdVerdict",
    "TailResult",
    "ExponentInputs",
    "EventSchedule",
    "recovery_threshold",
    "diff_binomial_tail",
    "margin_schedule",
    "node_margin_tail",
    "log_dominant_term",
    "dominant_tilt",
    "tilt_objective",
    "tail_exponent",
    "log_dominant_term_max",
    "ml_failure_upper_bound",
    "chernoff_multiplicative_upper",
    "mislabel_exponent",
]

FULL_CONVOLUTION_LIMIT = 2000
TRUNCATION_MASS = 1e-15


@dataclass(frozen=True)
class ThresholdVerdict:
    """Recovery threshold evaluation at a parameter pair (alpha, beta).

    recoverable is f > 1; connectivity_ok is the necessary condition
    (alpha+beta)/2 > 1; equivalent_form_ok is the quadratic restatement
    (alpha-beta)^2 > 4(alpha+beta) - 4 together with alpha+beta > 2.
    """

    f_value: float
    recoverable: bool
    connectivity_ok: bool
    equivalent_form_ok: bool

    def to_dict(self) -> dict:
        return {
            "f_value": self.f_value,
            "recoverable": self.recoverable,
            "connectivity_ok": self.connectivity_ok,
            "equivalent_form_ok": self.equivalent_form_ok,
        }


@dataclass(frozen=True)
class TailResult:
    """An exact (or certified-truncation) tail probability.

    truncation_error_bound is an absolute bound on |true - computed|; it is
    exactly 0 for full convolutions.
    """

    probability: float
    log_probability: float
    truncation_error_bound: float
    method: str

    def to_dict(self) -> dict:
        return {
            "probability": self.probability,
            "log_probability": self.log_probability,
            "truncation_error_bound": self.truncation_error_bound,
            "method": self.method,
        }


@dataclass(frozen=True)
class ExponentInputs:
    """Arguments of the dominant-term function: counts are tilt*(m/n)*log(n)."""

    alpha: float
    beta: float
    epsilon: float
    tau: float
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m <= 0 or self.n <= 0:
            raise ValueError("m and n must be positive")
        if self.n % 2 != 0:
            raise ValueError("n must be even")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")


@dataclass(frozen=True)
class EventSchedule:
    """Group sizes and margins used by the per-node failure events.

    group_scale = log(n)^3, margin = ceil(log(n)/loglog(n)), and
    subset_size = floor(n / group_scale) clamped up to 1 (the literal floor
    is 0 for n < 94, which would make the event vacuous).
    """

    n: int
    group_scale: float
    margin: int
    subset_size: int


def recovery_threshold(alpha: float, beta: float) -> ThresholdVerdict:
    """Evaluate f(alpha, beta) = (alpha+beta)/2 - sqrt(alpha*beta)."""
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be nonnegative")
    f = (alpha + beta) / 2.0 - math.sqrt(alpha * beta)
    connectivity = (alpha + beta) / 2.0 > 1.0
    equivalent = ((alpha - beta) ** 2 > 4.0 * (alpha + beta) - 4.0) and (
        alpha + beta > 2.0
    )
    return ThresholdVerdict(
        f_value=f,
        recoverable=f > 1.0,
        connectivity_ok=connectivity,
        equivalent_form_ok=equivalent,
    )


def _binom_logpmf(k: np.ndarray, m: int, p: float) -> np.ndarray:
    """log P(Binomial(m, p) = k) on an integer array, exact in log space."""
    k = np.asarray(k, dtype=np.float64)
    if p == 0.0:
        return np.where(k == 0, 0.0, -np.inf)
    if p == 1.0:
        return np.where(k == m, 0.0, -np.inf)
    return (
        gammaln(m + 1)
        - gammaln(k + 1)
        - gammaln(m - k + 1)
        + k * math.log(p)
        + (m - k) * math.log1p(-p)
    )


def _upper_cutoff(m: int, p: float, eps: float) -> tuple[int, float]:
    """Smallest cutoff c with certified P(Binomial(m,p) > c) <= eps.

    Returns (c, bound) where bound is the Chernoff certificate for the
    discarded upper tail, or (m, 0.0) when no truncation is needed.
    """
    mu = m * p
    if mu == 0.0:
        return 0, 0.0
    # phi(t) = mu*(t*log(t) - t + 1) is the Chernoff exponent, increasing for t >= 1
    need = -math.log(eps)

    def phi(t: float) -> float:
        return mu * (t * math.log(t) - t + 1.0)

    t_hi = 2.0
    while phi(t_hi) < need:
        t_hi *= 2.0
        if t_hi * mu >= m:
            return m, 0.0
    t_lo = 1.0
    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        if phi(mid) < need:
            t_lo = mid
        else:
            t_hi = mid
    c = int(math.ceil(t_hi * mu))
    if c >= m:
        return m, 0.0
    return c, chernoff_multiplicative_upper(mu, (c + 1) / mu)


def diff_binomial_tail(
    m_z: int,
    m_w: int,
    p: float,
    q: float,
    s,
    *,
    full_limit: int = FULL_CONVOLUTION_LIMIT,
    truncation_mass: float = TRUNCATION_MASS,
) -> TailResult:
    """Exact P(Z - W >= s) for Z ~ Binomial(m_z, q), W ~ Binomial(m_w, p).

    Z - W is integer valued, so a non-integer threshold s is ceiled (this is
    an identity, not an approximation). Full convolution is used while both
    counts stay below full_limit; beyond that, each binomial support is cut
    at the point where the Chernoff-certified discarded mass is below
    truncation_mass, and the total discarded mass is reported.
    """
    if m_z < 0 or m_w < 0:
        raise ValueError("binomial counts must be nonnegative")
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("p and q must lie in [0, 1]")
    s_eff = int(math.ceil(s))
    if s_eff > m_z:
        return TailResult(0.0, -np.inf, 0.0, "full-convolution")
    if s_eff <= -m_w:
        # Z - W >= -m_w always holds
        return TailResult(1.0, 0.0, 0.0, "full-convolution")

    full = max(m_z, m_w) <= full_limit
    if full:
        hi_z, err_z = m_z, 0.0
        hi_w, err_w = m_w, 0.0
        method = "full-convolution"
    else:
        hi_z, err_z = _upper_cutoff(m_z, q, truncation_mass / 2.0)
        hi_w, err_w = _upper_cutoff(m_w, p, truncation_mass / 2.0)
        method = "truncated-convolution"

    log_pmf_z = _binom_logpmf(np.arange(hi_z + 1), m_z, q)
    # suffix log-sums: log_tail[t] = log P(Z in [t, hi_z])
    log_tail = np.logaddexp.accumulate(log_pmf_z[::-1])[::-1]

    kw = np.arange(hi_w + 1)
    log_pmf_w = _binom_logpmf(kw, m_w, p)
    t = kw + s_eff
    idx = np.clip(t, 0, hi_z + 1)
    padded = np.concatenate([log_tail, [-np.inf]])
    tail_at = np.where(t <= 0, 0.0, padded[idx])
    log_t = float(logsumexp(log_pmf_w + tail_at))
    log_t = min(log_t, 0.0)
    prob = float(min(1.0, math.exp(log_t)))
    return TailResult(prob, log_t, err_z + err_w, method)


def margin_schedule(n: int) -> EventSchedule:
    """Schedule (group scale, margin, subset size) for the failure events."""
    if n < 16:
        raise ValueError("schedule requires n >= 16 so that loglog(n) > 0")
    log_n = math.log(n)
    group_scale = log_n**3
    margin = int(math.ceil(log_n / math.log(log_n)))
    subset_size = max(1, int(math.floor(n / group_scale)))
    return EventSchedule(
        n=n, group_scale=group_scale, margin=margin, subset_size=subset_size
    )


def node_margin_tail(n: int, alpha: float, beta: float) -> TailResult:
    """Exact probability of the single-node cross-margin failure event.

    This is the tail P(Z - W >= margin) with Z the cross-edge count of one
    planted node (n/2 trials at q) and W its within-edge count excluding the
    scheduled subset (n/2 - subset_size trials at p).
    """
    params = SbmParams(n, alpha, beta)
    sched = margin_schedule(n)
    return diff_binomial_tail(
        n // 2, n // 2 - sched.subset_size, params.p, params.q, sched.margin
    )


def _log_binom_real(m: int, x: float) -> float:
    """Generalized binomial coefficient log C(m, x) for real 0 <= x <= m."""
    return float(gammaln(m + 1) - gammaln(x + 1) - gammaln(m - x + 1))


def log_dominant_term(inputs: ExponentInputs) -> float:
    """Natural log of the dominant probability term at a given tilt.

    The term is the product of two generalized binomial coefficients and the
    corresponding success/failure powers, with counts tau*(m/n)*log(n) for
    the p-side and (tau+epsilon)*(m/n)*log(n) for the q-side. Counts are
    evaluated with the log-gamma generalization rather than floored.
    """
    m, n = inputs.m, inputs.n
    log_n = math.log(n)
    scale = (m / n) * log_n
    c_w = inputs.tau * scale
    c_z = (inputs.tau + inputs.epsilon) * scale
    if c_w < 0 or c_z < 0:
        raise ValueError("tilt gives a negative count")
    if c_w > m or c_z > m:
        raise ValueError("count exceeds the number of trials m")
    p = inputs.alpha * log_n / n
    q = inputs.beta * log_n / n
    if p > 1.0 or q > 1.0:
        raise ValueError("alpha or beta too large: edge probability exceeds 1")
    total = _log_binom_real(m, c_w) + _log_binom_real(m, c_z)
    for count, prob in ((c_w, p), (c_z, q)):
        if count > 0.0:
            if prob == 0.0:
                return -np.inf
            total += count * math.log(prob)
        total += (m - count) * math.log1p(-prob)
    return float(total)


def dominant_tilt(alpha: float, beta: float, epsilon: float) -> float:
    """Tilt maximizing the dominant term: -eps/2 + sqrt((eps/2)^2 + alpha*beta).

    Satisfies tilt*(tilt+epsilon) = alpha*beta exactly. Negative epsilon is
    allowed (used by the mislabeling exponent); positivity only needs
    alpha*beta > 0.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    half = epsilon / 2.0
    return -half + math.sqrt(half * half + alpha * beta)


def tilt_objective(alpha: float, beta: float, tau: float, epsilon: float) -> float:
    """The function minimized over the tilt, whose minimum is tail_exponent.

    h(tau) = (tau+eps)*log((tau+eps)/e) + tau*log(tau/e)
             - tau*log(alpha*beta) - eps*log(beta) + (alpha+beta)
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if tau < 0 or tau + epsilon < 0:
        raise ValueError("tau and tau+epsilon must be nonnegative")

    def xlogx_over_e(x: float) -> float:
        return 0.0 if x == 0.0 else x * (math.log(x) - 1.0)

    return (
        xlogx_over_e(tau + epsilon)
        + xlogx_over_e(tau)
        - tau * math.log(alpha * beta)
        - epsilon * math.log(beta)
        + (alpha + beta)
    )


def tail_exponent(alpha: float, beta: float, epsilon: float) -> float:
    """Closed-form exponent governing n^(-g) tail decay.

    Equals tilt_objective evaluated at the dominant tilt. At epsilon = 0 it
    reduces to alpha + beta - 2*sqrt(alpha*beta), twice the threshold
    function. Accepts negative epsilon whenever alpha*beta > 0.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    half = epsilon / 2.0
    root = math.sqrt(half * half + alpha * beta)
    if root <= abs(half):
        raise ValueError("degenerate exponent: sqrt((eps/2)^2+ab) <= |eps|/2")
    return (
        (alpha + beta)
        - epsilon * math.log(beta)
        - 2.0 * root
        + half * math.log(alpha * beta * (root + half) / (root - half))
    )


def log_dominant_term_max(
    m: int,
    n: int,
    alpha: float,
    beta: float,
    epsilon: float,
    *,
    grid_points: int = 81,
) -> float:
    """Maximum of the dominant term over the tilt.

    Evaluated at the closed-form optimizer plus a +/-10 percent local grid,
    guarding the gap between the real-valued count formula and the discrete
    optimum. The asymptotic sandwich against tail_exponent is only validated
    at m = n/2; other m fall outside the checked regime.
    """
    center = dominant_tilt(alpha, beta, epsilon)
    taus = center * np.linspace(0.9, 1.1, grid_points)
    best = -np.inf
    for tau in taus:
        if tau < 0 or tau + epsilon < 0:
            continue
        try:
            val = log_dominant_term(
                ExponentInputs(alpha=alpha, beta=beta, epsilon=epsilon, tau=float(tau), m=m, n=n)
            )
        except ValueError:
            continue
        best = max(best, val)
    if best == -np.inf:
        raise ValueError("no feasible tilt in the refinement grid")
    return float(best)


def ml_failure_upper_bound(n: int, alpha: float, beta: float) -> float:
    """Union bound on the probability that min-bisection misses the truth.

    Sum over swap sizes k = 1..n/4 of C(n/2, k)^2 times the exact tail
    P(Z >= W) over 2k(n/2-k) cross/within pair comparisons. This is a bound,
    not a probability; it can exceed 1.
    """
    params = SbmParams(n, alpha, beta)
    half = n // 2
    total = -np.inf
    for k in range(1, n // 4 + 1):
        pairs = 2 * k * (half - k)
        tail = diff_binomial_tail(pairs, pairs, params.p, params.q, 0)
        log_choose = _log_binom_real(half, k)
        total = np.logaddexp(total, 2.0 * log_choose + tail.log_probability)
    return float(np.exp(total))


def chernoff_multiplicative_upper(mu: float, t: float) -> float:
    """Multiplicative Chernoff bound P(X >= t*mu) <= (e^(t-1)/t^t)^mu."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if t < 1:
        raise ValueError("t must be at least 1")
    return math.exp(mu * (t - 1.0 - t * math.log(t)))


def mislabel_exponent(alpha: float, beta: float, delta_c: float) -> float:
    """Exponent of the per-node mislabeling probability after local flips.

    With corruption fraction delta_c, the amplification factor is
    gamma = 1/(delta_c*sqrt(log(1/delta_c))), and the exponent is the tail
    exponent at the negative argument -gamma*delta_c. It converges to twice
    the threshold function as delta_c -> 0.
    """
    if not 0.0 < delta_c < 1.0:
        raise ValueError("delta_c must lie in (0, 1)")
    eps = -1.0 / math.sqrt(math.log(1.0 / delta_c))
    return tail_exponent(alpha, beta, eps)
