"""Closed-form filtering and stopping quantities for the tractable priors.

Four families admit explicit posterior formulas: Gaussian (the scalar
Kalman-Bucy case), two-point Bernoulli (time-homogeneous), half-normal, and
the symmetric two-Gaussian mixture.  Everything here is independent of the
quadrature pipeline and serves as its oracle; it needs only ``math`` and
numpy.

Conventions: F(t,y) is the normalizing integral of exp(u*y - u^2 t/2) against
the prior, G its logarithmic y-gradient (posterior mean), H = DG (posterior
variance), and Psi(t,x) = H at the observation level where the posterior mean
equals x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "FilterAnalytics",
    "BernoulliSolution",
    "MonotoneCheck",
    "gaussian_analytics",
    "gaussian_tau_star",
    "gaussian_value",
    "bernoulli_analytics",
    "bernoulli_psi",
    "bernoulli_solve",
    "halfnormal_analytics",
    "halfnormal_H",
    "halfnormal_monotone_check",
    "mixture_analytics",
    "mixture_H",
    "mixture_boundary_thresholds",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class FilterAnalytics(NamedTuple):
    F: float
    G: float
    H: float
    psi: float


def _log_ndtr(z: float) -> float:
    """ln Phi(z) in relative terms on both tails: within 4e-16 for z <= 0, and
    within math.erfc's own error (under 2e-13 up to z = 37) above.

    Below z = -5 it uses Phi(z) = phi(z) / f(-z), with Laplace's continued
    fraction f(x) = x + 1/T2, T2 = x + 2/T3, T3 = x + 3/(x + 4/(x + ...))
    (``_tail_fractions``), which is within 8e-17 relative of f for every x >= 5.
    """
    if z > 0.0:
        return math.log1p(-0.5 * math.erfc(z / math.sqrt(2.0)))
    if z >= -5.0:
        return math.log(0.5 * math.erfc(-z / math.sqrt(2.0)))
    t2, _ = _tail_fractions(-z)
    return -0.5 * z * z - _LOG_SQRT_2PI - math.log(-z + 1.0 / t2)


def _tail_fractions(x: float) -> tuple[float, float]:
    """The tails T2 and T3 of Laplace's continued fraction at x, evaluated from its 40th term in."""
    t = x
    for k in range(40, 2, -1):
        t = x + k / t
    return x + 2.0 / t, t


def _mills(z: float) -> float:
    """phi(z) / Phi(z), computed through _log_ndtr so both tails stay accurate."""
    return math.exp(-0.5 * z * z - _LOG_SQRT_2PI - _log_ndtr(z))


def _safe_exp(log_value: float) -> float:
    return math.exp(log_value) if log_value < 709.0 else math.inf


# ---------------------------------------------------------------------------
# Gaussian prior N(m, sigma2)
# ---------------------------------------------------------------------------


def gaussian_analytics(m: float, sigma2: float, t: float, y: float) -> FilterAnalytics:
    """F, G, H and Psi for a Gaussian prior; Psi = H depends on t only."""
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    d = 1.0 + sigma2 * t
    F = _safe_exp(((m + sigma2 * y) ** 2 / d - m * m) / (2.0 * sigma2) - 0.5 * math.log(d))
    G = (m + sigma2 * y) / d
    H = sigma2 / d
    return FilterAnalytics(F=F, G=G, H=H, psi=H)


def gaussian_tau_star(sigma2: float, c: float) -> float:
    """Optimal deterministic observation span (1/sqrt(c) - 1/sigma2)^+."""
    return max(1.0 / math.sqrt(c) - 1.0 / sigma2, 0.0)


def gaussian_value(sigma2: float, c: float, t: float) -> float:
    """Value of observing from t until tau*, in closed form.

    Integrates c - xi^2(t+s) over s in [0, (tau*-t)^+] via the antiderivative
    c*s + sigma2/(1 + sigma2*(t+s)); zero once t >= tau*.
    """
    s_star = max(gaussian_tau_star(sigma2, c) - t, 0.0)
    if s_star == 0.0:
        return 0.0
    anti = lambda s: c * s + sigma2 / (1.0 + sigma2 * (t + s))
    return anti(s_star) - anti(0.0)


# ---------------------------------------------------------------------------
# Bernoulli prior on {-beta, +beta}
# ---------------------------------------------------------------------------


def bernoulli_analytics(beta: float, p: float, t: float, y: float) -> FilterAnalytics:
    """F, G, H for the two-point prior; Psi(t,x) = beta^2 - x^2 regardless of p."""
    if not (0.0 < p < 1.0) or beta <= 0.0:
        raise ValueError("need beta > 0 and p in (0, 1)")
    log_plus = math.log(p) + beta * y
    log_minus = math.log1p(-p) - beta * y
    log_F = np.logaddexp(log_plus, log_minus) - 0.5 * beta * beta * t
    G = beta * math.tanh(beta * y + 0.5 * (math.log(p) - math.log1p(-p)))
    H = beta * beta - G * G
    return FilterAnalytics(F=_safe_exp(float(log_F)), G=G, H=H, psi=H)


def bernoulli_psi(beta: float, x: float) -> float:
    return beta * beta - x * x


@dataclass(frozen=True)
class BernoulliSolution:
    """Free-boundary solution of the time-homogeneous two-point problem.

    When beta^4 <= c the running cost is nonnegative everywhere, stopping at
    once is optimal, and there is no boundary (``boundary_a`` is None, the
    value is identically zero).  Otherwise ``boundary_a`` is the unique root
    in (gamma, beta) of Q(x) = int_0^x (c - psi^2)/psi^2, and the value
    function is the even C^1 function vanishing beyond the boundary.
    """

    beta: float
    c: float
    gamma: float | None
    boundary_a: float | None

    def Q(self, x: float) -> float:
        """Running integral of (c - psi^2)/psi^2 from 0 to x, x in [0, beta).

        With psi = beta^2 - xi^2 the integrand is c/psi^2 - 1, whose
        antiderivative is elementary.
        """
        beta, c = self.beta, self.c
        if not (0.0 <= x < beta):
            raise ValueError(f"Q is defined on [0, beta), got x={x!r}")
        b2 = beta * beta
        return c * (x / (2.0 * b2 * (b2 - x * x)) + math.atanh(x / beta) / (2.0 * b2 * beta)) - x

    def _P(self, y: float) -> float:
        """Antiderivative of Q with P(0) = 0."""
        return self.c * y * math.atanh(y / self.beta) / (2.0 * self.beta**3) - 0.5 * y * y

    def u(self, x: float) -> float:
        """Value 2 int_|x|^a int_y^a (psi^2 - c)/psi^2 dxi dy, zero from the boundary on."""
        a = self.boundary_a
        if a is None:
            return 0.0
        ax = abs(float(x))
        if ax >= a:
            if ax >= self.beta:
                raise ValueError(f"value function is defined on (-beta, beta), got {x!r}")
            return 0.0
        return 2.0 * (self._P(a) - self._P(ax) - self.Q(a) * (a - ax))


def bernoulli_solve(beta: float, c: float, root_tol: float = 1e-12) -> BernoulliSolution:
    """Solve the two-point free-boundary problem by bisection on Q.

    Q(gamma) < 0 and Q rises to +infinity on (gamma, beta), so bisection on
    [gamma, beta] brackets the boundary from the start and never evaluates Q
    at beta; it stops once |Q| <= root_tol.
    """
    if beta <= 0.0 or c <= 0.0 or root_tol <= 0.0:
        raise ValueError("need beta > 0, c > 0, root_tol > 0")
    if beta**4 <= c:
        return BernoulliSolution(beta=beta, c=c, gamma=None, boundary_a=None)

    gamma = math.sqrt(beta * beta - math.sqrt(c))
    sol = BernoulliSolution(beta=beta, c=c, gamma=gamma, boundary_a=None)
    lo, hi = gamma, beta
    for _ in range(200):
        a = 0.5 * (lo + hi)
        qa = sol.Q(a)
        if abs(qa) <= root_tol:
            break
        if qa > 0.0:
            hi = a
        else:
            lo = a
        if hi - lo <= 8.0 * np.finfo(float).eps * beta:
            break
    else:
        raise RuntimeError(f"boundary bisection did not reach |Q| <= {root_tol!r}")
    return BernoulliSolution(beta=beta, c=c, gamma=gamma, boundary_a=float(a))


# ---------------------------------------------------------------------------
# Half-normal prior |N(0, sigma2)|
# ---------------------------------------------------------------------------


def halfnormal_analytics(sigma2: float, t: float, y: float) -> FilterAnalytics:
    """F, G, H for the half-normal prior.

    The posterior is a normal truncated to (0, inf); with s^2 = sigma2/(1 +
    sigma2*t) and z = sigma*y/sqrt(1 + sigma2*t), the truncated-normal moments
    give G = s(z + phi/Phi) and H = s^2 (1 - z phi/Phi - (phi/Phi)^2).  Below
    z = -5 both cancel, so there phi/Phi = x + 1/T2 with x = -z and the tails
    of ``_tail_fractions``: with g = 1/T2 and h = 2/T3, G = s g and
    H = s^2 g (h - g), which subtract no near-equal terms.
    """
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    sigma = math.sqrt(sigma2)
    d = 1.0 + sigma2 * t
    s = sigma / math.sqrt(d)
    z = sigma * y / math.sqrt(d)
    log_F = math.log(2.0) + _log_ndtr(z) + 0.5 * z * z - 0.5 * math.log(d)
    if z < -5.0:
        t2, t3 = _tail_fractions(-z)
        g, h = 1.0 / t2, 2.0 / t3
        G, H = s * g, s * s * g * (h - g)
    else:
        r = _mills(z)
        G, H = s * (z + r), s * s * (1.0 - z * r - r * r)
    return FilterAnalytics(F=_safe_exp(log_F), G=G, H=H, psi=H)


def halfnormal_H(sigma2: float, t: float, y: float) -> float:
    return halfnormal_analytics(sigma2, t, y).H


class MonotoneCheck(NamedTuple):
    passed: bool
    min_f: float
    worst_dh: float


def halfnormal_monotone_check(sigma2: float, t: float, y_nodes, tol: float = 1e-9) -> MonotoneCheck:
    """Verify DH >= 0 across y_nodes and f(z) = (z + 2 phi/Phi)(z + phi/Phi) >= 1.

    The product form f >= 1 is what makes the half-normal dispersion
    non-decreasing, hence a one-sided stopping region.
    """
    y_arr = np.asarray(y_nodes, dtype=float)
    if y_arr.size < 3:
        raise ValueError("need at least 3 nodes for a central-difference check")
    h_vals = np.array([halfnormal_H(sigma2, t, y) for y in y_arr])
    dh = (h_vals[2:] - h_vals[:-2]) / (y_arr[2:] - y_arr[:-2])
    worst_dh = float(dh.min()) if dh.size else 0.0

    sigma = math.sqrt(sigma2)
    d = 1.0 + sigma2 * t
    z_arr = sigma * y_arr / math.sqrt(d)
    f_vals = []
    for z in z_arr:
        r = _mills(z)
        f_vals.append((z + 2.0 * r) * (z + r))
    min_f = float(min(f_vals))
    passed = worst_dh >= -tol and min_f >= 1.0 - tol
    return MonotoneCheck(passed=passed, min_f=min_f, worst_dh=worst_dh)


# ---------------------------------------------------------------------------
# Symmetric Gaussian mixture (N(m, sigma^2) + N(-m, sigma^2)) / 2
# ---------------------------------------------------------------------------


def mixture_analytics(m: float, sigma: float, t: float, y: float) -> FilterAnalytics:
    """F, G, H for the symmetric two-Gaussian mixture."""
    if m <= 0.0 or sigma <= 0.0:
        raise ValueError("need m > 0 and sigma > 0")
    sigma2 = sigma * sigma
    d = 1.0 + sigma2 * t
    e_plus = ((m + sigma2 * y) ** 2 / d - m * m) / (2.0 * sigma2)
    e_minus = ((-m + sigma2 * y) ** 2 / d - m * m) / (2.0 * sigma2)
    log_F = np.logaddexp(e_plus, e_minus) - math.log(2.0) - 0.5 * math.log(d)
    A = m * y / d
    G = (sigma2 * y + m * math.tanh(A)) / d
    H = mixture_H(m, sigma, t, y)
    return FilterAnalytics(F=_safe_exp(float(log_F)), G=G, H=H, psi=H)


def mixture_H(m: float, sigma: float, t: float, y: float) -> float:
    """Posterior variance: sigma^2/(1+sigma^2 t) + 4m^2/(1+sigma^2 t)^2 / (2 cosh A)^2."""
    sigma2 = sigma * sigma
    d = 1.0 + sigma2 * t
    A = abs(m * y / d)
    # (2 cosh A)^{-2} = exp(-2 log(2 cosh A)), log(2 cosh A) = A + log1p(exp(-2A))
    log_2cosh = A + math.log1p(math.exp(-2.0 * A))
    return sigma2 / d + (4.0 * m * m / (d * d)) * math.exp(-2.0 * log_2cosh)


def mixture_boundary_thresholds(m: float, sigma: float, c: float) -> tuple[float, float]:
    """(t_infinity, t_zero): before t_infinity nothing stops, after t_zero everything does.

    t_infinity is where the far-field dispersion sigma^2/(1+sigma^2 t) falls to
    sqrt(c); t_zero is where the central (maximal) dispersion does.
    """
    if m <= 0.0 or sigma <= 0.0 or c <= 0.0:
        raise ValueError("need m > 0, sigma > 0, c > 0")
    root_c = math.sqrt(c)
    t_inf = max(1.0 / root_c - 1.0 / sigma**2, 0.0)
    t_zero = max(
        (1.0 - 2.0 * root_c / sigma**2 + math.sqrt(1.0 + 4.0 * m * m * root_c / sigma**4))
        / (2.0 * root_c),
        0.0,
    )
    return t_inf, t_zero
