"""Standard normal distribution helpers used throughout the package."""

from __future__ import annotations

import numpy as np


def norm_cdf(x):
    """Standard normal d.f., accurate to full double precision."""
    from scipy.special import ndtr

    return ndtr(x)


def norm_quantile(u):
    """Inverse of the standard normal d.f."""
    from scipy.special import ndtri

    return ndtri(u)


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def abs_moment(r: float) -> float:
    """E|Y|^r for Y standard normal, any r > -1."""
    if r <= -1:
        raise ValueError("absolute moment requires r > -1")
    from scipy.special import gammaln

    # E|Y|^r = 2^{r/2} Gamma((r+1)/2) / sqrt(pi)
    return float(np.exp(0.5 * r * np.log(2.0) + gammaln((r + 1) / 2.0) - 0.5 * np.log(np.pi)))


def hermite_prob(n: int, z):
    """Probabilists' Hermite polynomial He_n(z), by the three-term recursion."""
    z = np.asarray(z, dtype=float)
    if n == 0:
        return np.ones_like(z)
    prev, cur = np.ones_like(z), z.copy()
    for k in range(1, n):
        prev, cur = cur, z * cur - k * prev
    return cur


def norm_pdf_derivative(m: int, z):
    """m-th derivative of the standard normal density: (-1)^m He_m(z) phi(z)."""
    sign = -1.0 if m % 2 else 1.0
    return sign * hermite_prob(m, z) * norm_pdf(z)
