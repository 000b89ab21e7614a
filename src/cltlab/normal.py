"""Standard normal distribution helpers used throughout the package."""

from __future__ import annotations

from math import ceil, gamma

import numpy as np

# Two normal quantiles, on purpose. norm_quantile serves `rates`, which loads
# scipy.special for ndtr in any case. The README run evaluates it about 2.1
# million times, where scipy's ndtri takes about 0.05 s on a 2-core Xeon and
# the numpy AS 241 of norm_quantile_lower about 0.3 s for the lower tail
# alone; AS 241 also equals ndtri bit for bit on only about a third of the
# values, so a switch would move every rate value. The envelope weight of
# `conditions` and `verify` needs a few thousand lower-tail values, where the
# 0.3 s import of scipy.special costs more than the arithmetic; it uses
# norm_quantile_lower and upper_gamma, which need numpy only.


def norm_cdf(x):
    """Standard normal d.f., accurate to full double precision."""
    from scipy.special import ndtr

    return ndtr(x)


def norm_quantile(u, out=None):
    """Inverse of the standard normal d.f., written to out when given."""
    from scipy.special import ndtri

    return ndtri(u, out=out)


# Wichura, Algorithm AS 241 (PPND16), Appl. Statist. 37 (1988) 477-484;
# coefficients in increasing degree
_AS241_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3),
)
_AS241_NEAR = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_AS241_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)


def _rational(coeffs, r):
    num, den = coeffs
    top, bottom = num[-1], den[-1]
    for a, b in zip(num[-2::-1], den[-2::-1]):
        top, bottom = top * r + a, bottom * r + b
    return top / bottom


def norm_quantile_lower(v):
    """Phi^{-1}(v) for v in [0, 1/2], by AS 241 (relative error near 1e-16);
    -inf at v = 0."""
    v = np.asarray(v, dtype=float)
    x = np.full(v.shape, -np.inf)
    q = v - 0.5
    central = q >= -0.425
    r = 0.180625 - q[central] ** 2
    x[central] = q[central] * _rational(_AS241_CENTRAL, r)
    tail = (v > 0) & ~central
    r = np.sqrt(-np.log(v[tail]))
    x[tail] = -np.where(r <= 5.0, _rational(_AS241_NEAR, r - 1.6), _rational(_AS241_FAR, r - 5.0))
    return x


_SERIES_CAP = 1000  # terms; the series and the fraction below need at most a few hundred


def upper_gamma(a: float, x):
    """Gamma(a, x) = int_x^inf t^{a-1} e^{-t} dt for real a and x in
    [0, inf] (x > 0 when a <= 0); Gamma(a, inf) = 0 exactly.

    From x = max(a + 1, 1) on, Legendre's continued fraction; below it,
    Gamma(b) minus the power series of gamma(b, x), or E_1(x) at b = 0, for
    b = a + ceil(-a)_+, and for a < 0 the downward recurrence
    Gamma(b, x) = (Gamma(b + 1, x) - x^b e^{-x}) / b. The recurrence loses
    about a factor x / |b| of relative precision, so it runs only below x = 1."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    split = max(a + 1.0, 1.0)
    large = np.isfinite(x) & (x >= split)
    out[large] = _legendre_fraction(a, x[large])
    small = x < split
    out[small] = _upper_gamma_below(a, x[small])
    return out


def _upper_gamma_below(a: float, x: np.ndarray) -> np.ndarray:
    steps = max(0, ceil(-a))
    b = a + steps
    if b == 0:
        out = _e1_series(x)
    else:
        # gamma(b, x) = x^b e^{-x} sum_n x^n / (b (b + 1) ... (b + n))
        term = np.full(x.shape, 1.0 / b)
        total = term.copy()
        for n in range(1, _SERIES_CAP):
            term *= x / (b + n)
            total += term
            if np.all(term <= 1e-17 * total):
                break
        else:
            raise ArithmeticError("incomplete gamma series did not converge")
        out = gamma(b) - x**b * np.exp(-x) * total
    for j in range(steps - 1, -1, -1):
        b = a + j
        out = (out - x**b * np.exp(-x)) / b
    return out


def _e1_series(x: np.ndarray) -> np.ndarray:
    """E_1(x) = -euler_gamma - log x - sum_{n>=1} (-x)^n / (n n!) for x < 1."""
    term = -x
    total = term.copy()
    for n in range(2, _SERIES_CAP):
        term *= -x * (n - 1) / (n * n)
        total += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
            break
    else:
        raise ArithmeticError("exponential integral series did not converge")
    return -0.57721566490153286061 - np.log(x) - total


def _legendre_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) = x^a e^{-x} / (x + 1 - a - 1 (1 - a) / (x + 3 - a - ...)),
    evaluated bottom up to the depth the fraction needs at the smallest x:
    it converges faster as x grows."""
    t = np.zeros(x.shape)
    for i in range(_fraction_depth(a, float(x.min())) if x.size else 0, 0, -1):
        t = -i * (i - a) / (x + (2 * i + 1 - a) + t)
    return x**a * np.exp(-x) / (x + (1 - a) + t)


def _fraction_depth(a: float, x: float) -> int:
    """Terms after which the modified Lentz method (Numerical Recipes, 3rd
    ed., 6.2) has converged at x."""
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    for i in range(1, _SERIES_CAP):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        if abs(d * c - 1.0) <= 2.3e-16:
            return i
    raise ArithmeticError("incomplete gamma continued fraction did not converge")


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
