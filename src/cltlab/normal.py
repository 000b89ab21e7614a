"""Standard normal distribution helpers used throughout the package."""

from __future__ import annotations

from functools import lru_cache
from math import ceil, gamma, lgamma

import numpy as np

# Phi and Phi^{-1} are numpy ports of Cephes ndtr and ndtri (S. L. Moshier,
# Methods and Programs for Mathematical Functions, 1989), which scipy.special
# runs: the coefficient tables, polevl's Horner order and the branch points
# are Cephes'. With the C library's log and exp they equal scipy.special bit
# for bit. numpy's log and exp move some Phi^{-1} values in the tails (4e-5
# of 3e7 inputs) and Phi values for |x| >= sqrt 2 (1.5% of 2e7 inputs), by
# at most 5 ulp. Nothing here imports SciPy.

_SQRT1_2 = 0.70710678118654752440
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double


# (num, den) pairs for _ratio. Phi^{-1}: in (y - 1/2)^2 for y in
# (exp(-2), 1 - exp(-2)); in the tail y = min(u, 1 - u), in 1 / z for
# z = sqrt(-2 log y) in [2, 8) and in [8, 64)
_NDTRI_0 = ((-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0),
            (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0))
_NDTRI_1 = ((4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4),
            (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4))
_NDTRI_2 = ((3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9),
            (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9))
# erf for |x| <= 1 (in x^2); erfc for 1 <= x < 8 and for x >= 8
_ERF = ((9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
         7.00332514112805075473e3, 5.55923013010394962768e4),
        (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
         2.26290000613890934246e4, 4.92673942608635921086e4))
_ERFC_NEAR = ((2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
               4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
               9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2),
              (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
               9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
               1.65666309194161350182e3, 5.57535340817727675546e2))
_ERFC_FAR = ((5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
              6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0),
             (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
              1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0))


def _ratio(v, x, pair):
    """v * num(x) / den(x) for pair = (num, den), highest degree first, den
    with its leading 1 left out: Cephes' v * polevl(x, num) / p1evl(x, den),
    in its order."""
    num, den = pair
    p = num[0] * x
    p += num[1]
    for c in num[2:]:
        p *= x
        p += c
    q = x + den[0]
    for c in den[1:]:
        q *= x
        q += c
    return v * p / q


_BLOCK = 2**14  # values per evaluation: the temporaries stay in cache


def _blockwise(f, x, out=None):
    """f over the values of x in blocks of _BLOCK, in the shape of x, written
    to out when given (C-contiguous, x's shape; it may be x itself)."""
    flat = x.reshape(-1)
    if out is None:
        if flat.size <= _BLOCK:
            return f(flat).reshape(x.shape)
        out = np.empty(x.shape)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")  # reshape would copy it
    dest = out.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        dest[start : start + _BLOCK] = f(flat[start : start + _BLOCK])
    return out


def norm_cdf(x):
    """Standard normal d.f. (Cephes ndtr). With t = x / sqrt 2: 0.5 + 0.5
    erf(t) for |t| < sqrt(1/2), else 0.5 erfc(|t|), reflected for t > 0."""
    return _blockwise(_ndtr, np.asarray(x, dtype=float))[()]


def _ndtr(x):
    t = x * _SQRT1_2
    z = np.abs(t)
    # erf(t) for |t| <= 1, where erfc(|t|) = 1 - erf(|t|); erf is odd, so
    # |e| = erf(|t|) bit for bit. Beyond, erfc has its own formula, and the
    # clip keeps e finite there
    tc = np.clip(t, -1.0, 1.0)
    e = _ratio(tc, tc * tc, _ERF)
    erfc = 1.0 - np.abs(e)
    far = np.flatnonzero(z >= 1.0)
    if far.size:
        erfc[far] = _erfc_far(z[far])
    half = 0.5 * erfc
    return np.where(z < _SQRT1_2, 0.5 + 0.5 * e, np.where(t > 0.0, 1.0 - half, half))


def _erfc_far(z):
    """erfc(z) for z >= 1: exp(-z^2) num(z) / den(z), and 0 where -z^2 is
    below -MAXLOG (from z = 26.6 on; z is capped at 30 to keep it finite)."""
    z = np.minimum(z, 30.0)
    sq = -z * z
    out = _ratio(np.exp(sq), z, _ERFC_NEAR)
    big = np.flatnonzero(z >= 8.0)
    if big.size:
        out[big] = _ratio(np.exp(sq[big]), z[big], _ERFC_FAR)
    out[sq < -_MAXLOG] = 0.0
    return out


def norm_quantile(u, out=None):
    """Inverse of the standard normal d.f. (Cephes ndtri), written block by
    block to out when given (C-contiguous, u's shape); out may be u itself.
    -inf at 0, inf at 1, NaN outside [0, 1]."""
    x = _blockwise(_ndtri, np.asarray(u, dtype=float), out)
    return x[()] if out is None else x


def _ndtri(u):
    # Cephes takes u above 1 - exp(-2) to its tail y = 1 - u, and y up to
    # exp(-2) to the tail formula. Both formulas give -|x| from the nearer
    # tail y = min(u, 1 - u) (the central one is odd in y - 1/2, and for u
    # in [1/2, 1], y - 1/2 = -(u - 1/2) exactly); the sign of u - 1/2 is x's
    y = np.minimum(u, 1.0 - u)
    tail = (u <= _EXP_M2) | (u > 1.0 - _EXP_M2)
    if tail.all():
        x = _ndtri_tail(y)
    else:
        c = np.maximum(y, 0.0) - 0.5  # the tail's values are finite here too
        c2 = c * c
        x = (c + c * _ratio(c2, c2, _NDTRI_0)) * _S2PI
        rows = np.flatnonzero(tail)
        if rows.size:
            x[rows] = _ndtri_tail(y[rows])
    return np.copysign(x, u - 0.5, out=x)


def _ndtri_tail(y):
    """-|Phi^{-1}(y)| for y <= exp(-2): -inf at 0, NaN below 0 and at NaN."""
    bad = np.flatnonzero(~(y > 0.0))
    if bad.size:
        edge = np.where(y[bad] == 0.0, -np.inf, np.nan)
        y = np.where(y > 0.0, y, 0.5)
    s = np.sqrt(-2.0 * np.log(y))
    w = 1.0 / s
    x1 = _ratio(w, w, _NDTRI_1)
    far = np.flatnonzero(s >= 8.0)
    if far.size:
        x1[far] = _ratio(w[far], w[far], _NDTRI_2)
    x = x1 - (s - np.log(s) / s)  # -(x0 - x1), Cephes' lower-tail value
    if bad.size:
        x[bad] = edge
    return x


_SERIES_CAP = 1000  # terms; the series and the fraction below need at most a few hundred


def upper_gamma(a: float, x):
    """Gamma(a, x) = int_x^inf t^{a-1} e^{-t} dt for real a and x in
    [0, inf] (x > 0 when a <= 0); Gamma(a, inf) = 0 exactly.

    From x = split = max(a + 1, 1) on, Legendre's continued fraction; below
    it, Gamma(b) minus the power series of gamma(b, x), or E_1(x) at b = 0,
    for b = a + ceil(-a)_+, and for a < 0 the downward recurrence
    Gamma(b, x) = (Gamma(b + 1, x) - x^b e^{-x}) / b. The recurrence loses
    about a factor x / |b| of relative precision, so it runs only below
    x = 1. The fraction's depth and the series' length are those that
    converge at x = split, fixed per a, so each value depends on its own x
    alone and not on the other values of the call."""
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
    terms = _series_terms(b, max(a + 1.0, 1.0)) if x.size else 0
    if b == 0:
        # E_1(x) = -euler_gamma - log x - sum_{n>=1} (-x)^n / (n n!)
        term = -x
        total = term.copy()
        for n in range(2, terms + 1):
            term *= -x * (n - 1) / (n * n)
            total += term
        out = -0.57721566490153286061 - np.log(x) - total
    else:
        # gamma(b, x) = x^b e^{-x} sum_n x^n / (b (b + 1) ... (b + n))
        term = np.full(x.shape, 1.0 / b)
        total = term.copy()
        for n in range(1, terms + 1):
            term *= x / (b + n)
            total += term
        out = gamma(b) - x**b * np.exp(-x) * total
    for j in range(steps - 1, -1, -1):
        b = a + j
        out = (out - x**b * np.exp(-x)) / b
    return out


@lru_cache(maxsize=64)
def _series_terms(b: float, x: float) -> int:
    """The last term index n at which the series of _upper_gamma_below in b
    has converged at x: its term at most 1e-17 of its sum. Below x every
    term is a smaller share of the sum, and the terms after n shrink, so
    they leave each sum below x unchanged bit for bit."""
    term = total = -x if b == 0 else 1.0 / b
    n = 1 if b == 0 else 0
    while abs(term) > 1e-17 * abs(total):
        n += 1
        if n >= _SERIES_CAP:
            raise ArithmeticError("incomplete gamma series did not converge")
        term *= -x * (n - 1) / (n * n) if b == 0 else x / (b + n)
        total += term
    return n


def _legendre_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) = x^a e^{-x} / (x + 1 - a - 1 (1 - a) / (x + 3 - a - ...)),
    evaluated bottom up to the depth the fraction needs at x = split, its
    smallest argument: it converges faster as x grows."""
    t = np.zeros(x.shape)
    for i in range(_fraction_depth(a) if x.size else 0, 0, -1):
        t = -i * (i - a) / (x + (2 * i + 1 - a) + t)
    return x**a * np.exp(-x) / (x + (1 - a) + t)


@lru_cache(maxsize=64)
def _fraction_depth(a: float) -> int:
    """Terms after which the modified Lentz method (Numerical Recipes, 3rd
    ed., 6.2) has converged at x = max(a + 1, 1)."""
    tiny = 1e-300
    b = max(a + 1.0, 1.0) + 1.0 - a
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
    # E|Y|^r = 2^{r/2} Gamma((r+1)/2) / sqrt(pi)
    return float(np.exp(0.5 * r * np.log(2.0) + lgamma((r + 1) / 2.0) - 0.5 * np.log(np.pi)))


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
