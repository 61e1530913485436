"""Gaussian tail functions and a batched adaptive quadrature.

The survival function is computed through the complementary error
function.  Going through ``1 - cdf`` instead would cancel catastrophically
around six standard deviations, which is exactly the regime the tail
estimators live in.

``erfc``, ``erfcx``, ``log_ndtr`` and ``ndtri`` are the package's own numpy
kernels, so numpy is the only runtime dependency:

* ``erfc`` and ``erfcx`` use Cody's rational Chebyshev approximations
  (Cody 1969, *Math. Comp.* 23(107), as in his CALERF): ``erf`` below
  0.46875, ``exp(x^2) erfc(x)`` on [0.46875, 4] and, in ``1/x^2``, above 4.
  ``exp(-x^2)`` is taken as two factors around ``x`` rounded to a multiple
  of 1/16, so the rounding of ``x^2`` is not amplified.
* ``log_ndtr(x)`` is ``log(erfcx(y)/2) - x^2/2``, ``y = |x|/sqrt 2``, up to
  0 and ``log1p(-erfcx(y) exp(-x^2/2)/2)`` above.
* ``ndtri`` is Wichura's AS241 PPND16 (Wichura 1988, *Appl. Stat.* 37(3)).

Each kernel works through its input in blocks of ``_BLOCK`` elements.  In
a block, the interval that holds the most elements is evaluated on every
element, with the argument clamped into it; the elements of the other
intervals are gathered by index, evaluated and written over.  Every
element goes through the same operations wherever it sits, so a value
does not depend on the array's length, its position in it or the block
size, and a scalar gives the same bits as an array.

``integrate`` is a numpy Gauss-Kronrod (G7/K15) rule, the one QUADPACK's
``qk15`` uses (Piessens et al. 1983), made adaptive over a whole batch of
problems at once: each round evaluates the integrand on every panel that
still fails its share of the tolerance, in one call.  The bivariate normal
orthant is the 1-D integral of Genz & Bretz (2009), ch. 2, over the
coordinate with the larger threshold.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ModelSpecError, QuadratureError

SQRT2 = math.sqrt(2.0)
SQRT2PI = math.sqrt(2.0 * math.pi)
SQRT2_OVER_PI = math.sqrt(2.0 / math.pi)

# beyond this the standard normal density underflows to zero anyway
_NORMAL_CUTOFF = 37.0


# ---------------------------------------------------------------------------
# elementwise kernels


def _table(numerator, denominator):
    """``P(t) / Q(t)`` coefficients, highest power first, as one ``(2, 1)``
    column per power."""
    return np.array([numerator, denominator]).T[:, :, None].copy()


# Cody (1969): erf(y) = y P(y^2)/Q(y^2) below 0.46875, erfcx(y) = P(y)/Q(y)
# on [0.46875, 4], and erfcx(y) = (1/sqrt(pi) - z P(z)/Q(z)) / y, z = 1/y^2,
# above 4.
_ERF_SMALL = _table(
    [1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
     3.77485237685302021e02, 3.20937758913846947e03],
    [1.0, 2.36012909523441209e01, 2.44024637934444173e02,
     1.28261652607737228e03, 2.84423683343917062e03],
)
_ERFCX_MID = _table(
    [2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03],
    [1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03],
)
_ERFCX_BIG = _table(
    [1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4],
    [1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3],
)
_ERF_SPLIT = 0.46875
_RSQRTPI = 5.6418958354775628695e-1  # 1/sqrt(pi)

# Wichura (1988), PPND16: x = q P(r)/Q(r), r = 0.180625 - q^2, q = p - 1/2, for
# |q| <= 0.425; otherwise r = sqrt(-log(min(p, 1 - p))) and P(r - 1.6)/Q(r - 1.6)
# up to r = 5, P(r - 5)/Q(r - 5) above.
_NDTRI_MID = _table(
    [2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0],
    [5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0],
)
_NDTRI_TAIL = _table(
    [7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0],
    [1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0],
)
_NDTRI_FAR = _table(
    [2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0],
    [2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0],
)

# Elements per block.  A ufunc call on more than 500 elements releases the
# GIL, and in a thread pool getting it back can wait, so fewer, longer calls
# ran faster than cache-sized blocks.
_BLOCK = 1 << 16
_ROUND16 = 1.5 * 2.0**48  # y + _ROUND16 - _ROUND16 rounds y to a multiple of 1/16
_EXP_M25 = math.exp(-25.0)  # where AS241's r = sqrt(-log p) is 5

# The kernels below work in place: a piece of a kernel fills ``out`` using
# the rows of ``s`` as scratch and never writes its inputs (a version that
# allocated every intermediate ran at half the speed).  ``out`` is passed by
# position, which numpy parses faster than the keyword; ``minimum``,
# ``maximum`` and ``clip`` take it only as a keyword.


def _polynomial(t, coefficients, out):
    """Horner's rule, highest power first."""
    np.multiply(coefficients[0], t, out)
    for c in coefficients[1:-1]:
        np.add(out, c, out)
        np.multiply(out, t, out)
    return np.add(out, coefficients[-1], out)


def _rational(t, table, s, out):
    """``P(t) / Q(t)``, both polynomials advancing together in the two rows of
    ``s``: one ufunc call per power."""
    acc = _polynomial(t, table, s[:2])
    return np.divide(acc[0], acc[1], out)


def _exp_square(y, out, s, factor=-1.0):
    """``exp(factor y^2)`` as ``exp(factor u^2) exp(factor (y - u)(y + u))``
    with ``u`` ``y`` rounded to a multiple of 1/16: ``u^2`` is exact, so the
    product is accurate to a few ulp where ``exp(factor y*y)`` loses ``y^2``
    ulp.  ``factor`` is -1, 1 or -1/2, by which products are exact; ``y`` is
    finite and at most 40; ``s`` has two rows."""
    np.add(y, _ROUND16, s[0])
    u = np.subtract(s[0], _ROUND16, s[1])
    np.subtract(_ROUND16, s[0], s[0])  # -u
    np.multiply(s[0], u, s[0])  # -u^2
    np.subtract(u, y, out)
    np.add(u, y, u)
    np.multiply(out, u, s[1])  # -(y - u)(y + u)
    if factor != -1.0:
        np.multiply(s[:2], -factor, s[:2])
    np.exp(s[:2], s[:2])
    return np.multiply(s[0], s[1], out)


def _piecewise(out, s, key, splits, pieces, *args):
    """``pieces[k](out, s, *args)`` at each element whose ``key`` lies in the
    k-th of the intervals that the increasing ``splits`` cut; nan is in
    the first.  An argument that is None is passed as it is.

    The piece with the most elements runs on the whole block: each piece
    clamps its argument into its own interval, so the other elements stay
    finite.  Every other piece that has elements runs on them, gathered by
    index, and they are written over.  An element takes the same
    operations either way, so its value depends on nothing else in the
    block.
    """
    above = [key >= split for split in splits]
    counts = [key.size, *map(np.count_nonzero, above), 0]
    sizes = [counts[k] - counts[k + 1] for k in range(len(pieces))]
    base = sizes.index(max(sizes))
    gathered = []
    for k, size in enumerate(sizes):
        if size and k != base:
            inside = above[k - 1] if k else ~above[0]
            if 0 < k < len(splits):
                inside &= ~above[k]
            index = inside.nonzero()[0]
            value = np.empty(size)
            pieces[k](value, np.empty((len(s), size)), *(a if a is None else a[index] for a in args))
            gathered.append((index, value))
    pieces[base](out, s, *args)
    for index, value in gathered:
        out[index] = value


def _cody_small(out, s, y, e):
    t = np.minimum(y, _ERF_SPLIT, out=s[0])
    square = np.multiply(t, t, s[3])
    _rational(square, _ERF_SMALL, s[1:3], out)
    np.multiply(out, t, out)
    np.subtract(1.0, out, out)
    if e is None:
        np.multiply(out, np.exp(square, square), out)


def _cody_mid(out, s, y, e):
    _rational(np.minimum(y, 4.0, out=s[0]), _ERFCX_MID, s[1:3], out)
    if e is not None:
        np.multiply(out, e, out)


def _cody_big(out, s, y, e):
    t = np.maximum(y, 4.0, out=s[0])
    z = np.multiply(t, t, s[3])
    np.divide(1.0, z, z)
    _rational(z, _ERFCX_BIG, s[1:3], out)
    np.multiply(out, z, out)
    np.subtract(_RSQRTPI, out, out)
    np.divide(out, t, out)
    if e is not None:
        np.multiply(out, e, out)


def _cody(out, s, y, scaled):
    """``erfc(y)``, or ``erfcx(y)`` if ``scaled``, for ``y >= 0`` or nan; six rows of ``s``."""
    e = None if scaled else _exp_square(np.minimum(y, 28.0, out=s[0]), s[1], s[2:4])
    _piecewise(out, s[2:], y, (_ERF_SPLIT, 4.0), (_cody_small, _cody_mid, _cody_big), y, e)


def _erfc_block(x, out, s):
    y = np.absolute(x, s[0])
    negative = (x < 0.0).nonzero()[0]
    _cody(out, s[1:], y, scaled=False)
    if negative.size:
        out[negative] = 2.0 - out[negative]


def _erfcx_block(x, out, s):
    y = np.absolute(x, s[0])
    negative = (x < 0.0).nonzero()[0]
    y_negative = np.minimum(y[negative], 27.0)  # erfcx overflows below -26.7
    _cody(out, s[1:], y, scaled=True)
    if negative.size:  # erfcx(-y) = 2 exp(y^2) - erfcx(y)
        e = _exp_square(y_negative, np.empty(negative.size), np.empty((2, negative.size)), factor=1.0)
        out[negative] = 2.0 * e - out[negative]


def _log_ndtr_low(out, s, x, w):
    # x <= 0: log(erfc(y) / 2) = log(erfcx(y) / 2) - x^2 / 2
    square = np.multiply(x, x, s[0])
    np.multiply(square, 0.5, square)
    np.multiply(w, 0.5, out)
    np.log(out, out)
    np.subtract(out, square, out)


def _log_ndtr_high(out, s, x, w):
    # x > 0: log(1 - erfc(y) / 2), erfc(y) = erfcx(y) exp(-x^2 / 2), the
    # exponent taken from x itself: from the rounded y its error grows like x^2
    e = _exp_square(np.clip(x, 0.0, 40.0, out=s[0]), s[1], s[2:4], factor=-0.5)
    np.multiply(w, e, out)
    np.multiply(out, -0.5, out)
    np.log1p(out, out)


def _log_ndtr_block(x, out, s):
    y = np.absolute(x, s[0])
    np.divide(y, SQRT2, y)
    w = s[1]
    _cody(w, s[2:], y, scaled=True)
    _piecewise(out, s[2:], x, (0.0,), (_log_ndtr_low, _log_ndtr_high), x, w)


def _ndtri_far(out, s, q, pm):
    r = np.minimum(pm, _EXP_M25, out=s[0])
    np.log(r, r)
    np.negative(r, r)
    np.sqrt(r, r)
    np.minimum(r, 28.0, out=r)  # p = 0 gives inf, set below
    np.subtract(r, 5.0, r)
    _rational(r, _NDTRI_FAR, s[1:3], out)
    out[pm == 0.0] = np.inf
    np.copysign(out, q, out)


def _ndtri_tail(out, s, q, pm):
    r = np.clip(pm, _EXP_M25, 0.075, out=s[0])
    np.log(r, r)
    np.negative(r, r)
    np.sqrt(r, r)
    np.subtract(r, 1.6, r)
    _rational(r, _NDTRI_TAIL, s[1:3], out)
    np.copysign(out, q, out)


def _ndtri_mid(out, s, q, pm):
    r = np.multiply(q, q, s[0])
    np.subtract(0.180625, r, r)
    np.maximum(r, 0.0, out=r)
    _rational(r, _NDTRI_MID, s[1:3], out)
    np.multiply(out, q, out)


def _ndtri_block(p, out, s):
    # Wichura's |p - 1/2| <= 0.425 and r <= 5, in terms of min(p, 1 - p)
    pm = np.subtract(1.0, p, s[0])
    np.minimum(pm, p, out=pm)
    q = np.subtract(p, 0.5, s[1])
    _piecewise(out, s[2:], pm, (_EXP_M25, 0.075), (_ndtri_far, _ndtri_tail, _ndtri_mid), q, pm)


def _elementwise(block, rows):
    """A numpy-style function of one array from a kernel on 1-D blocks.

    ``block(x, out, s)`` fills ``out`` from ``x`` using the ``rows`` rows
    of ``s`` as scratch; ``out`` may be ``x``.  The function's ``out``, if
    given, has the input's shape and is one-dimensional or C-contiguous.

    A scalar goes through the same block, one element long.
    """

    def run(x, out):
        flat_x, flat = x.reshape(-1), out.reshape(-1)
        s = np.empty((rows, min(flat.size, _BLOCK)))
        with np.errstate(all="ignore"):
            for start in range(0, flat.size, _BLOCK):
                stop = min(start + _BLOCK, flat.size)
                block(flat_x[start:stop], flat[start:stop], s[:, :stop - start])
        return out

    def kernel(x, out=None):
        x = np.asarray(x, dtype=float)
        if out is None:
            return run(x, np.empty(x.shape))[()]
        if out.shape != x.shape or (out.ndim > 1 and not out.flags.c_contiguous):
            raise ValueError("out must have the input's shape and be 1-D or C-contiguous")
        return run(x, out)

    kernel.__name__ = block.__name__[1:-len("_block")]
    return kernel


erfc = _elementwise(_erfc_block, 7)
erfcx = _elementwise(_erfcx_block, 7)
log_ndtr = _elementwise(_log_ndtr_block, 8)
ndtri = _elementwise(_ndtri_block, 5)


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / SQRT2PI
    return float(out) if out.ndim == 0 else out


def norm_sf(x):
    """P(Z > x) for standard normal Z, accurate deep into both tails."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(x / SQRT2)
    return float(out) if out.ndim == 0 else out


def norm_logsf(x):
    """log P(Z > x), finite for every finite x."""
    out = log_ndtr(-np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def norm_hazard(x):
    """Hazard ``phi(x) / P(Z > x)``, through the scaled complementary error
    function so that deep in the right tail it is not zero over zero."""
    out = SQRT2_OVER_PI / erfcx(np.asarray(x, dtype=float) / SQRT2)
    return float(out) if out.ndim == 0 else out


# Gauss-Kronrod G7/K15 on [-1, 1]: the positive Kronrod nodes from the
# outside in, then the Kronrod and the Gauss weights from the outside to the
# centre node.  The Gauss nodes are every second Kronrod node.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_NODES = np.concatenate([np.negative(_XGK), [0.0], _XGK[::-1]])  # increasing
_KRONROD = np.array(_WGK + _WGK[-2::-1])
_GAUSS = np.array(_WG + _WG[-2::-1])

_PANEL_CAP = 400  # panels per problem
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _kronrod15(f, lo, hi, problem, batched):
    """Kronrod value and QUADPACK's ``qk15`` error estimate on each panel.

    Nodes run along the last axis, so each panel's sums are reduced over
    its own 15 values in the same order, whatever the number of panels.
    """
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    fx = f(x, np.broadcast_to(problem[:, None], x.shape)) if batched else f(x)
    fx = np.broadcast_to(fx, x.shape)
    kronrod = (fx * _KRONROD).sum(axis=1)
    gauss = (fx[:, 1::2] * _GAUSS).sum(axis=1)
    resabs = (np.abs(fx) * _KRONROD).sum(axis=1) * half
    resasc = (np.abs(fx - 0.5 * kronrod[:, None]) * _KRONROD).sum(axis=1) * half
    err = np.abs((kronrod - gauss) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.minimum(1.0, 200.0 * err / resasc)
    err = np.where((resasc != 0.0) & (err != 0.0), resasc * scale * np.sqrt(scale), err)
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return kronrod * half, err


def integrate(f, a, b, *, points=None, epsrel=1e-11):
    """Adaptive Gauss-Kronrod quadrature of ``f`` on ``[a, b]``.

    ``a`` and ``b`` are finite numbers with ``a <= b``, or arrays of m
    such limits, one problem each.  For one problem ``f(x)`` receives an
    array of nodes; for m problems ``f(x, k)`` also receives each node's
    problem index.  ``points`` are breakpoints used where they fall
    inside a problem's interval.

    A problem is done when its summed error estimate is at most
    ``epsrel`` times its value (no absolute tolerance, so tiny tail
    values keep their digits).  Until then, every panel whose error is
    above its share of that tolerance, in proportion to its width, is
    bisected, up to 400 panels.  Each decision reads only the problem's
    own panels, and its panels are summed left to right, so a problem's
    value does not depend on what else is in the batch.  Raises
    :class:`QuadratureError` when a problem stops at the panel cap with
    an error estimate above ``max(1e-8 |value|, 1e-300)``.
    """
    batched = np.ndim(a) > 0 or np.ndim(b) > 0
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    a, b = np.atleast_1d(a).ravel(), np.atleast_1d(b).ravel()
    if not np.all(np.isfinite(a) & np.isfinite(b) & (a <= b)):
        raise ModelSpecError("integrate needs finite limits with a <= b")
    m = a.size
    cuts = np.sort(np.asarray([] if points is None else points, dtype=float))
    edges = np.column_stack([a, np.clip(cuts, a[:, None], b[:, None]), b])
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    problem = np.repeat(np.arange(m), cuts.size + 1)
    nonempty = hi > lo
    lo, hi, problem = lo[nonempty], hi[nonempty], problem[nonempty]
    value, err = _kronrod15(f, lo, hi, problem, batched)
    while True:
        total = np.bincount(problem, value, m)
        error = np.bincount(problem, err, m)
        # the floor ends a problem whose value and error are both below the normal range
        tol = np.maximum(epsrel * np.abs(total), _TINY)
        split = (err > tol[problem] * (hi - lo) / (b - a)[problem]) & (error > tol)[problem]
        after = np.bincount(problem, minlength=m) + np.bincount(problem[split], minlength=m)
        capped = after > _PANEL_CAP
        split &= ~capped[problem]
        if not split.any():
            break
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.column_stack([lo[split], mid]).ravel()
        new_hi = np.column_stack([mid, hi[split]]).ravel()
        new_value, new_err = _kronrod15(f, new_lo, new_hi, np.repeat(problem[split], 2), batched)
        # each bisected panel is replaced in place by its two halves
        reps = 1 + split
        slots = (np.cumsum(reps) - reps)[split][:, None] + np.arange(2)
        lo, hi, value, err, problem = (np.repeat(v, reps) for v in (lo, hi, value, err, problem))
        for v, new in ((lo, new_lo), (hi, new_hi), (value, new_value), (err, new_err)):
            v[slots.ravel()] = new
    failed = np.flatnonzero(capped & (error > np.maximum(1e-8 * np.abs(total), 1e-300)))
    if failed.size:
        k = failed[0]
        raise QuadratureError(
            f"quadrature did not converge on [{a[k]}, {b[k]}]: "
            f"value={total[k]:.6e}, error estimate={error[k]:.2e}"
        )
    return total if batched else float(total[0])


def bivariate_normal_orthant(t1, t2, rho):
    """P(Z1 > t1, Z2 > t2) for standard bivariate normal with correlation rho.

    Takes numbers or arrays that broadcast together, and integrates every
    element that has no closed form in one batch.  Each is a 1-D integral
    over the coordinate with the larger threshold, whose integrand is the
    conditional tail of the other coordinate.  Exactly symmetric in
    (t1, t2) by construction.
    """
    t1, t2, rho = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (t1, t2, rho)))
    shape = rho.shape
    t1, t2, rho = (np.atleast_1d(v).ravel() for v in (t1, t2, rho))
    valid = (rho >= -1.0) & (rho <= 1.0)
    if not valid.all():
        raise ModelSpecError(f"correlation must lie in [-1, 1], got {rho[~valid][0]}")
    hi, lo = np.maximum(t1, t2), np.minimum(t1, t2)
    out = np.empty(rho.shape)
    indep = rho == 0.0
    same = ~indep & (rho >= 1.0 - 1e-12)
    opposite = ~indep & (rho <= -1.0 + 1e-12)
    rest = ~(indep | same | opposite)
    # a selection with no element makes no kernel call
    if indep.any():
        out[indep] = norm_sf(t1[indep]) * norm_sf(t2[indep])
    if same.any():
        out[same] = norm_sf(hi[same])
    if opposite.any():  # Z2 = -Z1: the event is {Z1 > hi, Z1 < -lo}
        out[opposite] = np.maximum(0.0, norm_sf(hi[opposite]) - norm_sf(-lo[opposite]))
    if rest.any():
        lo, r = lo[rest], rho[rest]
        s = np.sqrt((1.0 - r) * (1.0 + r))

        def f(z, k):
            return norm_pdf(z) * norm_sf((lo[k] - r[k] * z) / s[k])

        out[rest] = integrate(f, hi[rest], np.maximum(hi[rest] + 2.0, _NORMAL_CUTOFF), epsrel=1e-11)
    return float(out[0]) if not shape else out.reshape(shape)
