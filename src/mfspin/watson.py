"""Moments of the Watson distribution: the nematic g, g' and g'' without scipy.

For x a coordinate of a uniform unit vector in R^N, x^2 tilted by e^{a x^2}
is the Watson distribution (Mardia and Jupp, *Directional Statistics*, 2000).
`moments` gives g, g' or g'' of `models.nematic(N)` from it at any field, by a
large-|a| series where that is exact to rounding and by the positive-term
series Kummer's transformation gives elsewhere (docs/decisions.md).  The
module is imported on first use, so that commands of the other models do
not compile it.
"""

from __future__ import annotations

import functools
import math
from typing import Tuple

import numpy as np

__all__ = ["moments"]

_EPS = 2.0 ** -53              # unit roundoff

# sigma(z) = log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2 at z = j/2 for
# j = 1..32, from 40-digit mpmath (entry 0 is unused)
_SIGMA_HALVES = np.array([
    np.nan,
    0.15342640972002736, 0.08106146679532726, 0.05481412105191765, 0.0413406959554093,
    0.03316287351993629, 0.02767792568499834, 0.023746163656297496, 0.020790672103765093,
    0.018488450532673187, 0.016644691189821193, 0.015134973221917378, 0.013876128823070748,
    0.012810465242920227, 0.01189670994589177, 0.011104559758206917, 0.010411265261972096,
    0.009799416126158804, 0.009255462182712733, 0.008768700134139386, 0.00833056343336287,
    0.00793411456431402, 0.007573675487951841, 0.007244554301320383, 0.00694284010720953,
    0.006665247032707682, 0.006408994188004207, 0.006171712263039458, 0.0059513701127588475,
    0.0057462165130101155, 0.005554733551962801, 0.005375599032926835, 0.0052076559196096404])
_BLOCK = 64                 # most terms per cumprod block
_CHUNK = 4096               # points per pass: a block's arrays stay near 6 MB
_CUT = 2.0 ** -64           # each side of a sum ends before its first term below this


def _sigma(z):
    """Stirling's remainder log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2 at
    multiples z >= 1/2 of 1/2: the table up to 16, the series in 1/z above."""
    z = np.asarray(z, dtype=float)
    table = z <= 16.0
    w = np.where(table, 17.0, z)
    r = 1.0 / (w * w)
    series = ((((((r / 156.0 - 691.0 / 360360.0) * r + 1.0 / 1188.0) * r - 1.0 / 1680.0) * r
                + 1.0 / 1260.0) * r - 1.0 / 360.0) * r + 1.0 / 12.0) / w
    return np.where(table, _SIGMA_HALVES[np.where(table, 2.0 * z, 0.0).astype(int)], series)


@functools.lru_cache(maxsize=None)
def _nematic_constants(N: int) -> Tuple[float, float, float, float, float]:
    """Per-N constants of the moments, c = (N-1)/2: log Gamma(1/2), log Gamma(c),
    log Gamma(N/2) - log Gamma(c) formed from sigma (not as a difference of
    log Gammas, which are ~2600 at N = 1000 and lose ~3 digits), and the
    K-free parts of log (q)_K/(N/2)_K for q = 1/2 and q = c."""
    c = 0.5 * (N - 1.0)
    s_c, s_b, s_half = (float(v) for v in _sigma(np.array([c, c + 0.5, 0.5])))
    e_c = c * math.log1p(0.5 / c) - 0.5
    return (math.lgamma(0.5), math.lgamma(c), 0.5 * math.log(c) + e_c + (s_b - s_c),
            s_b - s_half, e_c + (s_b - s_c))


def _mixture_side(sums, p, q, b, x, K, step):
    """Add one side of the mode K (step +1: k > K, -1: k < K) to the mixture
    sums of `_kummer_moments` (the first 1, 2 or 3 rows of `sums`).

    A side ends before its first term below _CUT (or below k = 0), and its
    terms are added left to right after the other side's, so a point's bits
    depend neither on the blocks it was computed in nor on the batch around
    it.  Points are grouped by the length of their side, about 9.4 sqrt(x)
    + 14 terms (K at most below the mode), rounded up to a multiple of 8 and
    capped at _BLOCK; that is their first block, and later blocks have
    _BLOCK terms."""
    need = 9.4 * np.sqrt(x) + 14.0
    if step < 0:
        need = np.where(K > 0.0, np.minimum(need, K), 0.0)
    first = np.minimum(8.0 * np.ceil(need / 8.0), _BLOCK)
    # a sorted set, not np.unique, whose first call imports numpy.ma
    sizes = np.array(sorted(set(first.tolist()))) if first.size > 1 else first
    for size in sizes[sizes > 0.0]:
        _side_blocks(sums, p, q, b, x, K, step, np.flatnonzero(first == size), int(size))


def _side_blocks(sums, p, q, b, x, K, step, idx, size):
    """The blocks of `_mixture_side` for the points idx, the first of `size` terms."""
    start, carry, rows = 0, np.ones(x.size), len(sums)
    while idx.size:
        xi, qi, Ki, pi = x[idx], q[idx], K[idx], p[idx]
        k = Ki + step * np.arange(start + 1.0, start + size + 1.0)[:, None]   # term indices
        if step > 0:                                        # u_k = u_{k-1} r_{k-1}
            f = xi * ((qi - 1.0) + k) / (((b - 1.0) + k) * k)
        else:                                               # u_k = u_{k+1} / r_k, for k >= 0
            inside = k >= 0.0
            k = np.maximum(k, 0.0)
            f = (b + k) * (k + 1.0) / (xi * (qi + k)) * inside
        f[0] *= carry[idx]
        u = np.cumprod(f, axis=0)
        kept = np.logical_and.accumulate(u >= _CUT, axis=0)
        terms = np.empty((size, rows, idx.size))
        np.multiply(u, kept, out=terms[:, 0])
        if rows > 1:
            bk = b + k
            d = pi / (b + Ki) * (Ki - k) / bk               # p/(b+k) - p/(b+K), no cancellation
            np.multiply(terms[:, 0], d, out=terms[:, 1])
        if rows > 2:
            np.multiply(terms[:, 0], d * d + pi * (qi + k) / (bk * bk * (bk + 1.0)),
                        out=terms[:, 2])
        terms[0] += sums[:, idx]
        sums[:, idx] = np.cumsum(terms, axis=0)[-1]
        carry[idx] = u[-1]
        idx, start, size = idx[kept[-1]], start + size, _BLOCK


def _kummer_moments(N: int, p, q, x, order: int):
    """log Z (order 0), <v> and <v> - p/b (1) or Var v (2) of v ~ Beta(p, q)
    tilted by e^{-x v}, x >= 0, where each (p, q) is (c, 1/2) or (1/2, c),
    c = (N-1)/2, so that b = p + q = N/2.

    Z = 1F1(p; b; -x) = e^-x 1F1(q; b; x) (Kummer, DLMF 13.2.39), and the
    terms t_k = x^k (q)_k / (k! (b)_k) of 1F1(q; b; x) are positive: v is the
    mixture of Beta(p, q + k) with weights t_k / sum t.  So <v> and Var v
    (within plus between the components) are sums with no cancellation.
    Each sum runs outward from the largest term t_K, K the mode of t, on both
    sides, and log Z = log(e^-x t_K) + log(sum t / t_K); log(e^-x t_K) comes
    from Stirling's remainder, so that no log Gamma of a large argument enters.
    """
    b, c = 0.5 * N, 0.5 * (N - 1.0)
    # mode: r_k = t_{k+1}/t_k = x (q+k) / ((b+k)(k+1)) falls below 1 after the larger root
    y = x - (b + 1.0)
    disc = y * y - 4.0 * (b - x * q)
    K = np.ceil(np.maximum(0.5 * (y + np.sqrt(np.maximum(disc, 0.0))), 0.0))
    K[disc <= 0.0] = 0.0
    bK = b + K
    # sums of u_k = t_k/t_K, u_k d_k and u_k (d_k^2 + Var(v | k)), d_k = <v|k> - <v|K>
    sums = np.zeros((order + 1, x.size))
    sums[0] = 1.0
    if order == 2:
        sums[2] = p * (q + K) / (bK * bK * (bK + 1.0))
    _mixture_side(sums, p, q, b, x, K, 1)
    if np.any(K > 0.0):
        _mixture_side(sums, p, q, b, x, K, -1)
    if order == 1:      # <v>, and <v> less its value p/b at x = 0, exactly 0 for K = 0
        mean_shift = sums[1] / sums[0]
        return p / bK + mean_shift, (p / bK - p / b) + mean_shift
    if order == 2:
        mean_shift = sums[1] / sums[0]
        return sums[2] / sums[0] - mean_shift * mean_shift
    _, _, _, w_half, w_c = _nematic_constants(N)
    on, top = K > 0.0, q == 0.5
    Ks = np.maximum(K, 1.0)
    xs = np.where(on, x, Ks)
    # log(e^-x t_K) = log(e^-x x^K / K!) + log((q)_K / (b)_K): the first is
    # -log(2 pi K)/2 - bd0 - sigma(K), bd0 = K log(K/x) + x - K (Loader); the
    # second comes from sigma, for q = c as log Gamma(c + K + 1/2) - log Gamma(c + K)
    # less its K = 0 value.  The parts are O(1) and cancel against log(sum t/t_K),
    # so they are added with Neumaier's compensation
    e = (Ks - xs) / xs
    sig_K, sig_Kh, sig_cK, sig_cKh = _sigma(np.stack([Ks, Ks + 0.5, c + Ks, c + Ks + 0.5]))
    parts = [np.log(sums[0]), np.where(on, 0.0, -x),
             on * (-0.5 * np.log(2.0 * np.pi * Ks)), on * (-xs * ((1.0 + e) * np.log1p(e) - e)),
             on * -sig_K,
             on * np.where(top, Ks * np.log1p(-c / (b + Ks)), -0.5 * np.log1p(Ks / c)),
             on * np.where(top, -c * np.log1p(Ks / b),
                           -((c + Ks) * np.log1p(0.5 / (c + Ks)) - 0.5)),
             on * np.where(top, sig_Kh - sig_cKh, sig_cK - sig_cKh),
             on * np.where(top, w_half, w_c)]
    total, comp = parts[0], 0.0
    for t in parts[1:]:
        u = total + t
        comp = comp + np.where(np.abs(total) >= np.abs(t), (total - u) + t, (t - u) + total)
        total = u
    return total + comp


def moments(N: int, end, h, order: int):
    """g - e h (order 0), g' - e (1) or g'' (2) at each h; e is the top
    (end=1) or bottom (end=0) of m's range, or for g' (end=None) e = 0,
    then formed from the shift of <v> off its h = 0 value so that g' keeps
    its digits near h = 0.

    x^2 (x a coordinate of a uniform unit vector in R^N) is Beta(1/2, c) with
    c = (N-1)/2; tilted by e^{a x^2}, a = h N/(N-1), its Z is 1F1(1/2; N/2; a)
    = e^a 1F1(c; N/2; -a).  mu and var are the mean and variance of v, the
    one of x^2 (h <= 0) and 1 - x^2 (h > 0) that goes to 0 as |h| grows, and
    ell = log Z - a [h > 0]; g = (N-1)/N ell + e_h h, e_h the end on h's
    side, so no digit is lost at either end.  Regimes: docs/decisions.md.
    """
    h = np.asarray(h, dtype=float)
    a, c = h.ravel() * (N / (N - 1.0)), 0.5 * (N - 1.0)
    out = np.empty_like(a)
    lg_half, lg_c, half_ratio, _, _ = _nematic_constants(N)
    # v is Beta(p, q) tilted by e^{-|a| v}, and for large |a|
    # 1F1(p+j; N/2+j; -|a|) = Gamma(N/2+j)/Gamma(q) |a|^-(p+j) S_j + O(e^-|a|)
    # with S_j = sum_k (p+j)_k (1-q)_k / (k! |a|^k), used where exact to rounding:
    # the O(e^-|a|) part, of relative size e^-|a| |a|^(p-q) Gamma(q)/Gamma(p),
    # is below rounding, and the sums converge before their smallest term.
    # Only a point whose first ratio (p+j)(1-q)/|a| is below 1 (not a = 0,
    # nor a tiny |a| that would overflow the ratio) and whose O(e^-|a|) part
    # is below rounding enters the sums
    xa, pa, qa = np.abs(a), np.where(a > 0.0, c, 0.5), np.where(a > 0.0, 0.5, c)
    ser = np.flatnonzero((pa + 2.0) * np.abs(1.0 - qa) < xa)
    ser = ser[np.where(qa[ser] > 0.5, lg_c - lg_half, lg_half - lg_c)
              + (pa[ser] - qa[ser]) * np.log(xa[ser]) - xa[ser] < np.log(_EPS)]
    off = np.empty_like(a) if order == 1 else None
    big = ser
    if ser.size:
        x, p, q = xa[ser], pa[ser], qa[ser]
        term, S = np.ones((3, ser.size)), np.ones((3, ser.size))
        idx, k = np.arange(ser.size), 0
        while idx.size:                     # each point stops at its smallest term
            ratio = ((p[idx] + np.arange(3.0)[:, None] + k) * (1.0 - q[idx] + k)
                     / ((k + 1.0) * x[idx]))
            keep = np.all(np.abs(ratio) < 1.0, axis=0)
            idx = idx[keep]
            term[:, idx] *= ratio[:, keep]
            S[:, idx] += term[:, idx]
            idx, k = idx[np.any(np.abs(term[:, idx]) > _EPS * S[:, idx], axis=0)], k + 1
        exact = np.all(np.abs(term) <= _EPS * S, axis=0)
        big, x, p, q, S = ser[exact], x[exact], p[exact], q[exact], S[:, exact]
        r1, r2 = S[1] / S[0], S[2] / S[0]
        if order == 0:  # log Gamma(N/2) - log Gamma(q) = half_ratio [+ log Gamma(c) - log Gamma(1/2)]
            out[big] = (half_ratio + np.where(q > 0.5, 0.0, lg_c - lg_half)
                        - p * np.log(x) + np.log(S[0]))
        elif order == 1:
            out[big] = p * r1 / x
            off[big] = out[big] - p / (0.5 * N)     # <v> less its h = 0 value
        else:           # not <v^2> - <v>^2: no cancellation
            out[big] = p * ((p + 1.0) * r2 - p * r1 * r1) / x / x
    # every other point: the positive-term Kummer series, a chunk of points at a time
    rest = np.ones(a.size, dtype=bool)
    rest[big] = False
    rest = np.flatnonzero(rest)
    for i in range(0, rest.size, _CHUNK):
        sel = rest[i:i + _CHUNK]
        if order == 1:
            out[sel], off[sel] = _kummer_moments(N, pa[sel], qa[sel], xa[sel], 1)
        else:
            out[sel] = _kummer_moments(N, pa[sel], qa[sel], xa[sel], order)
    if order == 1 and end is None:      # g' = <x^2> - 1/N = +-(<v> - p/b)
        return np.where(a > 0.0, -off, off).reshape(h.shape)
    shift = (a > 0.0) - float(end)
    if order == 0:      # out is ell
        out = (N - 1.0) / N * out + shift * h.ravel()
    elif order == 1:    # out is <v>
        out = shift + np.where(a > 0.0, -out, out)
    else:               # out is Var v
        out = N / (N - 1.0) * out
    return out.reshape(h.shape)
