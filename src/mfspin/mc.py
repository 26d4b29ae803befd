"""Metropolis / heat-bath Monte Carlo on the complete graph.

Hamiltonian (inverse temperature absorbed into J, external field zero):

    beta H_N(S) = -(J/N) * sum_{1 <= x < y <= N} (S_x, S_y)

For Potts and cubic spins one heat bath samples the single-site conditional
exactly.  Their states are numbered (Potts k is k; cubic +e_k is 2k, -e_k is
2k+1), and one integer list keeps field[s] = N + sum_y (S_y, s), less a
constant common to every s, so that state s weighs exp((J/N) (field[s] - N)).
A spin entering or leaving s moves field[s] and field[pair[s]]: for cubic the
opposite sign s ^ 1, for Potts a spare slot that is never read.  The fields,
and so each site's decision, depend only on the occupation counts of the
other spins; when the count vectors are few (n (N+1)^(n-1) <= 2^20 for n
states) their cumulative weights are tabulated once, each as a threshold:
the least uniform whose product with the row's total exceeds it.  Each site
reads its row by an integer key of the counts instead of summing the
weights, and scans it for the first threshold above its uniform.  Otherwise
a site sums its row, and the sites of the same state reuse it until a
decision changes the counts.  Both keep the bits of the plain sum, and take
the same decisions.  The sweeps run in blocks: one draw gives a
block's uniforms, and each block's fields (from its count keys, or recorded
by the loop) are projected with array operations once per block.

Nematic spins are unit vectors updated by Metropolis proposals with a step
size auto-tuned to 30-50% acceptance during burn-in.  A spin changes only at
its own update, so each sweep forms all its proposals at once, and the terms
that read the second-moment matrix are formed for a window of sites, up to
the first accept, sized from the running acceptance, through views of each
site's window made once per size; the samples keep the bits of a loop that
forms each proposal at its site.  Where the acceptance
repays it, the first accept of a run of sites forms the rank-two updates of
the second-moment matrix for the whole run, and a later accept in the run
only adds its own.  Each block of measured sweeps is projected with one
stacked eigvalsh.  Every sweep costs O(N) thanks to the maintained fields,
count keys and second-moment matrix.

The empirical magnetization is projected onto a scalar per model: Potts uses
the fraction of the most-populated state minus 1/q (matching the x_1 = 1/q+m
parametrization), cubic the signed component of largest magnitude, nematic
the top eigenvalue of the empirical order-parameter matrix.  Results are
deterministic functions of the configuration, including the seed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from .errors import CouplingOverflow, InsufficientSamples
from .models import ModelSpec

__all__ = ["MCConfig", "MCResult", "run_mc", "estimate_rate_function",
           "RateFunctionEstimate"]


@dataclass(frozen=True)
class MCConfig:
    model: ModelSpec
    J: float
    N: int                  # number of vertices
    sweeps: int
    burn_in: int = 0
    seed: int = 0
    histogram_bins: int = 100

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if not (self.burn_in >= 0 and self.sweeps >= self.burn_in + 2):
            raise ValueError("need burn_in >= 0 and sweeps >= burn_in + 2 (two measured sweeps)")
        # J = NaN passes J < 0, and an infinite J has no finite weights
        if not (math.isfinite(self.J) and self.J >= 0):
            raise ValueError(f"J must be finite and non-negative, got {self.J}")


@dataclass
class MCResult:
    config: MCConfig
    mean_scalar_m: float
    histogram: np.ndarray          # counts per bin, sums to n_samples
    bin_edges: np.ndarray
    pair_correlation: float        # <(S_x,S_y)> over distinct pairs
    pair_correlation_stderr: float
    mean_vector_norm_sq: float     # |<S>|^2 from the sample-averaged vector
    n_samples: int
    rate_estimates: Optional[np.ndarray] = None   # -(1/N) log(freq) per bin
    extras: Dict = field(default_factory=dict)

    def as_dict(self):
        out = {
            "model": str(self.config.model), "J": self.config.J,
            "N": self.config.N, "sweeps": self.config.sweeps,
            "burn_in": self.config.burn_in, "seed": self.config.seed,
            "mean_scalar_m": self.mean_scalar_m,
            "pair_correlation": self.pair_correlation,
            "pair_correlation_stderr": self.pair_correlation_stderr,
            "mean_vector_norm_sq": self.mean_vector_norm_sq,
            "n_samples": self.n_samples,
            "histogram": self.histogram.tolist(),
            "bin_edges": self.bin_edges.tolist(),
        }
        out.update(self.extras)
        return out


def _batch_stderr(x: np.ndarray, n_batches: int = 50) -> float:
    """Standard error via batch means (guards against autocorrelation)."""
    n = len(x)
    if n < 2 * n_batches:
        return float(np.std(x, ddof=1) / np.sqrt(max(n, 2)))
    usable = (n // n_batches) * n_batches
    means = x[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(n_batches))


# ---------------------------------------------------------------------------
# per-model chains: each generator owns its state, its random stream and its
# site update, and yields, for each block of sweeps that holds measured ones,
# their scalar m, |m_N|^2 and field vectors as arrays over those sweeps;
# run_mc does the bookkeeping common to all of them, and folds each block's
# field vectors in place
# ---------------------------------------------------------------------------

class _SpinSet(NamedTuple):
    """A finite spin set for the heat bath, as functions of the model param."""
    pair: Callable[[int], List[int]]   # per state, the state whose field moves against it
    initial: Callable                  # (rng, param, N) -> start-up states
    project: Callable                  # (fields, param, N) -> samples, a row each


def _cubic_initial(rng, r: int, N: int) -> List[int]:
    """Axes, then signs: sign bit 1 (+e_k) gives 2k, bit 0 (-e_k) 2k+1."""
    axis = rng.integers(0, r, size=N)
    return (2 * axis + 1 - rng.integers(0, 2, size=N)).tolist()


def _potts_project(field: np.ndarray, q: int, N: int):
    """Max state fraction - 1/q; the field vector is the state fractions.
    Rows are sweeps; |m_N|^2 sums the squares left to right, as sum() does."""
    fr = (field - N) / N
    sq = fr * fr
    return fr.max(axis=1) - 1.0 / q, np.cumsum(sq, axis=1, out=sq)[:, -1] - 1.0 / q, fr


def _cubic_project(field: np.ndarray, r: int, N: int):
    """Signed largest component (the first of equal magnitudes, as max(key=abs)
    takes); the field vector is the magnetization.  Rows are sweeps."""
    mhat = (field[:, 0:2 * r:2] - N) / N
    top = np.abs(mhat).argmax(axis=1)
    sq = mhat * mhat
    return (mhat[np.arange(len(mhat)), top], np.cumsum(sq, axis=1, out=sq)[:, -1],
            mhat)


_POTTS = _SpinSet(lambda q: [q] * q,
                  lambda rng, q, N: rng.integers(0, q, size=N).tolist(),
                  _potts_project)
_CUBIC = _SpinSet(lambda r: [s ^ 1 for s in range(2 * r)], _cubic_initial,
                  _cubic_project)


# the count-keyed table holds n (N+1)^(n-1) cumulative weights; while it is
# built and read, each costs at most 40 bytes (8 in numpy, 32 as a list float)
_TABLE_ENTRIES = 1 << 20


# a chain hands run_mc its samples a block of sweeps at a time: at most
# _BLOCK sweeps, whose uniforms (heat bath) or T matrices (nematic) hold at
# most _BLOCK_VALUES numbers, and whose heat-bath fields at most _BLOCK_FIELDS
_BLOCK = 64
_BLOCK_VALUES = 1 << 13
_BLOCK_FIELDS = 1 << 8


def _block(*limits: int) -> int:
    """Sweeps per block: at most _BLOCK and each limit, and at least one."""
    return max(1, min(_BLOCK, *limits))


# the nematic chain forms the energies of at most _WINDOW sites at once
_WINDOW = 8


def _window(p: float) -> int:
    """Sites per window at acceptance p, at most _WINDOW.  A window of k
    sites ends at its first accept, so it serves (1 - (1-p)^k) / p sites on
    average, and costs about two numpy calls plus a fifteenth of that per
    site; the cost per served site is least near k = 1.5 / p, and at one
    site when p is near 1."""
    return min(_WINDOW, int(1.5 / max(p, 1.5 / _WINDOW)))


def _run(p: float, Ns: int, longest: int) -> int:
    """Sites per run of rank-two updates at acceptance p: the longest run,
    or one site.  A run of k sites costs two numpy calls plus k times the
    products of one site, and serves 1 + p (k - 1) accepts.  Its cost per
    accept is monotone in k, and falls when p times what an accept saves by
    reading its update formed exceeds the cost of forming one site's update,
    which grows with Ns.  As timed, that holds from about p = Ns/35
    (docs/decisions.md)."""
    return longest if 35 * p > Ns else 1


def _field(pair: List[int], counts, N: int) -> list:
    """field[s] = N + sum_y (S_y, s) from the occupation counts; counts may
    be ints or numpy arrays of them."""
    field = [N] * (len(pair) + 1)
    for s, c in enumerate(counts):
        field[s] += c
        field[pair[s]] -= c
    return field


def _use_table(n: int, N: int, sweeps: int) -> bool:
    """Whether a heat-bath run of N sites and n states reads the count-keyed
    table: its n (N+1)^(n-1) entries (Python ints, so a large N never
    allocates a table it is too big for) are at most _TABLE_ENTRIES, and the
    run's N * sweeps site updates repay them.  An entry costs ((n > 2) +
    (n > 4))/2 updates, as timed for n <= 4 (docs/decisions.md): a two-state
    table always pays, a three- or four-state one from half an update per
    entry, and five or more states, not timed, from one."""
    entries = n * (N + 1) ** (n - 1)
    return entries <= _TABLE_ENTRIES and ((n > 2) + (n > 4)) * entries < 2 * N * sweeps


def _heat_bath_sweeps(spins: _SpinSet, cfg: MCConfig, extras: Dict, record_joint: bool):
    """Exact heat bath over a finite spin set; joint states are recorded as
    base-n codes of the configuration, n the number of states.

    Site x leaves its state and draws a new one from the cumulative weights
    of the n states, which depend only on the occupation counts of the other
    N - 1 spins.  Where the table of every row pays for itself (_use_table),
    each row is formed once and each decision reads its row (_table_sweeps);
    otherwise, as for a short run that would not repay the table's build,
    each site sums its row, or reuses the one its state's sites summed since
    the counts last changed (_loop_sweeps).  numpy's cumsum adds left to
    right from the first weight, as the loop does, so both paths take every
    decision with the same bits (docs/decisions.md).

    The sweeps run in blocks (_block): one draw gives a block's uniforms, the
    stream of as many draws of N, and each block's fields are projected at
    once.
    """
    param, J, N = cfg.model.param, cfg.J, cfg.N
    pair = spins.pair(param)
    n = len(pair)
    with np.errstate(over="ignore"):
        weights = np.exp((J / N) * np.arange(-N, N + 1, dtype=np.float64))
    if not np.isfinite(weights[-1]):
        raise CouplingOverflow(
            f"J = {J} exceeds ln(DBL_MAX) = 709.78: the heat-bath weights "
            f"exp((J/N) k) overflow")
    rng = np.random.default_rng(cfg.seed)
    sigma = spins.initial(rng, param, N)
    joint = extras.setdefault("joint_counts", {}) if record_joint else None
    block = _block(_BLOCK_VALUES // N, _BLOCK_FIELDS // n)
    uniforms = (rng.random((min(block, cfg.sweeps - start), N)).tolist()
                for start in range(0, cfg.sweeps, block))
    sweeps = _table_sweeps if _use_table(n, N, cfg.sweeps) else _loop_sweeps
    done = 0
    for fields in sweeps(pair, weights, sigma, uniforms, joint):
        burn = cfg.burn_in - done
        done += len(fields)
        if done > cfg.burn_in:
            yield spins.project(fields[max(burn, 0):], param, N)


def _loop_sweeps(pair, weights, sigma, uniforms, joint):
    """Each site sums its row of cumulative weights, or reuses its state's
    row while the counts stand; yields, per block of uniforms, the n fields
    after each of its sweeps as the rows of an int array.

    The row of a site in state s depends only on the counts less one spin of
    s, so one row per state serves every site of that state until a decision
    changes a state.  A change s -> t leaves the new counts less t equal to
    the old counts less s: the row just used becomes t's, t's old row goes
    to s as storage, and advancing the epoch marks every other row stale.  A
    row is made only for a state that has none, and when min(n, N) rows
    exist the stale ones are dropped first, so O(N + n min(n, N)) memory.
    Every row is the loop's left fold, and bisect_left on a nondecreasing row
    returns the first state whose cumulative weight reaches u, so each
    decision keeps its bits (docs/decisions.md).
    """
    n, N = len(pair), len(sigma)
    field = _field(pair, np.bincount(sigma, minlength=n).tolist(), N)
    table = weights.tolist()
    states = range(n)
    last = n - 1
    # rows[s][:n] holds the cumulative weights at the counts less one spin of
    # s, current while its stamp rows[s][n] equals the epoch; `none` is no row
    none = [0.0] * n + [0]
    rows = [none] * n
    live, cap = 0, min(n, N)
    epoch = 1
    for block in uniforms:
        fields = []
        for us in block:
            for x in range(N):
                s = sigma[x]
                row = rows[s]
                if row[n] == epoch:
                    # the first state whose cumulative weight reaches u
                    t = bisect_left(row, us[x] * row[last], 0, last)
                    if t != s:
                        field[s] -= 1
                        field[pair[s]] += 1
                        field[t] += 1
                        field[pair[t]] -= 1
                        # t takes the row just used, s takes t's stale one
                        rows[s] = rows[t]
                        rows[t] = row
                        epoch += 1
                        row[n] = epoch
                        sigma[x] = t
                else:
                    if row is none:
                        if live == cap:
                            # the current rows belong to occupied states
                            # other than s, so at least one row is stale
                            rows = [r if r[n] == epoch else none for r in rows]
                            live = sum(r is not none for r in rows)
                        row = rows[s] = [0.0] * (n + 1)
                        live += 1
                    field[s] -= 1
                    field[pair[s]] += 1
                    tot = 0.0
                    for k in states:
                        tot += table[field[k]]
                        row[k] = tot
                    t = bisect_left(row, us[x] * tot, 0, last)
                    field[t] += 1
                    field[pair[t]] -= 1
                    if t != s:
                        rows[s] = rows[t]
                        rows[t] = row
                        epoch += 1
                        sigma[x] = t
                    row[n] = epoch
                if joint is not None:
                    code = 0
                    for t in sigma:
                        code = code * n + t
                    joint[code] = joint.get(code, 0) + 1
            fields.append(field[:n])
        yield np.array(fields)


def _counts(key: np.ndarray, n: int, radix: int, total: int) -> list:
    """The n occupation counts that each key encodes: c_0..c_{n-2} in radix
    `radix`, and c_{n-1} = total less their sum."""
    counts = []
    for _ in range(n - 1):
        key, c = np.divmod(key, radix)
        counts.append(c)
    counts.append(total - sum(counts))
    return counts


def _cumulative_weights(pair: List[int], weights: np.ndarray, N: int) -> np.ndarray:
    """Row k holds the n cumulative weights at the counts of the N - 1 other
    spins that key k encodes.  Keys whose counts cannot occur clip their
    fields into range; no site reads them."""
    n, radix = len(pair), N + 1
    field = _field(pair, _counts(np.arange(radix ** (n - 1)), n, radix, N - 1), N)
    w = np.take(weights, np.stack(field[:n], axis=1), mode="clip")
    return np.cumsum(w, axis=1, out=w)


# the bit patterns of the doubles U in [0, 1), which the uniforms are, are the
# integers 0 .. _ONE - 1 in the order of U; the pattern -1 is a NaN
_ONE = int(np.float64(1.0).view(np.int64))
_INF = int(np.float64(np.inf).view(np.int64))


def _passes(bits: np.ndarray, totals, cums) -> np.ndarray:
    """Whether fl(U W) > c for the U of each bit pattern: numpy's multiply
    rounds as a Python float's does.  False for the pattern -1."""
    with np.errstate(invalid="ignore", over="ignore"):
        return bits.view(np.float64) * totals > cums


def _misses(bits: np.ndarray, totals, cums) -> np.ndarray:
    """Where the pattern is not the least U with fl(U W) > c: its predecessor
    passes, or it fails.  _ONE stands for "no U < 1 passes", and passes."""
    return _passes(bits - 1, totals, cums) | ((bits != _ONE) & ~_passes(bits, totals, cums))


def _thresholds(cums: np.ndarray) -> np.ndarray:
    """The rows of cumulative weights c (total W, the last entry) in U-space:
    entry s becomes the least double U with fl(U W) > c_s, and +inf where no
    U < 1 has it, as for the last entry.  For W = inf a finite c_s gives the
    least positive double.

    fl(U W) is nondecreasing in U (U = 0 gives NaN only for W = inf, and fails
    like every U below the threshold), so fl(U W) > c_s exactly when U >= t_s,
    and the first threshold above a draw U marks the first state whose c_s
    reaches fl(U W).  Each entry starts one ulp above fl(c_s / W), where nine
    entries in ten have the property (Potts q = 3); the rest gallop in ulps
    away from there until the property is bracketed, then bisect the
    bracket.  Every entry is checked, and one that misses raises."""
    totals = cums[:, -1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        thr = cums / totals
    bits = thr.view(np.int64)
    # NaN (c = W = inf, or a NaN row) clips to the largest U, and fails
    np.clip(bits, -1, _ONE - 2, out=bits)
    bits += 1
    bits[:, -1] = _ONE
    fix = np.flatnonzero(_misses(bits, totals, cums))
    if len(fix):
        flat = bits.reshape(-1)
        c = cums.reshape(-1)[fix]
        W = cums[fix // cums.shape[1], -1]
        b = flat[fix]
        up = ~_passes(b, W, c)
        # the pattern lo fails and hi passes: -1 (a NaN) fails for every W
        lo, hi = np.where(up, b, -1), np.where(up, _ONE, b - 1)
        step = 1
        while True:
            todo = hi - lo > 1
            if not todo.any():
                break
            # gallop away from the guess while the far end is open, then bisect
            probe = np.where(up & (hi == _ONE), lo + step,
                             np.where(~up & (lo == -1), hi - step, (lo + hi) >> 1))
            np.clip(probe, lo + 1, hi - 1, out=probe)
            ok = _passes(probe, W, c)
            hi = np.where(todo & ok, probe, hi)
            lo = np.where(todo & ~ok, probe, lo)
            step = min(2 * step, _ONE)
        if _misses(hi, W, c).any():
            raise ArithmeticError("a count-table threshold misses the least U "
                                  "with fl(U W) > c")
        flat[fix] = np.where(hi == _ONE, _INF, hi)
    bits[:, -1] = _INF
    return thr


def _table_sweeps(pair, weights, sigma, uniforms, joint):
    """Each site reads its row from the count-keyed table; yields, per block
    of uniforms, the n fields after each of its sweeps as the rows of an int
    array, decoded from the sweeps' keys at once.  The key is kept times n,
    so the counts less the leaving spin give the row's offset in the flat
    table: the stride of state s is n (N+1)^s, and 0 for the last state,
    whose count is implied.  A site keeps its state as its stride, st[x], and
    the list ps gives the stride of each table position's state, so a
    decision reads no state.

    The rows are held in U-space (_thresholds): a site draws U and scans its
    row from the first entry to the first threshold above U, which is the
    first state whose cumulative weight reaches fl(U W), ties included, so
    the chain keeps the bits of the loop's decisions and forms no product.
    The last threshold is +inf, so the scan needs no bound.  The table fits
    only for few states, and a scan of a short row costs less than a call to
    bisect_left (docs/decisions.md)."""
    n, N = len(pair), len(sigma)
    radix = N + 1
    thr = _thresholds(_cumulative_weights(pair, weights, N)).ravel().tolist()
    stride = [n * radix ** s for s in range(n - 1)] + [0]
    ps = stride * radix ** (n - 1)
    state = {d: s for s, d in enumerate(stride)}
    st = [stride[s] for s in sigma]
    key = sum(st)
    for block in uniforms:
        keys = []
        for us in block:
            for x, u in enumerate(us):
                row = key - st[x]
                # the first state whose threshold exceeds u; the last is +inf
                s = row
                while thr[s] <= u:
                    s += 1
                st[x] = d = ps[s]
                key = row + d
                if joint is not None:
                    code = 0
                    for t in st:
                        code = code * n + state[t]
                    joint[code] = joint.get(code, 0) + 1
            keys.append(key)
        field = _field(pair, _counts(np.array(keys) // n, n, radix, N), N)
        yield np.stack(field[:n], axis=1)


def _nematic_sweeps(cfg: MCConfig, extras: Dict, record_joint: bool):
    """Metropolis with its step tuned during burn-in; the field vector is the
    traceless order-parameter matrix.  Joint states are not recorded.

    Proposals are formed per sweep.  This is exact: a spin changes only at
    its own update, so every proposal of a sweep is known when the sweep
    starts, and w = (v + step * noise) / |.| and the overlap v . w are formed
    for all sites at once.  The terms that read T, T (w, vx) and the two
    quadratic forms, are formed for a window of upcoming sites at the T they
    have until the next accept, which moves T and ends the window; the next
    window starts at the next site.  The window holds about the 1/p sites up
    to an accept at the running acceptance p (_window).  Each site's window
    is a pair of views of the proposals and spins, made for every site
    whenever the window size changes, so a window slices nothing; the views
    are O(N) objects.  Every norm, overlap
    and quadratic form is a stacked matmul, which numpy hands to the same
    BLAS dot (and T w to the same gemv) as the one-vector calls, so the chain
    keeps the bits of a loop that forms each proposal at its site;
    norm(axis=1) and einsum round differently (docs/decisions.md).  A site
    reads only its own spin, so the accepted proposals are copied into v once
    per sweep.

    An accept adds w w^T - vx vx^T to T.  These rank-two updates are formed
    for a run of sites from the accepting one, by one multiply and one
    subtract (the elementwise products and differences np.outer and its
    difference make), and a later accept within the run reads its own from a
    list of views of them, made with the buffers; the next accept past the
    run starts another.  This is exact because W is fixed for the sweep and
    v changes only at its end.  The run is the
    longest that _BLOCK_VALUES allows where the running acceptance repays
    it, and one site elsewhere (_run).  The sweep holds O(N Ns) floats, and a
    block of measured sweeps their T matrices.
    """
    Ns, J, N = cfg.model.param, cfg.J, cfg.N
    rng = np.random.default_rng(cfg.seed)
    # the longest run of sites whose rank-two updates are formed at once:
    # its buffers hold 3 run Ns^2 floats, at most 3/4 of _BLOCK_VALUES
    longest = max(1, min(N, _BLOCK_VALUES // (4 * Ns * Ns)))
    # the sweep's proposals W and the spins v, padded so that a window or a
    # run that goes past the last site still has its rows (zeros, never read)
    Wv = np.zeros((2, N + max(_WINDOW, longest) - 1, Ns))
    W, v = Wv[:, :N]
    v[...] = rng.normal(size=(N, Ns))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    T = v.T @ v
    step = 0.5
    accepted = 0
    proposed = 0
    scale = -(J / N)
    # sites[x] = (w, vx) as rows; its vx is the live v[x], which only the
    # site's own update changes
    sites = Wv.transpose(1, 0, 2)
    rows, cols = sites[:, :, None, :], sites[:, :, :, None]
    block = _block(_BLOCK_VALUES // (Ns * Ns), cfg.sweeps - cfg.burn_in)
    Ts = np.empty((block, Ns, Ns))    # T after each measured sweep of a block
    kept = 0
    window = run = 0

    for sweep in range(cfg.sweeps):
        # the noise is dropped once scaled, so that no sweep holds two draws
        np.multiply(step, rng.normal(size=(N, Ns)), out=W)
        us = rng.random(N).tolist()
        W += v
        W /= np.sqrt(W[:, None, :] @ W[:, :, None])[:, 0]
        # floats, squared per site: float ** 2 calls pow, as the np.float64
        # scalar does, and an array's ** 2 (x * x) can differ in the last bit
        overlaps = (v[:, None, :] @ W[:, :, None]).ravel().tolist()
        p = accepted / proposed if proposed else 1.0
        sizes = _window(p), _run(p, Ns, longest)
        if sizes != (window, run):
            window, run = sizes
            Tu = np.empty((window, 2, Ns, 1))         # T w and T vx
            forms = np.empty((window, 2, 1, 1))       # w^T T w and vx^T T vx
            flat = forms.reshape(-1)
            outers = np.empty((run, 2, Ns, Ns))       # w w^T and vx vx^T
            wws, vvs = outers.transpose(1, 0, 2, 3)
            dTs = np.empty((run, Ns, Ns))
            # each site's window as views made once, and the run's updates
            wcols = [cols[i:i + window] for i in range(N)]
            wrows = [rows[i:i + window] for i in range(N)]
            dTl = list(dTs)
        taken = []
        x = hi = 0
        while x < N:
            # energy against the field of the other spins:
            # sum_y!=x (u.v_y)^2 = u^T (T - vx vx^T) u, for u = w and u = vx
            end = x + window
            np.matmul(T, wcols[x], out=Tu)
            np.matmul(wrows[x], Tu, out=forms)
            fs = iter(flat.tolist())
            for x, wTw, vTv in zip(range(x, end if end < N else N), fs, fs):
                e_new = wTw - overlaps[x] ** 2
                e_old = vTv - 1.0
                dE = scale * (e_new - e_old)
                if dE <= 0.0 or us[x] < np.exp(-dE):
                    accepted += 1
                    if x >= hi:
                        lo, hi = x, x + run
                        np.multiply(cols[lo:hi], rows[lo:hi], out=outers)
                        np.subtract(wws, vvs, out=dTs)
                    T += dTl[x - lo]
                    taken.append(x)
                    break             # T moved: the window's later forms are stale
            x += 1
        # a site reads only its own spin, so the accepted proposals become
        # spins at the end of the sweep
        v[taken] = W[taken]
        proposed += N
        if sweep < cfg.burn_in and sweep % 25 == 24:
            rate = accepted / proposed
            if rate > 0.5:
                step = min(step * 1.25, 5.0)
            elif rate < 0.3:
                step = max(step * 0.8, 1e-3)
            accepted = proposed = 0
        if sweep >= cfg.burn_in:
            Ts[kept] = T
            kept += 1
            if kept == block or sweep == cfg.sweeps - 1:
                Qbar = Ts[:kept] / N - np.eye(Ns) / Ns
                yield (np.linalg.eigvalsh(Qbar)[:, -1], np.sum(Qbar * Qbar, axis=(1, 2)),
                       Qbar)
                kept = 0
    extras["acceptance_rate"] = accepted / max(proposed, 1)
    extras["step"] = step


class _Chain(NamedTuple):
    sweeps: Callable        # generator (cfg, extras, record_joint) -> samples
    # subtracted from |mean field vector|^2 to give |<S>|^2
    vector_offset: Callable[[int], float]


_CHAINS = {
    "potts": _Chain(partial(_heat_bath_sweeps, _POTTS), lambda q: 1.0 / q),
    "cubic": _Chain(partial(_heat_bath_sweeps, _CUBIC), lambda r: 0.0),
    "nematic": _Chain(_nematic_sweeps, lambda Ns: 0.0),
}


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def run_mc(config: MCConfig, record_joint_states: bool = False) -> MCResult:
    """Run one chain and collect the scalar-magnetization statistics."""
    model, N = config.model, config.N
    chain = _CHAINS[model.kind]
    n_meas = config.sweeps - config.burn_in
    scalar = np.empty(n_meas)
    msq = np.empty(n_meas)            # |m_N|^2 per sample
    vec_sum = 0.0
    extras: Dict = {}
    i = 0
    for m, m_sq, vecs in chain.sweeps(config, extras, record_joint_states):
        scalar[i:i + len(m)] = m
        msq[i:i + len(m)] = m_sq
        i += len(m)
        # the left fold vec_sum + vec over the samples, carried across blocks
        vecs[0] += vec_sum
        vec_sum = np.cumsum(vecs, axis=0, out=vecs)[-1].copy()
    mean_vec = vec_sum / n_meas
    pair = (N * N * msq - N * model.kappa) / (N * (N - 1.0))
    lo, hi = model.m_bounds()
    # a fully ordered Potts sample can land an ulp above hi (1 - 1/q rounds
    # up for q = 3 and 7); clipping keeps it in the last bin
    hist, edges = np.histogram(np.clip(scalar, lo, hi), bins=config.histogram_bins,
                               range=(lo, hi))
    with np.errstate(divide="ignore"):
        freq = hist / len(scalar)
        rate = np.where(hist > 0, -np.log(np.maximum(freq, 1e-300)) / N,
                        np.nan)
    return MCResult(
        config=config,
        mean_scalar_m=float(scalar.mean()),
        histogram=hist, bin_edges=edges,
        pair_correlation=float(pair.mean()),
        pair_correlation_stderr=_batch_stderr(pair),
        mean_vector_norm_sq=float(np.sum(mean_vec ** 2)
                                  - chain.vector_offset(model.param)),
        n_samples=len(scalar),
        rate_estimates=rate,
        extras=extras,
    )


@dataclass
class RateFunctionEstimate:
    """Per-bin rate values extrapolated linearly in 1/N."""

    bin_centers: np.ndarray
    rate: np.ndarray               # intercept of -(1/N) log freq vs 1/N
    adequate: np.ndarray           # bool: >= 10 samples at largest N
    results: List[MCResult]

    def shifted_rate(self) -> np.ndarray:
        """Rate minus its minimum over adequately sampled bins."""
        return self.rate - np.nanmin(self.rate[self.adequate])


def estimate_rate_function(model: ModelSpec, J: float, Ns: Sequence[int],
                           sweeps: int, burn_in: int, seed: int = 0,
                           histogram_bins: int = 100) -> RateFunctionEstimate:
    """Estimate the large-deviation rate of the scalar magnetization.

    Runs one chain per vertex count, computes per-bin -(1/N) log(frequency)
    and extrapolates linearly in 1/N.  Bins with fewer than 10 samples
    at the largest N are flagged inadequate and excluded from the
    extrapolation (never filled in); InsufficientSamples is raised when no
    bin is adequate.
    """
    Ns = sorted(int(n) for n in Ns)
    if len(Ns) < 3:
        raise ValueError("need at least three values of N for extrapolation")
    results = []
    for i, n in enumerate(Ns):
        cfg = MCConfig(model=model, J=J, N=n, sweeps=sweeps, burn_in=burn_in,
                       seed=seed + 1000 * i, histogram_bins=histogram_bins)
        results.append(run_mc(cfg))
    edges = results[0].bin_edges
    centers = 0.5 * (edges[:-1] + edges[1:])
    per_N = np.vstack([r.rate_estimates for r in results])
    largest = results[-1]
    adequate = largest.histogram >= 10

    rate = np.full(len(centers), np.nan)
    invN = 1.0 / np.asarray(Ns, dtype=float)
    for b in range(len(centers)):
        ys = per_N[:, b]
        ok = np.isfinite(ys)
        if adequate[b] and ok.sum() >= 3:
            coef = np.polyfit(invN[ok], ys[ok], 1)
            rate[b] = coef[1]          # intercept: N -> infinity
        else:
            adequate[b] = False
    if not adequate.any():
        raise InsufficientSamples(
            f"no histogram bin has 10 samples at N={Ns[-1]} and a finite rate "
            f"at three N; raise sweeps")
    return RateFunctionEstimate(bin_centers=centers, rate=rate,
                                adequate=adequate, results=results)
