"""Quantum operations of the lossy interferometer.

Photon loss acts independently on each arm through the standard bosonic
attenuation Kraus family

    K_k = sqrt((1 - eta)^k / k!) eta^{n/2} a^k,   k = 0 .. n_max,

truncated exactly at the cutoff (a^k annihilates everything above it). Each
two-mode Kraus pair maps |n1, n2> to the single state |n1 - k1, n2 - k2>,
so loss moves weight onto the downward closure of the input support, and
the output states a pair links are known from the support alone. An input
block is sum_j V_j V_j^dag, given as its sources, the nonzero entries of
its columns V_j (a pure state: its amplitudes, one column; a mixed one:
each component's eigenvectors times the roots of their eigenvalues), and
each output component is the Gram product M M^dag of the Kraus images M
of those columns: the operator-sum form on a purification (Escher, de
Matos Filho and Davidovich, Nat. Phys. 7, 406 (2011)), state-agnostic.
The output support is the union of the images' states, taken over those
states alone, and the output's trace is held to the operator's own rule
(TRACE_ATOL) before it is built, a leak raising TruncationTooSmall.

The virtual beam-splitter construction (couple each arm to a vacuum
environment mode, evolve with exp[theta (a^dag b - a b^dag)], trace the
environment) is the same channel, whose one-mode Kraus elements are the
beam splitter's vacuum-environment columns. It is kept as a cross-check of
the Kraus table: those columns, propagated from the generator, go through
the one operator-sum body in place of the binomial table, so the check
reaches the table through the whole channel, not the body itself.

Phase averaging over an unknown common phase is exactly a dephasing between
total-photon-number sectors, implemented by masking rather than quadrature.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import TruncationTooSmall, check_eta
from .fock_core import TRACE_ATOL, DensityOperator, FockTruncation
from .fock_core import _fresh, _grouped, _labels, _read_only, _real_if_exact, _spectra, _trace, _union


def two_arm_generator(trunc: FockTruncation) -> np.ndarray:
    """Diagonal of G = (n1 - n2)/2 over the basis, the antisymmetric phase between the arms."""
    n1, n2 = trunc.occupations(np.arange(trunc.dim))
    return _read_only((n1 - n2) / 2.0)


def single_arm_generator(trunc: FockTruncation) -> np.ndarray:
    """Diagonal of G = n1, a phase on one arm only; needs a reference to differ from two_arm."""
    n1, _ = trunc.occupations(np.arange(trunc.dim))
    return _read_only(n1.astype(float))


def _loss_table(eta: float, d: int) -> np.ndarray:
    """table[k, a] = <a| K_k |a + k> for a + k < d: the bands of K_k on the first d Fock states.

    Row k is row k - 1 times sqrt((1 - eta)(a + k) / k), from row 0's
    eta^{a/2}. A column whose start is below 2^-1000 (0 < eta < 0.51 and a
    large) starts at eta^{a/2} 2^{s_a} instead, s_a the least shift that
    lifts it there, taken from eta = m 4^f, 1/2 <= m < 2, as m^{a/2} 2^{f a}
    with no underflow, and is scaled back by 2^{-s_a} at the end; so no
    entry of normal size reads 0 for an underflowed start. A read entry
    grows by at most 2^{d/2} <= 2^1024 down its column, so none overflows;
    the entries with a + k >= d are never read, and in a lifted column they
    may overflow to inf.
    """
    a = np.arange(d, dtype=float)
    k = np.arange(1, d)[:, None]
    start = eta ** (a / 2.0)
    # the lifted columns are the last ones, since the start falls with a; eta 0 keeps its zeros
    c = d - np.count_nonzero(start < 2.0**-1000) if eta > 0.0 else d
    if c < d:
        m, e = math.frexp(eta)
        m, f = (2.0 * m, (e - 1) // 2) if e % 2 else (m, e // 2)
        mantissa, e = np.frexp(m ** (a[c:] / 2.0))
        shift = -999 - e - f * np.arange(c, d)
        start[c:] = np.ldexp(mantissa, -999)
    # built in place, one (d, d) array: row 0 the starts, row k sqrt((1 - eta)(a + k)/k), then the product
    table = np.empty((d, d))
    table[0] = start
    steps = table[1:]
    np.add(a, k, out=steps)
    steps *= 1.0 - eta
    steps /= k
    np.sqrt(steps, out=steps)
    with np.errstate(over="ignore"):  # only an unread entry of a lifted column overflows
        np.cumprod(table, axis=0, out=table)
    if c < d:
        np.ldexp(table[:, c:], -shift, out=table[:, c:])
    return table


def _kraus_loss(
    state: np.ndarray, column: np.ndarray, amp: np.ndarray, label: np.ndarray,
    eta: float, trunc: FockTruncation, table_fn=_loss_table,
) -> DensityOperator:
    """Loss on the block sum_j V_j V_j^dag of the columns V_j of the sources, as one operator.

    Each source is one entry of V: its basis state, its column and its
    amplitude. table_fn(eta, d)[k, a] is <a|K_k|a + k>, up to a sign that
    depends on k alone (_loss_table, or the beam splitter's _bs_bands): a
    pair's sign is then the same on every image, and cancels in M M^dag.
    label is per column, and names the input a column belongs
    to (a sector of a state, say). Pair (k1, k2) moves each
    source |n1, n2> with n1 >= k1 and n2 >= k2 to |n1 - k1, n2 - k2>, one
    to one, so its image of column j is a column of M, filled with no sum.
    An image of value exactly 0 (eta = 0, or an underflowed (1 - eta)^k) is
    dropped first. A column links its images; their connected unions are
    the lossy components, in _grouped order, never merged across labels.
    A column's place among its component's columns, in the sorted order,
    is found per stack of equal-size components: the sorted distinct
    (component, column) keys (_union) and two searches, one for the key,
    one for its component's first. Each stack takes one batched M M^dag,
    real where the amplitudes' imaginary parts are exactly 0, and the lone
    states one np.bincount of |M entry|^2; a component whose every entry
    is 0 is dropped, and the support is the states of the rest, their
    _union. At eta = 1 only pair (0, 0) moves anything, so it is the only
    pair visited. The trace is the constructor's sum (fock_core._trace), and
    a leak beyond TRACE_ATOL raises TruncationTooSmall before the operator
    is built, so the constructor's own check, the same rule, never raises a
    plain ValueError first; this holds on every route through here:
    apply_loss, apply_loss_via_bs and the oracle's scenarios.
    """
    d = trunc.dim_single
    n1, n2 = trunc.occupations(state)
    # every (source, pair) incidence and its image's value
    per_src = (n1 + 1) * (n2 + 1) if eta < 1.0 else np.ones_like(n1)
    src = np.repeat(np.arange(n1.size), per_src)
    k1, k2 = np.divmod(np.arange(src.size) - np.repeat(np.cumsum(per_src) - per_src, per_src), n2[src] + 1)
    table = table_fn(eta, int(max(n1.max(), n2.max())) + 1)  # no pair reaches past it
    values = _real_if_exact(amp)[src] * table[k1, n1[src] - k1] * table[k2, n2[src] - k2]
    # the incidences whose image is not exactly 0 (a zero neither links states nor
    # fills M), sorted by (label, pair, column); callers list their sources label by
    # label, so the stable sort meets long sorted runs
    kept = values.nonzero()[0]
    j = column[src[kept]]
    key = ((label[j] * d + k1[kept]) * d + k2[kept]) * label.size + j
    by_key = np.argsort(key, kind="stable")
    fresh, order, j = _fresh(key[by_key]), kept[by_key], j[by_key]
    del key, kept, by_key
    src, k1, k2, values = src[order], k1[order], k2[order], values[order]
    first, run = fresh.nonzero()[0], np.cumsum(fresh) - 1  # each run is one column of M
    # the output states, (label, basis index) ascending, and each incidence's among them
    image = (label[j] * d + n1[src] - k1) * d + n2[src] - k2
    out = _union(image)
    dst = np.searchsorted(out, image)
    del src, k1, k2, j, image, fresh
    # each output state labelled by its component's first, linked to its column's first image
    labels = _labels(out.size, dst, dst[first][run])
    # output state q is row i of component k of the stack of its component's size
    parts, index, span = [], np.empty_like(labels), np.bincount(labels)[labels]
    for members in _grouped(labels):
        count, s = members.shape
        index[members] = np.arange(members.size).reshape(count, s)
        at = (span[dst] == s).nonzero()[0]
        k, i = np.divmod(index[dst[at]], s)
        if s == 1:
            blocks = np.bincount(k, (values[at] * values[at].conj()).real, count)[:, None, None]
        else:
            # a run's place among its component's runs, in run order: its column of M
            key = k * first.size + run[at]
            runs = _union(key)
            col = np.searchsorted(runs, key) - np.searchsorted(runs, k * first.size)
            del key, runs
            m = np.zeros((count, s, int(col.max()) + 1), dtype=values.dtype)
            m[k, i, col] = values[at]
            blocks = m @ m.conj().transpose(0, 2, 1)
            del m, col
        # a component whose every entry is 0 (underflowed) is dropped
        kept = blocks.any(axis=(1, 2)).nonzero()[0]
        if kept.size < count:
            members, blocks = members[kept], blocks[kept]
        parts.append((out[members] % (d * d), blocks))
    del values, dst, first, run, at, k, i  # freed before the checks
    leak = abs(_trace(parts) - 1.0)
    if leak > TRACE_ATOL:
        raise TruncationTooSmall(f"loss leaks trace {leak:.3e} at cutoff {trunc.n_max}")
    support = _union(*(m.ravel() for m, _ in parts))
    parts = tuple((np.searchsorted(support, m), b) for m, b in parts if m.size)
    return DensityOperator(support, parts, trunc)


def apply_loss(rho: DensityOperator, eta: float) -> DensityOperator:
    """Equal transmittance eta on both modes, trace preserving and completely positive.

    The output is sum_{k1, k2} (K_k1 x K_k2) rho (K_k1 x K_k2)^dag on the
    downward closure of rho's support, by _spectral_loss with the binomial
    table (_loss_table).
    """
    return _spectral_loss(rho, eta, _loss_table)


def _spectral_loss(rho: DensityOperator, eta: float, table_fn) -> DensityOperator:
    """_kraus_loss with table_fn from the spectra of rho's components.

    The spectra are taken under qfi_numeric's rule (fock_core._spectra):
    each eigenvector times the root of its eigenvalue is a column, and its
    entries on its component's own states are the sources.
    """
    check_eta(eta)
    if eta == 1.0:
        return rho
    sources, used = [], 0  # per stack: each source's state, column and amplitude
    for members, blocks in rho.parts:
        count, s = members.shape
        p, v, exponent = _spectra(blocks)
        # entry (k, i, c) is state i of component k in its eigenvector c, column used + k s + c
        column = np.tile(used + np.arange(count * s).reshape(count, 1, s), (1, s, 1))
        v = v * np.sqrt(np.ldexp(p, exponent[:, None]))[:, None, :]
        sources.append((np.repeat(rho.support[members], s), column.ravel(), v.ravel()))
        used += count * s
    return _kraus_loss(
        *map(np.concatenate, zip(*sources)), np.zeros(used, dtype=int), eta, rho.truncation, table_fn
    )


def phase_average(rho: DensityOperator) -> DensityOperator:
    """Dephase between total-photon sectors.

    Averaging a common phase theta over [0, 2pi) kills every matrix element
    between basis states of different n1 + n2 and leaves the rest untouched;
    the masking below is that integral done exactly. Idempotent.
    """
    tot = rho.truncation.totals(rho.support)
    mask = tot[:, None] == tot[None, :]
    return DensityOperator(rho.support, np.where(mask, rho.on(rho.support), 0.0), rho.truncation)


def _bessel_j(z: float) -> np.ndarray:
    """J_k(z) for k = 0 .. K, z > 0, K the last order with |J_k| > 1e-18.

    Miller's backward recurrence J_{k-1} = (2k / z) J_k - J_{k+1}, started
    at J_top = 1, J_{top+1} = 0 with top = z + 20 z^{1/3} + 40, where J_top
    is below 1e-30 (Airy decay past the turning point k = z), and
    normalised by J_0 + 2 sum_k J_{2k} = 1. The recurrence is stable
    downwards; whenever a value passes 2^500 every value so far is scaled by
    2^-500, so nothing overflows.
    """
    top = int(z + 20.0 * z ** (1.0 / 3.0) + 40.0)
    j = [0.0] * (top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = 2.0 * k / z * j[k] - j[k + 1]
        if abs(j[k - 1]) > 2.0**500:
            j[k - 1:] = [math.ldexp(v, -500) for v in j[k - 1:]]
    j = np.array(j[: top + 1])
    j /= j[0] + 2.0 * j[2::2].sum()
    return j[: (np.abs(j) > 1e-18).nonzero()[0][-1] + 1]


def _bs_bands(eta: float, d: int) -> np.ndarray:
    """bands[e, a] = <a, e|U|a + e, 0> for a + e < d, the vacuum-environment columns of U.

    U = exp(theta K), K = a^dag b - a b^dag, cos(theta) = sqrt(eta), couples a
    mode to its environment b and conserves the total photon number (the
    SU(2) structure of the lossless beam splitter; Campos, Saleh and Teich,
    Phys. Rev. A 40, 1371 (1989)). On the block |n - e, e>, e = 0 .. n, K is
    real antisymmetric and tridiagonal, K[e, e + 1] = sqrt((n - e)(e + 1)) =
    -K[e + 1, e], with eigenvalues i(n - 2m), so K' = K/(d - 1) has its
    spectrum in [-i, i] for every n < d. Column |n, 0> of exp(z K'),
    z = theta (d - 1), is the real Chebyshev series sum_k eps_k J_k(z) Q_k
    |n, 0>, Q_{k+1} = 2 K' Q_k + Q_{k-1} (Tal-Ezer and Kosloff, J. Chem.
    Phys. 81, 3967 (1984)), cut where J_k falls below 1e-18: |Q_k| <= 1. Every
    n goes at once, as the rows of the lower triangle of one (d, d) array
    packed row after row; K's coefficient past a row's end is 0, so no row
    reaches into the next. Each step is elementwise, with no BLAS product, so
    the bytes do not depend on the thread count.
    """
    n, e = np.tril_indices(d)  # row n of the packed triangle holds e = 0 .. n
    bands = np.zeros((d, d))
    theta = math.acos(math.sqrt(eta))
    if d == 1 or theta == 0.0:  # U is the identity on every column
        bands[0] = 1.0
        return bands
    j = 2.0 * _bessel_j(theta * (d - 1))
    # twice K' q is c[i] q[i + 1] - c[i - 1] q[i - 1]; c is 0 at each row's last entry
    c = 2.0 * np.sqrt((n - e) * (e + 1.0))[:-1] / (d - 1)
    prev = (e == 0).astype(float)  # Q_0 on each row's |n, 0>
    cur = np.zeros_like(prev)
    cur[:-1] = c * prev[1:]
    cur[1:] -= c * prev[:-1]
    cur *= 0.5  # Q_1 = K' Q_0
    total = prev * (j[0] / 2.0) + cur * j[1]  # z > 0 has J_1(z) > 1e-18
    step = np.empty_like(prev)
    for weight in j[2:]:
        # Q_{k+1} = 2 K' Q_k + Q_{k-1}, written over Q_{k-1}
        np.multiply(c, cur[1:], out=step[:-1])
        prev[:-1] += step[:-1]
        np.multiply(c, cur[:-1], out=step[:-1])
        prev[1:] -= step[:-1]
        np.multiply(prev, weight, out=step)
        total += step
        prev, cur = cur, prev
    bands[e, n - e] = total
    return bands


def apply_loss_via_bs(rho: DensityOperator, eta: float) -> DensityOperator:
    """Loss through explicit vacuum environments, then a partial trace.

    Each mode gets its own vacuum environment, and tracing the environments
    out of U rho U^dag leaves the operator sum over the pairs (e1, e2) of
    the one-mode Kraus operators K_e[a, a + e] = bands[e, a], the beam
    splitter's vacuum-environment columns from _bs_bands. The environment
    shares the signal cutoff, which is exact: a mode holding at most n_max
    photons can lose at most n_max. So this is apply_loss's body fed the
    bands in place of the binomial table; bands[e, a] = (-1)^e table[e, a],
    a sign that cancels in each output component. What the route checks
    against apply_loss is the one-mode table, propagated from the generator
    against the binomial cumprod, through the whole channel; the gather and
    Gram machinery of _kraus_loss is shared, and checked on its own by the
    np.kron tests.
    """
    return _spectral_loss(rho, eta, _bs_bands)
