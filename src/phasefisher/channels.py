"""Quantum operations of the lossy interferometer.

Photon loss acts independently on each arm through the standard bosonic
attenuation Kraus family

    K_k = sqrt((1 - eta)^k / k!) eta^{n/2} a^k,   k = 0 .. n_max,

truncated exactly at the cutoff (a^k annihilates everything above it). The
implementation exploits the band structure of K_k: each two-mode Kraus pair
maps basis state |n1, n2> to the single state |n1 - k1, n2 - k2>, so the
channel only ever moves weight downward, onto the downward closure of the
input support. Which output states a pair's terms link is known from the
input support alone, so the output is built per component: only the
blocks of its connected components are summed, without any state-specific
assumption. Every output entry receives its terms in the row-major
(k1, k2) order of the plain double loop over pairs, so the result is the
loop's to the bit.

The virtual beam-splitter construction (couple each arm to a vacuum
environment mode, evolve with exp[theta (a^dag b - a b^dag)], trace the
environment) is retained as an independent cross-check of the Kraus route.

Phase averaging over an unknown common phase is exactly a dephasing between
total-photon-number sectors, implemented by masking rather than quadrature.
"""

from __future__ import annotations

import numpy as np

from .exceptions import TruncationTooSmall, check_eta
from .fock_core import DensityOperator, FockTruncation, _grouped, _read_only

# Kraus-sum terms apply_loss evaluates at once (more only if one row of a pair is longer)
LOSS_CHUNK_TERMS = 1 << 16


def two_arm_generator(trunc: FockTruncation) -> np.ndarray:
    """Diagonal of G = (n1 - n2)/2 over the basis, the antisymmetric phase between the arms."""
    n1, n2 = trunc.occupations()
    return _read_only((n1 - n2) / 2.0)


def single_arm_generator(trunc: FockTruncation) -> np.ndarray:
    """Diagonal of G = n1, a phase on one arm only; needs a reference to differ from two_arm."""
    n1, _ = trunc.occupations()
    return _read_only(n1.astype(float))


def _loss_table(eta: float, d: int) -> np.ndarray:
    """table[k, a] = <a| K_k |a + k> for a + k < d: the bands of K_k on the first d Fock states.

    Row k is row k - 1 times sqrt((1 - eta)(a + k) / k). Entries with
    a + k >= d are never read; each is still a binomial amplitude, at most
    1, so none overflows.
    """
    a = np.arange(d, dtype=float)
    k = np.arange(1, d)[:, None]
    return np.cumprod(np.vstack([eta ** (a / 2.0), np.sqrt((1.0 - eta) * (a + k) / k)]), axis=0)


def _downward_closure(n1: np.ndarray, n2: np.ndarray, d: int) -> np.ndarray:
    """Basis indices reachable from the states |n1, n2> by removing photons from either mode."""
    occ = np.zeros((d, d), dtype=bool)
    occ[n1, n2] = True
    c = np.logical_or.accumulate(occ[::-1, :], axis=0)[::-1, :]
    return np.flatnonzero(np.logical_or.accumulate(c[:, ::-1], axis=1)[:, ::-1])


def _kraus_loss(
    inputs: list[tuple[np.ndarray, np.ndarray]], eta: float, trunc: FockTruncation
) -> DensityOperator:
    """Loss on each (support, dense block) input, written straight into the components of one operator.

    The inputs' traces sum to 1; each may be one sector of a state. Pair
    (k1, k2) moves a source |n1, n2> of an input with n1 >= k1 and n2 >= k2
    to |n1 - k1, n2 - k2>, and its terms link the images of one (input,
    pair) group. An input's images are the downward closure of its support,
    and their connected unions are its lossy components; the components of
    different inputs are never merged, even where they share basis states.
    Only their blocks are laid out, in fock_core._grouped order, and
    summed. Term (r, c) of a group adds (w_r w_c) block[r, c], in the order
    of a double loop over the pairs, in chunks of at most LOSS_CHUNK_TERMS
    terms (or one row of a group, if longer). At eta = 1 only pair (0, 0)
    moves anything, so it is the only pair visited and each input comes
    back as it is.
    """
    d = trunc.dim_single
    sizes = np.array([support.size for support, _ in inputs])
    owner = np.repeat(np.arange(sizes.size), sizes)
    n1, n2 = np.divmod(np.concatenate([support for support, _ in inputs]), d)
    # every (source, pair) incidence, grouped by (input, pair) in row-major pair
    # order by a stable sort, which keeps the sources ascending within a group
    per_src = (n1 + 1) * (n2 + 1) if eta < 1.0 else np.ones_like(n1)
    src = np.repeat(np.arange(n1.size), per_src)
    k1, k2 = np.divmod(np.arange(src.size) - np.repeat(np.cumsum(per_src) - per_src, per_src), n2[src] + 1)
    order = np.argsort((owner[src] * d + k1) * d + k2, kind="stable")
    src, k1, k2 = src[order], k1[order], k2[order]
    first = np.flatnonzero(np.diff((owner[src] * d + k1) * d + k2, prepend=-1) != 0)
    # no pair or image reaches past the largest occupation of any input
    table = _loss_table(eta, int(max(n1.max(), n2.max())) + 1)
    w = table[k1, n1[src] - k1] * table[k2, n2[src] - k2]
    # the output states, (input, basis index) ascending, and each incidence's among them
    image = (owner[src] * d + n1[src] - k1) * d + n2[src] - k2
    order = np.argsort(image)
    fresh = np.diff(image[order], prepend=-1) != 0
    out, dst = image[order][fresh], np.empty_like(order)
    dst[order] = np.cumsum(fresh) - 1
    del order, k1, k2, image, fresh  # freed before the terms are summed
    # link each group's images until each output state holds its union's first position
    size = np.diff(first, append=src.size)
    labels, previous = np.arange(out.size), None
    while not np.array_equal(labels, previous):
        previous = labels.copy()
        np.minimum.at(labels, dst, np.repeat(np.minimum.reduceat(labels[dst], first), size))
        labels = labels[labels]
    # the components, one slice of acc per stack: output state q is column
    # col[q] of the row that starts at row[q], and basis state support[pos[q]]
    support = np.flatnonzero(np.bincount(out % (d * d)))
    pos = np.searchsorted(support, out % (d * d))
    acc = np.zeros(int(np.bincount(labels)[labels].sum()), dtype=complex)
    row, col, parts, used = np.empty_like(labels), np.empty_like(labels), [], 0
    for members in _grouped(labels):
        count, s = members.shape
        row[members] = used + (np.arange(count)[:, None] * s + np.arange(s)) * s
        col[members] = np.arange(s)
        parts.append((pos[members], acc[used : used + count * s * s].reshape(count, s, s)))
        used += count * s * s
    # per incidence, where its row starts and which column it is, in acc and in the inputs
    out_row, out_col = row[dst], col[dst]
    in_col = src - np.repeat(np.cumsum(sizes) - sizes, sizes)[src]
    in_row = (np.cumsum(sizes * sizes) - sizes * sizes)[owner[src]] + in_col * sizes[owner[src]]
    flat = inputs[0][1].ravel() if len(inputs) == 1 else np.concatenate([b.ravel() for _, b in inputs])
    # incidence i is the row of one term per incidence of its group: term t of
    # incidence i pairs it with incidence t - skip[i]; np.add.at adds in array order
    group = np.repeat(np.arange(first.size), size)
    size = size[group]
    ends = np.cumsum(size)
    skip = ends - size - first[group]
    del src, dst, group
    start = 0
    while start < size.size:
        done = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, done + LOSS_CHUNK_TERMS, side="right")), start + 1)
        r = np.repeat(np.arange(start, stop), size[start:stop])
        c = np.arange(done, ends[stop - 1]) - skip[r]
        np.add.at(acc, out_row[r] + out_col[c], (w[r] * w[c]) * flat[in_row[r] + in_col[c]])
        start = stop
    del w, out_row, out_col, in_row, in_col, size, ends, skip  # freed before the checks
    return DensityOperator(support, tuple(parts), trunc)


def apply_loss(rho: DensityOperator, eta: float) -> DensityOperator:
    """Equal transmittance eta on both modes, trace preserving and completely positive.

    The output is sum_{k1, k2} (K_k1 x K_k2) rho (K_k1 x K_k2)^dag, built
    straight into its components by _kraus_loss on the block over the
    support, which for a pure input is its stored block, read without a
    copy; its support is the downward closure of rho's.
    """
    check_eta(eta)
    if eta == 1.0:
        return rho
    return _kraus_loss([(rho.support, rho.on(rho.support))], eta, rho.truncation)


def phase_average(rho: DensityOperator) -> DensityOperator:
    """Dephase between total-photon sectors.

    Averaging a common phase theta over [0, 2pi) kills every matrix element
    between basis states of different n1 + n2 and leaves the rest untouched;
    the masking below is that integral done exactly. Idempotent.
    """
    tot = rho.truncation.totals()[rho.support]
    mask = tot[:, None] == tot[None, :]
    return DensityOperator(rho.support, np.where(mask, rho.on(rho.support), 0.0), rho.truncation)


def _bs_bands(eta: float, d: int) -> np.ndarray:
    """bands[e, a] = <a, e|U|a + e, 0> for a + e < d, the vacuum-environment columns of U.

    U = exp[theta (a^dag b - a b^dag)], cos(theta) = sqrt(eta), couples a mode
    to its environment b and conserves the total photon number (the SU(2)
    structure of the lossless beam splitter; Campos, Saleh and Teich, Phys.
    Rev. A 40, 1371 (1989)). On the block |n - e, e>, e = 0 .. n, it is
    exp(-iH) for the tridiagonal H = i theta (a^dag b - a b^dag), from one
    eigh; column |n, 0> is summed elementwise, so no BLAS product rounds it.
    """
    theta = np.arccos(np.sqrt(eta))
    bands = np.zeros((d, d), dtype=complex)
    for n in range(d):
        # <n - e - 1, e + 1|H|n - e, e> = -i theta sqrt((n - e)(e + 1))
        off = -1j * theta * np.sqrt(np.arange(n, 0, -1) * np.arange(1, n + 1))
        w, v = np.linalg.eigh(np.diag(off, -1) + np.diag(off.conj(), 1))
        e = np.arange(n + 1)
        bands[e, n - e] = (v * (np.exp(-1j * w) * v[0].conj())).sum(axis=1)
    return bands


def apply_loss_via_bs(rho: DensityOperator, eta: float) -> DensityOperator:
    """Loss through explicit vacuum environments, then a partial trace.

    Each mode gets its own vacuum environment; the beam splitter's columns
    from _bs_bands are the one-mode Kraus operators K_e[a, a + e] =
    bands[e, a], and tracing the environments out sums the pairs (e1, e2).
    As in apply_loss, the pairs that move an occupied state are the downward
    closure of the support, which is also the output support. Each pair adds
    w w^dag times its source block, elementwise, in row-major pair order.
    The environment shares the signal cutoff, which is exact: a mode holding
    at most n_max photons can lose at most n_max. A trace deficit beyond
    1e-9 (roundoff only) raises TruncationTooSmall.
    """
    check_eta(eta)
    trunc = rho.truncation
    d = trunc.dim_single
    bands = _bs_bands(eta, d)
    n1, n2 = np.divmod(rho.support, d)
    closure = _downward_closure(n1, n2, d)
    block = rho.on(rho.support)
    acc = np.zeros((closure.size, closure.size), dtype=complex)
    for e1, e2 in zip(*np.divmod(closure, d)):
        src = np.flatnonzero((n1 >= e1) & (n2 >= e2))
        a1, a2 = n1[src] - e1, n2[src] - e2
        w = bands[e1, a1] * bands[e2, a2]
        dst = np.searchsorted(closure, a1 * d + a2)
        acc[np.ix_(dst, dst)] += np.outer(w, w.conj()) * block[np.ix_(src, src)]
    deficit = abs(float(np.trace(acc).real) - 1.0)
    if deficit > 1e-9:
        raise TruncationTooSmall(
            f"beam-splitter route leaks trace {deficit:.3e} at cutoff {trunc.n_max}"
        )
    return DensityOperator(closure, acc, trunc)
