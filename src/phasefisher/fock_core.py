"""Truncated two-mode Fock-space linear algebra.

States and operators live on the product basis |n1, n2> with 0 <= ni <= n_max,
ordered row-major with mode 1 major: index(n1, n2) = n1 * (n_max + 1) + n2.
The fixed ordering keeps golden-file comparisons bit-stable.

Pure states are dense complex128 amplitude vectors. A density operator is
built from the basis states it occupies and the dense block over them, or
predicted components of it, and keeps only the connected components of its
exact nonzeros, found once at construction. Values are treated as immutable
after construction; the wrappers mark their buffers read-only.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .exceptions import (
    DimensionMismatch,
    NotHermitian,
    NumericalOverflow,
    OracleTooLarge,
    TruncationTooSmall,
)

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-10
NORM_ATOL = 1e-10

# largest complex amplitude vector over the two-mode basis (n_max <= 2047); the
# oracle's probes and their per-basis-state arrays all scale with it
MAX_STATE_VECTOR_BYTES = 1 << 26


@dataclass(frozen=True)
class FockTruncation:
    """Per-mode Fock cutoff. Two-mode dimension is (n_max + 1)**2.

    n_max above 2047 raises OracleTooLarge: one amplitude vector over the
    two-mode basis would pass MAX_STATE_VECTOR_BYTES.
    """

    n_max: int

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise ValueError(f"n_max must be nonnegative, got {self.n_max}")
        # every oversized cutoff is refused here, before anything is allocated
        need = 16 * self.dim
        if need > MAX_STATE_VECTOR_BYTES:
            raise OracleTooLarge(
                f"cutoff n_max={self.n_max} needs {need / 2**30:.3g} GiB per state vector; "
                f"the oracle allows {MAX_STATE_VECTOR_BYTES / 2**20:g} MiB"
            )

    @property
    def dim_single(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** 2

    def index(self, n1: int, n2: int) -> int:
        if not (0 <= n1 <= self.n_max and 0 <= n2 <= self.n_max):
            raise ValueError(f"occupation ({n1}, {n2}) outside cutoff {self.n_max}")
        return n1 * self.dim_single + n2

    def occupations(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (n1, n2) over the basis, in index order."""
        d = self.dim_single
        return np.repeat(np.arange(d), d), np.tile(np.arange(d), d)

    def totals(self) -> np.ndarray:
        """Total photon number n1 + n2 per basis index."""
        n1, n2 = self.occupations()
        return n1 + n2


def truncation_for_tolerance(alpha: complex, tail_tol: float) -> FockTruncation:
    """Smallest cutoff whose coherent tail weight is below tail_tol.

    The tail is sum_{n > n_max} |c_n|^2 for the coherent amplitudes of
    strength |alpha|, the Poisson tail P(N > n_max) at mean |alpha|^2; it
    bounds the weight any state built here can lose. The tail is summed
    from the top down with each term taken in log space, so neither an
    underflowing e^{-|alpha|^2} nor the roundoff of 1 - P(N <= n_max) moves
    the cutoff. A cutoff past the size ceiling raises OracleTooLarge.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail tolerance must be in (0, 1), got {tail_tol}")
    lam = abs(alpha) * abs(alpha)  # inf past double range, where ** raises OverflowError
    if lam == 0.0:
        return FockTruncation(0)
    if not lam < math.inf:
        raise NumericalOverflow(f"|alpha|^2 overflows double precision at alpha={alpha}")
    log_lam = math.log(lam)

    def log_term(k: int) -> float:
        return k * log_lam - lam - math.lgamma(k + 1)

    # P(N >= floor(lam)) >= 1/2, so every tail_tol below 1/2 needs a cutoff of at
    # least floor(lam): the walk starts there, and a mean past the size ceiling
    # is refused before it
    n = FockTruncation(math.floor(lam)).n_max
    # climb until the terms are negligible against tail_tol ...
    negligible = math.log(tail_tol) - 40.0
    while log_term(n) > negligible:
        n += 1
    # ... then lower the cutoff while the weight above it stays within tail_tol
    tail = 0.0
    while n > 0:
        term = math.exp(log_term(n))
        if tail + term > tail_tol:
            break
        tail += term
        n -= 1
    return FockTruncation(n)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over the two-mode basis."""

    amplitudes: np.ndarray
    truncation: FockTruncation

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (self.truncation.dim,):
            raise DimensionMismatch(
                f"amplitude shape {self.amplitudes.shape} for dim {self.truncation.dim}"
            )
        nrm = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if abs(nrm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm^2 = {nrm!r} deviates from 1 beyond {NORM_ATOL}")
        _read_only(self.amplitudes)

    def density(self) -> "DensityOperator":
        support = np.flatnonzero(self.amplitudes)
        amp = self.amplitudes[support]
        return DensityOperator(support, np.outer(amp, amp.conj()), self.truncation)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, trace-one operator over the two-mode basis, stored as its exact-zero components.

    support is a strictly increasing array of basis indices; every entry
    outside support x support is exactly zero. block is the dense block over
    support, or predicted parts: stacks as in `parts` whose components cover
    every exact nonzero. Finite entries, hermiticity and trace are enforced
    on them, and _components splits any of two or more states that holds an
    exact zero, so parts are always the connected components of the exact
    nonzeros (a lone state is one, whatever its entry). Positivity is
    enforced where spectra are taken (the QFI eigensolve clips
    roundoff-negative eigenvalues and rejects anything worse).
    """

    support: np.ndarray
    block: InitVar[np.ndarray | tuple[tuple[np.ndarray, np.ndarray], ...]]
    truncation: FockTruncation
    parts: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False)

    def __post_init__(self, block) -> None:
        s, d = self.support, self.truncation.dim
        if s.ndim != 1 or not np.issubdtype(s.dtype, np.integer) or (
            s.size and (s[0] < 0 or s[-1] >= d or np.any(np.diff(s) <= 0))
        ):
            raise DimensionMismatch(f"support must be strictly increasing integers in [0, {d})")
        if not isinstance(block, tuple):
            if block.shape != (s.size, s.size):
                raise DimensionMismatch(f"block shape {block.shape} for support size {s.size}")
            block = ((np.arange(s.size)[None], block[None]),)
        dev = 0.0
        for members, blocks in block:
            if not np.isfinite(blocks).all():
                k, i, j = np.argwhere(~np.isfinite(blocks))[0]
                raise NumericalOverflow(
                    f"non-finite entry {complex(blocks[k, i, j])} "
                    f"at basis indices ({s[members[k, i]]}, {s[members[k, j]]})"
                )
            # a fresh array even for a real block, whose .conj() is the block
            # itself; subtracting in place then copies a large block once
            gap = np.conj(blocks.transpose(0, 2, 1))
            gap -= blocks
            dev = max(dev, float(np.abs(gap).max(initial=0.0)))
        if dev > HERMITICITY_ATOL:
            raise NotHermitian(f"hermiticity deviation {dev:.3e} beyond {HERMITICITY_ATOL}")
        tr = sum(complex(np.trace(b, axis1=1, axis2=2).sum()) for _, b in block)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace {tr!r} deviates from 1 beyond {TRACE_ATOL}")
        object.__setattr__(self, "parts", block)
        # a predicted component holds an exact zero; a lone state cannot split
        if not all(b.all() for m, b in block if m.shape[1] > 1):
            block = _components(self.on(s))
        object.__setattr__(self, "parts", tuple((_read_only(m), _read_only(b)) for m, b in block))
        _read_only(s)

    def on(self, support: np.ndarray) -> np.ndarray:
        """The operator as a dense array over a strictly increasing superset of its support.

        When one component spans support, this is its stored block, read-only.
        """
        (members, blocks), *rest = self.parts
        if not rest and members.shape == (1, support.size):
            return blocks[0]
        pos = np.searchsorted(support, self.support)
        out = np.zeros((support.size, support.size), dtype=complex)
        for members, blocks in self.parts:
            out[pos[members][:, :, None], pos[members][:, None, :]] = blocks
        return out

    @property
    def matrix(self) -> np.ndarray:
        """Read-only dense (dim, dim) view, allocated on each access."""
        return _read_only(self.on(np.arange(self.truncation.dim)))


def _components(block: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The connected components of a dense block's exact nonzeros, stacked as by _grouped.

    Each position takes the smallest label among its nonzero entries, then
    that label's label, until no label moves.
    """
    linked = block != 0
    linked |= linked.T
    np.fill_diagonal(linked, True)
    labels, previous = np.arange(block.shape[0]), None
    while not np.array_equal(labels, previous):
        previous = labels
        labels = np.where(linked, labels, block.shape[0]).min(axis=1)
        labels = labels[labels]
    return tuple((m, block[m[:, :, None], m[:, None, :]]) for m in _grouped(labels))


def _grouped(labels: np.ndarray) -> list[np.ndarray]:
    """The components that labels names, as one (count, size) members stack per size.

    labels[i] is the smallest position in i's component. Sizes increase;
    rows increase and are ordered by first entry.
    """
    order = np.argsort(labels, kind="stable")
    size = np.bincount(labels)[labels[order]]
    return [order[size == s].reshape(-1, s) for s in sorted(set(size.tolist()))]


def coherent_vector(alpha: complex, trunc: FockTruncation) -> np.ndarray:
    """Single-mode coherent amplitudes c_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!).

    The recurrence c_n = c_{n-1} alpha / sqrt(n) is carried as a mantissa
    times a power of two, so no amplitude passes through a subnormal on its
    way to the peak. It starts from e^{-lam/2} = 2^{-k} e^{k ln 2 - lam/2},
    lam = |alpha|^2, with k = 0 (the plain start) while e^{-lam/2} >= 2^-1000
    and k <= 2000: the start stays at least 2^-1000 up to lam = 4159, past
    every cutoff the size ceiling allows, and decays to 0 beyond, where the
    tail check fails.

    Raises TruncationTooSmall when the dropped tail 1 - ||c||^2 exceeds
    NORM_ATOL, the bound StateVector puts on every pure state: the one tail
    rule. A tail tolerance only picks cutoffs (truncation_for_tolerance).
    """
    lam = abs(alpha) ** 2
    k = min(max(0, math.ceil(lam / (2.0 * math.log(2.0))) - 1000), 2000)
    m = complex(math.exp(k * math.log(2.0) - lam / 2.0))
    mantissas, shifts = [m], [-k]
    for r in (1.0 / np.sqrt(np.arange(1.0, trunc.dim_single))).tolist():
        m = m * alpha * r
        shift = math.frexp(abs(m))[1]
        m = complex(math.ldexp(m.real, -shift), math.ldexp(m.imag, -shift))
        mantissas.append(m)
        shifts.append(shift)
    c = np.array(mantissas) * np.ldexp(1.0, np.cumsum(shifts))
    tail = 1.0 - float(np.vdot(c, c).real)
    if tail > NORM_ATOL:
        raise TruncationTooSmall(
            f"coherent tail {tail:.3e} at n_max={trunc.n_max} exceeds {NORM_ATOL} for alpha={alpha}"
        )
    return c
