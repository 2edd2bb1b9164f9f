"""Truncated two-mode Fock-space linear algebra.

States and operators live on the product basis |n1, n2> with 0 <= ni <= n_max,
ordered row-major with mode 1 major: index(n1, n2) = n1 * (n_max + 1) + n2.
The fixed ordering keeps golden-file comparisons bit-stable.

A pure state is its support, the strictly increasing basis indices it
occupies, and its amplitudes there. A density operator is the sum of
components, each a dense block over a few of the basis states it occupies.
Given components are stored as given; a dense block that holds an exact
zero is split into the connected components of its exact nonzeros once, at
construction. Values are treated as immutable after construction; the
wrappers mark their buffers read-only.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import (
    DimensionMismatch,
    NotHermitian,
    NumericalOverflow,
    OracleTooLarge,
    TruncationTooSmall,
    _in_double_range,
    _integer,
    _record,
)

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-10
NORM_ATOL = 1e-10

# 16 bytes per two-mode basis state (n_max <= 2047): the oracle's arrays over the
# whole basis, the occupation pair and the generator diagonals, stay within it
MAX_STATE_VECTOR_BYTES = 1 << 26


class FockTruncation(_record("FockTruncation", "n_max")):
    """Per-mode Fock cutoff. Two-mode dimension is (n_max + 1)**2.

    n_max is stored as an int; a Python or numpy integer is taken, anything
    else raises ValueError. n_max above 2047 raises OracleTooLarge: 16 bytes
    per basis state would pass MAX_STATE_VECTOR_BYTES.
    """

    __slots__ = ()

    def __new__(cls, n_max: int) -> FockTruncation:
        n_max = _integer(n_max, "n_max")
        if n_max < 0:
            raise ValueError(f"n_max must be nonnegative, got {n_max}")
        # every oversized cutoff is refused here, before anything is allocated
        need = 16 * (n_max + 1) ** 2
        if need > MAX_STATE_VECTOR_BYTES:
            raise OracleTooLarge(
                f"cutoff n_max={n_max} needs {need / 2**30:.3g} GiB at 16 bytes per basis state; "
                f"the oracle allows {MAX_STATE_VECTOR_BYTES / 2**20:g} MiB"
            )
        return super().__new__(cls, n_max)

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

    def totals(self, index: np.ndarray) -> np.ndarray:
        """Total photon number n1 + n2 of each basis index."""
        n1, n2 = np.divmod(index, self.dim_single)
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


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """a's real part when every imaginary part is exactly zero, else a (a real a as it is)."""
    return a.real if np.iscomplexobj(a) and not a.imag.any() else a


def _check_support(s: np.ndarray, d: int) -> None:
    """Raise DimensionMismatch unless s is strictly increasing integer basis indices in [0, d)."""
    if s.ndim != 1 or not np.issubdtype(s.dtype, np.integer) or (
        s.size and (s[0] < 0 or s[-1] >= d or np.any(np.diff(s) <= 0))
    ):
        raise DimensionMismatch(f"support must be strictly increasing integers in [0, {d})")


class StateVector(_record("StateVector", "support amplitudes truncation")):
    """Normalized pure state: one amplitude per basis index of its support, zero elsewhere."""

    __slots__ = ()

    def __new__(cls, support: np.ndarray, amplitudes: np.ndarray, truncation: FockTruncation) -> StateVector:
        _check_support(support, truncation.dim)
        if amplitudes.shape != support.shape:
            raise DimensionMismatch(f"amplitude shape {amplitudes.shape} for support size {support.size}")
        nrm = float(np.vdot(amplitudes, amplitudes).real)
        if not abs(nrm - 1.0) <= NORM_ATOL:  # NaN fails too
            raise ValueError(f"state norm^2 = {nrm!r} deviates from 1 beyond {NORM_ATOL}")
        return super().__new__(cls, _read_only(support), _read_only(amplitudes), truncation)

    def density(self) -> "DensityOperator":
        return DensityOperator(self.support, np.outer(self.amplitudes, self.amplitudes.conj()), self.truncation)


class DensityOperator:
    """Hermitian, trace-one operator over the two-mode basis, stored as the sum of its components.

    support is a strictly increasing array of basis indices; every entry
    outside support x support is exactly zero. block is the dense block over
    support, one component, or the components themselves: stacks as in
    `parts`, which may share basis states (the lossy sectors of a
    reference-free scenario do, and each keeps its own components, so the
    sector label survives). Given stacks are stored as given. A dense block
    of two or more states that holds an exact zero is split into the
    connected components of its exact nonzeros, stacked as _grouped stacks
    them. Finite entries and hermiticity are enforced on each stack and
    trace one on their sum.
    Positivity is enforced where spectra are taken (the QFI eigensolve clips
    roundoff-negative eigenvalues and rejects anything worse).
    """

    __slots__ = ("support", "truncation", "parts")

    def __init__(
        self,
        support: np.ndarray,
        block: np.ndarray | tuple[tuple[np.ndarray, np.ndarray], ...],
        truncation: FockTruncation,
    ) -> None:
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "truncation", truncation)
        # the checks stay a method of their own, which a tracer or a test can wrap
        self.__post_init__(block)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"DensityOperator(support={self.support!r}, truncation={self.truncation!r})"

    def __reduce__(self):
        # a copy or an unpickled operator is built from the stored components, and checked again
        return DensityOperator, (self.support, self.parts, self.truncation)

    def __post_init__(self, block) -> None:
        s = self.support
        _check_support(s, self.truncation.dim)
        if not isinstance(block, tuple):
            if block.shape != (s.size, s.size):
                raise DimensionMismatch(f"block shape {block.shape} for support size {s.size}")
            if s.size > 1 and not block.all():
                block = _components(block)
            else:
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
            # itself; the subtraction and the absolute value then write into it
            gap = np.conj(blocks.transpose(0, 2, 1))
            gap -= blocks
            dev = max(dev, float(np.abs(gap, out=gap).real.max(initial=0.0)))
        if dev > HERMITICITY_ATOL:
            raise NotHermitian(f"hermiticity deviation {dev:.3e} beyond {HERMITICITY_ATOL}")
        tr = sum(complex(np.trace(b, axis1=1, axis2=2).sum()) for _, b in block)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace {tr!r} deviates from 1 beyond {TRACE_ATOL}")
        object.__setattr__(self, "parts", tuple((_read_only(m), _read_only(b)) for m, b in block))
        _read_only(s)

    def on(self, support: np.ndarray) -> np.ndarray:
        """The sum of the components as a dense array over a strictly increasing superset of the support.

        When one component spans support, this is its stored block, read-only.
        """
        (members, blocks), *rest = self.parts
        if not rest and members.shape == (1, support.size):
            return blocks[0]
        pos = np.searchsorted(support, self.support)
        out = np.zeros((support.size, support.size), dtype=complex)
        for members, blocks in self.parts:
            np.add.at(out, (pos[members][:, :, None], pos[members][:, None, :]), blocks)
        return out

    @property
    def matrix(self) -> np.ndarray:
        """Read-only dense (dim, dim) view, allocated on each access."""
        return _read_only(self.on(np.arange(self.truncation.dim)))


def _components(block: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The connected components of a dense block's exact nonzeros, stacked as by _grouped."""
    labels = _labels(block.shape[0], *np.nonzero(block))
    return tuple((m, block[m[:, :, None], m[:, None, :]]) for m in _grouped(labels))


def _labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each of n positions labelled by the first position of its component under the edges (a, b).

    Each undirected edge's ends take the smaller of their labels, b first,
    then every label its own label's, until no label moves.
    """
    labels, previous = np.arange(n), None
    while not np.array_equal(labels, previous):
        previous = labels.copy()
        np.minimum.at(labels, b, labels[a])
        np.minimum.at(labels, a, labels[b])
        labels = labels[labels]
    return labels


def _grouped(labels: np.ndarray) -> list[np.ndarray]:
    """The components that labels names, as one (count, size) members stack per size.

    labels[i] is the smallest position in i's component. Sizes increase;
    rows increase and are ordered by first entry.
    """
    order = np.argsort(labels, kind="stable")
    size = np.bincount(labels)[labels[order]]
    return [order[size == s].reshape(-1, s) for s in sorted(set(size.tolist()))]


@_in_double_range
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
