"""Loss channel, dephasing, and phase generators.

The loss tests lean on exactly solvable cases (coherent inputs, the
semigroup property, the textbook dense Kraus sum) so the support-based
implementation is checked against independent structure, not itself. The
Gram-product Kraus sum is held entrywise to the dense sum over (k1, k2) of
explicit np.kron Kraus products, and each lossy sector's components to a
plain double loop over (k1, k2) pairs, kept here as a second reference.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from phasefisher.channels import (
    _bessel_j,
    _bs_bands,
    _kraus_loss,
    _loss_table,
    apply_loss,
    apply_loss_via_bs,
    phase_average,
    single_arm_generator,
    two_arm_generator,
)
from phasefisher.exceptions import InvalidEta, NegativeEigenvalue, TruncationTooSmall
from phasefisher.fock_core import (
    DensityOperator,
    FockTruncation,
    StateVector,
    coherent_vector,
)
from phasefisher.qfi_oracle import (
    WITH_REFERENCE,
    WITHOUT_REFERENCE,
    _ecs_cutoff,
    _scenario,
    build_scenario,
    qfi_numeric,
    scenario_qfi,
)
from phasefisher.states import ProbeSpec, ecs_normalization, ecs_vector, noon_vector
from test_fock_core import _assert_parts_match_a_search, _state_from_dense

SRC = Path(__file__).resolve().parents[1] / "src"


def _random_density(n_max: int, seed: int) -> DensityOperator:
    rng = np.random.default_rng(seed)
    trunc = FockTruncation(n_max)
    a = rng.normal(size=(trunc.dim, trunc.dim)) + 1j * rng.normal(size=(trunc.dim, trunc.dim))
    m = a @ a.conj().T
    return DensityOperator(np.arange(trunc.dim), m / np.trace(m), trunc)


def _irregular_density(seed: int) -> DensityOperator:
    """A random mixed state on the scattered support {(0, 3), (2, 1), (4, 4)}."""
    trunc = FockTruncation(4)
    support = np.array([trunc.index(0, 3), trunc.index(2, 1), trunc.index(4, 4)])
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a @ a.conj().T
    return DensityOperator(support, m / np.trace(m), trunc)


def _loop_bands(eta: float, d: int) -> list[np.ndarray]:
    """bands[k][a] = <a| K_k |a + k>, one band at a time."""
    bands = [eta ** (np.arange(d) / 2.0)]
    for k in range(1, d):
        a = np.arange(d - k, dtype=float)
        bands.append(bands[k - 1][: d - k] * np.sqrt((1.0 - eta) * (a + k) / k))
    return bands


def _plain_table(eta: float, d: int) -> np.ndarray:
    """The band table as one cumulative product from eta^{a/2}, with no column lifted."""
    a = np.arange(d, dtype=float)
    k = np.arange(1, d)[:, None]
    return np.cumprod(np.vstack([eta ** (a / 2.0), np.sqrt((1.0 - eta) * (a + k) / k)]), axis=0)


def _loop_loss(
    support: np.ndarray, block: np.ndarray, eta: float, trunc: FockTruncation
) -> tuple[np.ndarray, np.ndarray]:
    """The Kraus sum on the block over support as a double loop over (k1, k2) pairs: (support, block)."""
    d = trunc.dim_single
    in_n1, in_n2 = np.divmod(support, d)
    occ = np.zeros((d, d), dtype=bool)
    occ[in_n1, in_n2] = True
    # every pair that moves an occupied state lands in the downward closure
    closure = np.logical_or.accumulate(occ[::-1, :], axis=0)[::-1, :]
    closure = np.logical_or.accumulate(closure[:, ::-1], axis=1)[:, ::-1]
    out_support = np.flatnonzero(closure)
    out_pos = np.full(d * d, -1, dtype=int)
    out_pos[out_support] = np.arange(out_support.size)
    bands = _loop_bands(eta, d)
    acc = np.zeros((out_support.size, out_support.size), dtype=complex)
    for k1 in range(int(in_n1.max()) + 1):
        for k2 in range(int(in_n2.max()) + 1):
            if not closure[k1, k2]:
                continue
            src = np.flatnonzero((in_n1 >= k1) & (in_n2 >= k2))
            w = bands[k1][in_n1[src] - k1] * bands[k2][in_n2[src] - k2]
            dst = out_pos[(in_n1[src] - k1) * d + in_n2[src] - k2]
            acc[np.ix_(dst, dst)] += (w[:, None] * w[None, :]) * block[np.ix_(src, src)]
    return out_support, acc


def _binomial_kraus(eta: float, d: int) -> list[np.ndarray]:
    """Dense K_k with <a| K_k |a + k> = sqrt(binom(a + k, k) eta^a (1 - eta)^k)."""
    ops = []
    for k in range(d):
        mat = np.zeros((d, d), dtype=complex)
        for a in range(d - k):
            mat[a, a + k] = math.sqrt(math.comb(a + k, k) * eta**a * (1.0 - eta) ** k)
        ops.append(mat)
    return ops


# entrywise bound on the gap between a loss route and the np.kron Kraus sum, nine
# ulp of 1, the largest entry: the amplitude route's gap below is at most 2.2e-16,
# the eigensolve route's 6.7e-16 (a random pure density at eta 0)
LOSS_ATOL = 2e-15


def _kron_loss(rho: DensityOperator, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """sum_{k1, k2} (K_k1 x K_k2) rho (K_k1 x K_k2)^dag from np.kron, as (box, dense block over box).

    Loss moves no photon up, so rho and its image lie in the box of states
    |n1, n2> with n1 < m1 and n2 < m2 that holds rho's support: the sum is
    taken there, over one-mode Kraus matrices on m1 and m2 levels.
    """
    d = rho.truncation.dim_single
    n1, n2 = np.divmod(rho.support, d)
    m1, m2 = int(n1.max()) + 1, int(n2.max()) + 1
    box = np.add.outer(np.arange(m1) * d, np.arange(m2)).ravel()
    columns = np.searchsorted(box, rho.support)
    block = rho.on(rho.support)
    acc = np.zeros((box.size, box.size), dtype=complex)
    for k1 in _binomial_kraus(eta, m1):
        for k2 in _binomial_kraus(eta, m2):
            k = np.kron(k1, k2)[:, columns]
            rows = np.flatnonzero(k.any(axis=1))  # the rows this pair reaches
            acc[np.ix_(rows, rows)] += k[rows] @ block @ k[rows].conj().T
    return box, acc


def _assert_routes_match_kron(rho: DensityOperator, eta: float, *routes: DensityOperator) -> None:
    box, want = _kron_loss(rho, eta)
    for got in routes:
        assert np.isin(got.support, box).all()
        assert float(np.max(np.abs(got.on(box) - want))) <= LOSS_ATOL


def _assert_both_routes_match_kron(psi: StateVector, eta: float) -> None:
    """A pure state through its amplitudes and through the eigensolve of its density."""
    rho = psi.density()
    _assert_routes_match_kron(rho, eta, _scenario(psi, eta, WITH_REFERENCE), apply_loss(rho, eta))


def _coherent_vacuum_product(alpha: float, trunc: FockTruncation) -> StateVector:
    vac = np.zeros(trunc.dim_single, dtype=complex)
    vac[0] = 1.0
    return _state_from_dense(np.kron(coherent_vector(alpha, trunc), vac), trunc)


class TestKraus:
    """The band table table[k, a] = <a| K_k |a + k> behind apply_loss."""

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
    def test_completeness(self, eta):
        # sum_k K_k^dag K_k = 1: state |m> is sent to |m - k> with amplitude table[k, m - k]
        d = 13
        table = _loss_table(eta, d)
        for m in range(d):
            column = table[np.arange(m + 1), m - np.arange(m + 1)]
            assert float(np.sum(column**2)) == pytest.approx(1.0, abs=1e-12)

    def test_band_values(self):
        eta = 0.6
        table = _loss_table(eta, 5)
        assert table[0, 2] == pytest.approx(eta)
        assert table[1, 0] == pytest.approx(math.sqrt(1.0 - eta))
        # <1| K_2 |3> = eta^{1/2} (1 - eta) sqrt(binom(3, 2))
        assert table[2, 1] == pytest.approx(math.sqrt(eta) * (1.0 - eta) * math.sqrt(3.0))

    @pytest.mark.parametrize("eta", [-0.01, 1.01])
    def test_eta_validated(self, eta):
        with pytest.raises(InvalidEta):
            apply_loss(_random_density(1, seed=10), eta)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 7, 20, 40, 60])
    def test_bands_equal_the_one_band_recurrence(self, n_max):
        d = FockTruncation(n_max).dim_single
        for eta in (0.0, 1e-9, 0.3, 0.55, 0.9, 0.999, 1.0):
            table = _loss_table(eta, d)
            for k, band in enumerate(_loop_bands(eta, d)):
                assert np.array_equal(table[k, : d - k], band)

    @pytest.mark.parametrize("eta", [0.0, 1e-300, 0.5, 0.9, 1.0])
    def test_table_is_the_plain_product_where_no_start_underflows(self, eta):
        # at 1e-300 every lifted entry still underflows to 0 once scaled back
        assert np.array_equal(_loss_table(eta, 300), _plain_table(eta, 300))

    def test_table_is_built_in_place(self):
        # at the largest cutoff the table is 32 MiB; a stacked copy and its product took twice that
        _loss_table(0.9, 2)  # no first-call allocation counts below
        tracemalloc.start()
        try:
            table = _loss_table(0.9, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * table.nbytes

    @pytest.mark.parametrize(("eta", "d", "restored"), [(0.01, 552, 52_057), (0.3, 2048, 1_513_614)])
    def test_lifted_columns_restore_entries_of_normal_size(self, eta, d, restored):
        # entries that read 0 from an underflowed start, against 50-digit mpmath
        table = _loss_table(eta, d)
        zero = _plain_table(eta, d) == 0.0
        assert np.count_nonzero(zero & (table != 0.0)) == restored
        k, a = np.nonzero(zero & (table > 1e-300))
        read = np.flatnonzero(a + k < d)
        sample = np.random.default_rng(7).choice(read, 1000, replace=False)
        with mp.workdps(50):
            e = mp.mpf(eta)
            for kk, aa in zip(k[sample].tolist(), a[sample].tolist()):
                want = e ** (mp.mpf(aa) / 2) * (1 - e) ** (mp.mpf(kk) / 2) * mp.sqrt(mp.binomial(aa + kk, kk))
                assert abs(table[kk, aa] - want) <= 2.5e-13 * want


class TestLossMatchesPairLoop:
    """apply_loss against the dense sum over (k1, k2) of np.kron Kraus products, within LOSS_ATOL."""

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
    def test_random_pure_and_mixed_states(self, eta):
        trunc = FockTruncation(5)
        rng = np.random.default_rng(21)
        amp = rng.normal(size=trunc.dim) + 1j * rng.normal(size=trunc.dim)
        _assert_both_routes_match_kron(_state_from_dense(amp / np.linalg.norm(amp), trunc), eta)
        rho = _random_density(5, seed=21)
        _assert_routes_match_kron(rho, eta, apply_loss(rho, eta))

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.45, 0.9, 1.0])
    def test_irregular_sparse_support(self, eta):
        rho = _irregular_density(22)
        _assert_routes_match_kron(rho, eta, apply_loss(rho, eta))

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.5])
    def test_ecs_and_its_sectors(self, alpha):
        # the whole ECS at alpha 1 alone: the kron sum at alpha 2 (n_max 27) takes
        # about 1 s an eta, and at alpha 3.5 (n_max 46) about 46 s
        trunc = _ecs_cutoff(alpha)
        psi = ecs_vector(alpha, trunc)
        states = [psi] if trunc.n_max <= 16 else []
        totals = trunc.totals(psi.support)
        for n in (0, 1, 4):
            mask = totals == n
            weight = float(np.sum(np.abs(psi.amplitudes[mask]) ** 2))
            states.append(StateVector(psi.support[mask], psi.amplitudes[mask] / math.sqrt(weight), trunc))
        for eta in (0.0, 0.3, 0.9, 1.0):
            for state in states:
                _assert_both_routes_match_kron(state, eta)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
    def test_noon_probe(self, eta):
        _assert_both_routes_match_kron(noon_vector(5, FockTruncation(5)), eta)


def _assert_components_match_the_sector_loops(alpha: float, eta: float) -> DensityOperator:
    """The reference-free build's parts against each sector's pair loop, searched on its own."""
    trunc = _ecs_cutoff(alpha)
    psi = ecs_vector(alpha, trunc)
    n1, n2 = np.divmod(psi.support, trunc.dim_single)
    sectors = []
    for n in np.unique(n1 + n2):  # every occupied sector, unnormalized
        amp = psi.amplitudes[n1 + n2 == n]
        sectors.append(_loop_loss(psi.support[n1 + n2 == n], np.outer(amp, amp.conj()), eta, trunc))
    rho = build_scenario(ProbeSpec("ecs", eta, alpha=alpha), WITHOUT_REFERENCE)
    _assert_parts_match_a_search(rho, sectors, atol=LOSS_ATOL)
    return rho


class TestSectorFold:
    """build_scenario without a reference loses photons from every sector in one Kraus pass.

    The sectors share basis states once lossy, and each keeps its own components.
    """

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("eta", [0.0, 0.6, 0.9])
    def test_each_component_equals_the_pair_loop_on_its_sector(self, alpha, eta):
        _assert_components_match_the_sector_loops(alpha, eta)

    def test_underflowed_coherences_split_within_their_sector(self):
        # sector n's coherence of |n, 0> and |0, n> is eta^n |c_n|^2 / norm: at eta 1e-300
        # it is 0 from n = 2 on, so each such pair splits, while every sector reaches |0, 0>
        rho = _assert_components_match_the_sector_loops(1.0, 1e-300)
        assert [members.shape for members, _ in rho.parts][1:] == [(1, 2)]


class TestApplyLoss:
    def test_matches_dense_kraus_sum(self):
        # at n_max = 10 the input has full rank 121: 121 columns of M per Kraus pair
        for n_max in (4, 10):
            rho = _random_density(n_max, seed=11)
            eta = 0.55
            ops = _binomial_kraus(eta, rho.truncation.dim_single)
            want = np.zeros_like(rho.matrix)
            for k1 in ops:
                for k2 in ops:
                    k = np.kron(k1, k2)
                    want += k @ rho.matrix @ k.conj().T
            got = apply_loss(rho, eta)
            assert np.allclose(got.matrix, want, atol=1e-13)

    def test_coherent_stays_coherent(self):
        alpha, eta = 1.2, 0.6
        # far past the coherent tail, so the truncated tail cannot show at 1e-12
        trunc = FockTruncation(34)
        rho = apply_loss(_coherent_vacuum_product(alpha, trunc).density(), eta)
        out = _coherent_vacuum_product(math.sqrt(eta) * alpha, trunc)
        assert np.allclose(rho.matrix, out.density().matrix, atol=1e-12)

    def test_semigroup_composition(self):
        rho = _random_density(4, seed=12)
        once = apply_loss(rho, 0.8 * 0.75)
        twice = apply_loss(apply_loss(rho, 0.8), 0.75)
        assert np.allclose(once.matrix, twice.matrix, atol=1e-13)

    def test_identity_at_full_transmission(self):
        rho = _random_density(3, seed=13)
        assert apply_loss(rho, 1.0) is rho

    def test_vacuum_at_zero_transmission(self):
        rho = apply_loss(_random_density(3, seed=14), 0.0)
        want = np.zeros_like(rho.matrix)
        want[0, 0] = 1.0
        assert np.allclose(rho.matrix, want, atol=1e-13)

    def test_zero_transmission_leaves_the_vacuum_alone(self):
        # at eta 0 every image but the vacuum's is exactly 0, so no other state is stored;
        # each reference-free sector keeps its own vacuum component
        outputs = (
            apply_loss(_random_density(3, seed=14), 0.0),
            _scenario(ecs_vector(2.0, _ecs_cutoff(2.0)), 0.0, WITH_REFERENCE),
            build_scenario(ProbeSpec("ecs", 0.0, alpha=2.0), WITHOUT_REFERENCE),
        )
        for rho in outputs:
            assert rho.support.tolist() == [0]
            assert [members.shape[1] for members, _ in rho.parts] == [1]
            assert rho.on(rho.support)[0, 0] == pytest.approx(1.0, abs=1e-13)

    def test_lossy_ecs_keeps_states_past_an_underflowed_start(self):
        # at eta 0.01, 0.1^a underflows from a = 324; the lifted table keeps the lossy
        # |n, 0> states beyond it, and F moves by less than 1e-12 from its value with
        # those states dropped
        rho = build_scenario(ProbeSpec("ecs", 0.01, alpha=20.0), WITH_REFERENCE)
        n1, n2 = np.divmod(rho.support, rho.truncation.dim_single)
        assert n1[n2 == 0].max() > 323
        assert scenario_qfi(rho).value == pytest.approx(3.999999999994492, rel=1e-12, abs=0.0)

    def test_negative_eigenvalue_is_refused(self):
        # the rule qfi_numeric applies: a negative eigenvalue beyond roundoff is refused,
        # in lone states or in a pair
        trunc = FockTruncation(2)
        lone = DensityOperator(np.arange(trunc.dim), np.diag([1.5, -0.5] + [0.0] * 7), trunc)
        pair = DensityOperator(np.arange(2), np.array([[0.5, 1.0], [1.0, 0.5]]), trunc)
        for rho in (lone, pair):
            with pytest.raises(NegativeEigenvalue):
                apply_loss(rho, 0.5)
            with pytest.raises(NegativeEigenvalue):
                qfi_numeric(rho, two_arm_generator(trunc))

    def test_output_is_positive(self):
        rho = apply_loss(_random_density(4, seed=15), 0.4)
        assert float(np.linalg.eigvalsh(rho.matrix).min()) > -1e-12

    def test_commutes_with_dephasing(self):
        # loss moves weight within and between sectors but never creates
        # coherence between totals, so the order cannot matter
        psi = ecs_vector(1.0, _ecs_cutoff(1.0))
        eta = 0.7
        lose_then_dephase = phase_average(apply_loss(psi.density(), eta))
        dephase_then_lose = apply_loss(phase_average(psi.density()), eta)
        assert np.allclose(lose_then_dephase.matrix, dephase_then_lose.matrix, atol=1e-14)

    def test_lossy_ecs_collapses_to_attenuated_pair(self):
        # The branches stay coherent states at sqrt(eta) alpha; only their
        # mutual coherence pays, suppressed by exp(-(1-eta)|alpha|^2).
        alpha, eta = 1.0, 0.9
        trunc = FockTruncation(31)  # far past the coherent tail, as above
        rho = apply_loss(ecs_vector(alpha, trunc).density(), eta)
        kept = coherent_vector(math.sqrt(eta) * alpha, trunc)
        vac = np.zeros(trunc.dim_single, dtype=complex)
        vac[0] = 1.0
        psi1 = np.kron(kept, vac)
        psi2 = np.kron(vac, kept)
        coherence = math.exp(-(1.0 - eta) * alpha * alpha)
        want = np.outer(psi1, psi1.conj()) + np.outer(psi2, psi2.conj())
        want += coherence * (np.outer(psi1, psi2.conj()) + np.outer(psi2, psi1.conj()))
        want *= ecs_normalization(alpha) ** 2
        assert np.allclose(rho.matrix, want, atol=1e-10)


class TestPhaseAverage:
    def test_idempotent(self):
        rho = _random_density(4, seed=16)
        once = phase_average(rho)
        assert np.allclose(phase_average(once).matrix, once.matrix)

    def test_matches_quadrature(self):
        """Averaging exp(-i phi N) rho exp(i phi N) over K uniform angles.

        K exceeds every total-photon difference at this cutoff, so the
        discrete average equals the continuous one exactly.
        """
        rho = _random_density(4, seed=17)
        n1, n2 = rho.truncation.occupations(np.arange(rho.truncation.dim))
        totals = n1 + n2
        k_points = 4 * rho.truncation.n_max + 1  # > max total difference of 2 n_max
        acc = np.zeros_like(rho.matrix)
        for k in range(k_points):
            u = np.exp(-1j * (2.0 * math.pi * k / k_points) * totals)
            acc += np.outer(u, u.conj()) * rho.matrix
        acc /= k_points
        assert np.allclose(phase_average(rho).matrix, acc, atol=1e-14)

    def test_dephased_state_ignores_the_sum_phase(self):
        # Within each total-photon block the sum-phase factors cancel to an
        # ulp, which is why that phase carries no information here.
        trunc = _ecs_cutoff(1.0)
        rho = phase_average(apply_loss(ecs_vector(1.0, trunc).density(), 0.8))
        u = np.exp(-1j * 0.73 * 0.5 * trunc.totals(rho.support))
        rotated = np.outer(u, u.conj()) * rho.on(rho.support)
        assert np.allclose(rotated, rho.on(rho.support), atol=1e-15)


def _assert_read_only_diagonal(gen: np.ndarray, expected: np.ndarray) -> None:
    assert gen.dtype == np.float64 and not gen.flags.writeable
    assert np.array_equal(gen, expected)


class TestGenerators:
    def test_two_arm_diagonal(self):
        trunc = FockTruncation(3)
        n1, n2 = np.repeat(np.arange(4), 4), np.tile(np.arange(4), 4)
        _assert_read_only_diagonal(two_arm_generator(trunc), (n1 - n2) / 2.0)

    def test_single_arm_diagonal(self):
        trunc = FockTruncation(3)
        _assert_read_only_diagonal(single_arm_generator(trunc), np.repeat(np.arange(4), 4))


def _hermitian_bs_bands(eta: float, d: int) -> np.ndarray:
    """_bs_bands from the complex Hermitian generator H = i theta (a^dag b - a b^dag) itself."""
    theta = np.arccos(np.sqrt(eta))
    bands = np.zeros((d, d), dtype=complex)
    for n in range(d):
        # <n - e - 1, e + 1|H|n - e, e> = -i theta sqrt((n - e)(e + 1))
        off = -1j * theta * np.sqrt(np.arange(n, 0, -1) * np.arange(1, n + 1))
        w, v = np.linalg.eigh(np.diag(off, -1) + np.diag(off.conj(), 1))
        e = np.arange(n + 1)
        bands[e, n - e] = (v * (np.exp(-1j * w) * v[0].conj())).sum(axis=1)
    return bands


class TestBeamSplitterRoute:
    @pytest.mark.parametrize("d", [1, 2, 7, 25, 60])
    def test_bands_equal_the_hermitian_route(self, d):
        # the real Chebyshev series for exp(theta K) against exp(-iH) by a complex eigensolve
        for eta in (0.0, 0.3, 0.6, 0.9, 0.99, 1.0):
            gap = np.abs(_bs_bands(eta, d) - _hermitian_bs_bands(eta, d))
            assert float(gap.max()) <= 1e-14

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.6, 1.0])
    def test_bands_columns_have_unit_norm(self, eta):
        # column |n, 0> of the unitary lies in the block |n - e, e>, e = 0 .. n
        d = 20
        bands = _bs_bands(eta, d)
        for n in range(d):
            column = bands[np.arange(n + 1), n - np.arange(n + 1)]
            assert float(np.sum(np.abs(column) ** 2)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [239, 552])
    def test_bands_columns_have_unit_norm_at_large_fields(self, d):
        # the alpha-12 and alpha-20 cutoffs; eta 0 and 1e-300 take the most Chebyshev terms
        a, e = np.ogrid[:d, :d]
        inside = a + e < d
        for eta in (0.0, 1e-300, 0.3, 0.9, 1.0):
            bands = _bs_bands(eta, d)
            norms = np.bincount((a + e)[inside], (bands.T**2)[inside], d)
            assert float(np.max(np.abs(norms - 1.0))) <= 1e-12

    @pytest.mark.parametrize("z", [1e-8, 0.3, 8.7, 100.0, 865.5, 3215.0])
    def test_bessel_orders_match_mpmath(self, z):
        # 865.5 and 3215 are z = theta (d - 1) at eta 0 for d 552 and 2,048
        j = _bessel_j(z)
        # every order up to z 100; past it, mpmath takes up to 80 ms an order, so 16 of them
        orders = np.arange(j.size) if j.size <= 200 else np.linspace(0, j.size - 1, 16).astype(int)
        with mp.workdps(30):
            want = np.array([float(mp.besselj(int(k), z)) for k in orders])
            past = float(abs(mp.besselj(j.size, z)))
        assert float(np.max(np.abs(j[orders] - want))) <= 1e-15
        # the series stops at the last order above 1e-18
        assert abs(j[-1]) > 1e-18 and past <= 1e-18

    def test_bands_split_coherent(self):
        # |alpha>|0> -> |sqrt(eta) alpha>|-sqrt(1-eta) alpha>
        alpha, eta = 0.7, 0.6
        d = 18
        trunc = FockTruncation(d - 1)
        c = coherent_vector(alpha, trunc)
        a, e = np.ogrid[:d, :d]
        # <a, e|U|alpha, 0> = c_{a+e} bands[e, a], and bands is 0 wherever a + e >= d
        out = c[np.minimum(a + e, d - 1)] * _bs_bands(eta, d).T
        want = np.outer(
            coherent_vector(math.sqrt(eta) * alpha, trunc),
            coherent_vector(-math.sqrt(1.0 - eta) * alpha, trunc),
        )
        assert np.allclose(out, want, atol=1e-10)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
    def test_bands_magnitudes_equal_the_loss_table(self, eta):
        d = 25
        inside = np.add.outer(np.arange(d), np.arange(d)) < d
        gap = np.abs(np.abs(_bs_bands(eta, d)) - _loss_table(eta, d))
        assert float(gap[inside].max()) <= 1e-13

    @pytest.mark.parametrize(("eta", "d"), [(0.9, 239), (0.6, 552), (0.3, 300)])
    def test_bands_equal_the_signed_loss_table(self, eta, d):
        # bands[e, a] = (-1)^e table[e, a]: a pair's sign (-1)^(e1 + e2) is the same on
        # every image, so the two tables give _kraus_loss the same M M^dag
        e, a = np.ogrid[:d, :d]
        inside = a + e < d
        signed = np.where(e % 2, -1.0, 1.0) * _loss_table(eta, d)
        assert float(np.abs(_bs_bands(eta, d) - signed)[inside].max()) <= 1e-14

    @pytest.mark.parametrize("eta", [0.0, 1e-300, 0.3, 0.8, 1.0])
    def test_matches_kraus_on_mixed_state(self, eta):
        # at eta 0 the bands hold roundoff-size entries where the table holds exact zeros,
        # so the two routes split their outputs into different components
        rho = _random_density(4, seed=20)
        via_bs = apply_loss_via_bs(rho, eta)
        via_kraus = apply_loss(rho, eta)
        assert np.allclose(via_bs.matrix, via_kraus.matrix, atol=1e-11)

    def test_matches_kraus_on_sparse_support(self):
        # the pairs are the closure of an irregular support; each image must land on its state
        rho = _irregular_density(23)
        for eta in (0.7, 0.0, 1e-300, 1.0):
            via_bs = apply_loss_via_bs(rho, eta)
            assert np.allclose(via_bs.matrix, apply_loss(rho, eta).matrix, atol=1e-11)

    def test_trace_deficit_raises_before_the_operator_is_built(self):
        # a table that loses weight: the typed check fires where the operator's own
        # trace check would raise a plain ValueError
        psi = ecs_vector(1.0, _ecs_cutoff(1.0))
        column = np.zeros_like(psi.support)
        with pytest.raises(TruncationTooSmall, match="leaks trace"):
            _kraus_loss(psi.support, column, psi.amplitudes, np.zeros(1, dtype=int), 0.9,
                        psi.truncation, lambda eta, d: 0.999 * _loss_table(eta, d))

    def test_leak_past_trace_atol_raises_typed_error(self):
        # the table scaled by 1 - 1e-10 leaks 4e-10 of the trace: past TRACE_ATOL, the rule
        # loss and the operator share, so the typed error fires, not the operator's ValueError
        psi = ecs_vector(1.0, _ecs_cutoff(1.0))
        with pytest.raises(TruncationTooSmall, match="leaks trace 4.0"):
            _scenario(psi, 0.9, WITH_REFERENCE, lambda eta, d: (1.0 - 1e-10) * _loss_table(eta, d))

    def test_check_value_independent_of_blas_threads(self):
        """The beam-splitter route's output and Kraus gap, bit for bit at 1 and 2 BLAS threads.

        The route's output bytes are hashed too: its bands are elementwise,
        with no BLAS product, and at these sizes neither its eigensolve of the
        input nor its Gram products move a last bit with the thread count.
        """
        outputs = _at_one_and_two_threads(
            "import hashlib\n"
            "import numpy as np\n"
            "from phasefisher.channels import apply_loss, apply_loss_via_bs\n"
            "from phasefisher.fock_core import FockTruncation, truncation_for_tolerance\n"
            "from phasefisher.states import ecs_vector\n"
            "for alpha in (1.5, 2.0):\n"
            "    trunc = FockTruncation(truncation_for_tolerance(alpha, 1e-12).n_max + 2)\n"
            "    rho = ecs_vector(alpha, trunc).density()\n"
            "    for eta in (0.6, 0.9):\n"
            "        out = apply_loss_via_bs(rho, eta)\n"
            "        gap = np.abs(apply_loss(rho, eta).matrix - out.matrix)\n"
            "        raw = out.support.tobytes() + out.on(out.support).tobytes()\n"
            "        print(repr(float(gap.max())), hashlib.sha256(raw).hexdigest())\n"
        )
        assert outputs[0] == outputs[1]

    def test_bands_independent_of_blas_threads_at_a_large_field(self):
        # alpha 12 (d 239): the bands and verify's pure-vector route through them, which
        # takes no eigensolve (an eigh of the rank-1 density would run threaded)
        outputs = _at_one_and_two_threads(
            "import hashlib\n"
            "from phasefisher.channels import _bs_bands\n"
            "from phasefisher.qfi_oracle import _ecs_cutoff, _scenario\n"
            "from phasefisher.states import ecs_vector\n"
            "trunc = _ecs_cutoff(12.0)  # n_max 238\n"
            "psi = ecs_vector(12.0, trunc)\n"
            "for eta in (0.6, 0.9):\n"
            "    out = _scenario(psi, eta, 'with', _bs_bands)\n"
            "    raw = out.support.tobytes() + out.on(out.support).tobytes()\n"
            "    bands = _bs_bands(eta, trunc.dim_single)\n"
            "    print(hashlib.sha256(bands.tobytes()).hexdigest(), hashlib.sha256(raw).hexdigest())\n"
        )
        assert outputs[0] == outputs[1]


def _at_one_and_two_threads(code: str) -> list[str]:
    """code's stdout in a fresh interpreter at one and at two OpenBLAS threads."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        pytest.skip("OpenBLAS runs at most one thread per CPU this process may use")
    outputs = []
    for threads in ("1", "2"):
        # a fresh interpreter per thread count, since BLAS reads it at load time
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs
