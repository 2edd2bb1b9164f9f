"""Loss channel, dephasing, and phase generators.

The loss tests lean on exactly solvable cases (coherent inputs, the
semigroup property, the textbook dense Kraus sum) so the support-based
implementation is checked against independent structure, not itself. The
vectorized Kraus sum is also held bit for bit to the plain loop over
(k1, k2) pairs it replaced, which is kept here as the reference.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasefisher.channels import (
    LOSS_CHUNK_TERMS,
    _bs_bands,
    _loss_table,
    apply_loss,
    apply_loss_via_bs,
    phase_average,
    single_arm_generator,
    two_arm_generator,
)
from phasefisher.exceptions import InvalidEta
from phasefisher.fock_core import (
    DensityOperator,
    FockTruncation,
    StateVector,
    coherent_vector,
)
from phasefisher.qfi_oracle import (
    WITHOUT_REFERENCE,
    _ecs_cutoff,
    build_scenario,
)
from phasefisher.states import ProbeSpec, ecs_normalization, ecs_vector

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


def _loop_loss(rho: DensityOperator, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """The Kraus sum as a double loop over (k1, k2) pairs: (support, block)."""
    d = rho.truncation.dim_single
    in_n1, in_n2 = np.divmod(rho.support, d)
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
            acc[np.ix_(dst, dst)] += (w[:, None] * w[None, :]) * rho.on(rho.support)[np.ix_(src, src)]
    return out_support, acc


def _loss_terms(rho: DensityOperator) -> int:
    """Terms of the Kraus sum: the squared source count of every pair that moves a state."""
    n1, n2 = np.divmod(rho.support, rho.truncation.dim_single)
    return sum(
        int(np.count_nonzero((n1 >= k1) & (n2 >= k2))) ** 2
        for k1 in range(int(n1.max()) + 1)
        for k2 in range(int(n2.max()) + 1)
    )


def _assert_matches_loop(rho: DensityOperator, eta: float) -> None:
    support, block = _loop_loss(rho, eta)
    got = apply_loss(rho, eta)
    assert np.array_equal(got.support, support)
    assert np.array_equal(got.on(got.support), block)


def _binomial_kraus(eta: float, d: int) -> list[np.ndarray]:
    """Dense K_k with <a| K_k |a + k> = sqrt(binom(a + k, k) eta^a (1 - eta)^k)."""
    ops = []
    for k in range(d):
        mat = np.zeros((d, d), dtype=complex)
        for a in range(d - k):
            mat[a, a + k] = math.sqrt(math.comb(a + k, k) * eta**a * (1.0 - eta) ** k)
        ops.append(mat)
    return ops


def _coherent_vacuum_product(alpha: float, trunc: FockTruncation) -> StateVector:
    vac = np.zeros(trunc.dim_single, dtype=complex)
    vac[0] = 1.0
    return StateVector(np.kron(coherent_vector(alpha, trunc), vac), trunc)


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


class TestLossMatchesPairLoop:
    """apply_loss against the double loop over (k1, k2): equal bit for bit."""

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.55, 0.9])
    def test_dense_state_over_several_chunks(self, eta):
        rho = _random_density(10, seed=21)
        assert _loss_terms(rho) > 2 * LOSS_CHUNK_TERMS
        _assert_matches_loop(rho, eta)

    @pytest.mark.parametrize("eta", [0.0, 0.45])
    def test_irregular_sparse_support(self, eta):
        _assert_matches_loop(_irregular_density(22), eta)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.5])
    def test_ecs_and_its_sectors(self, alpha):
        trunc = _ecs_cutoff(alpha)
        psi = ecs_vector(alpha, trunc)
        _assert_matches_loop(psi.density(), 0.9)
        totals = trunc.totals()
        for n in (0, 1, 4):
            mask = totals == n
            weight = float(np.sum(np.abs(psi.amplitudes[mask]) ** 2))
            sector = StateVector(np.where(mask, psi.amplitudes, 0.0) / math.sqrt(weight), trunc)
            _assert_matches_loop(sector.density(), 0.6)


class TestSectorFold:
    """build_scenario without a reference loses photons from every sector in one Kraus pass."""

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("eta", [0.0, 0.6, 0.9])
    def test_each_component_equals_the_pair_loop_on_its_sector(self, alpha, eta):
        trunc = _ecs_cutoff(alpha)
        amp = ecs_vector(alpha, trunc).amplitudes
        totals = trunc.totals()
        want = []
        for n in range(2 * trunc.n_max + 1):
            support = np.flatnonzero((totals == n) & (amp != 0))
            weight = float(np.sum(np.abs(amp[support]) ** 2))
            if weight > 0.0:  # every sector is kept; no square here is subnormal
                sector = amp[support] / math.sqrt(weight)
                rho = DensityOperator(support, np.outer(sector, sector.conj()), trunc)
                want.append((weight, *_loop_loss(rho, eta)))
        got = build_scenario(ProbeSpec("ecs", eta, alpha=alpha), WITHOUT_REFERENCE).components
        assert len(got) == len(want)
        for (weight, rho), (want_weight, support, block) in zip(got, want):
            assert weight == want_weight
            assert np.array_equal(rho.support, support)
            assert np.array_equal(rho.on(rho.support), block)


class TestApplyLoss:
    def test_matches_dense_kraus_sum(self):
        # n_max = 10 spreads the sum over several chunks
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
        totals = rho.truncation.totals()
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
        u = np.exp(-1j * 0.73 * 0.5 * trunc.totals()[rho.support])
        rotated = np.outer(u, u.conj()) * rho.on(rho.support)
        assert np.allclose(rotated, rho.on(rho.support), atol=1e-15)


def _assert_read_only_diagonal(gen: np.ndarray, expected: np.ndarray) -> None:
    assert gen.dtype == np.float64 and not gen.flags.writeable
    assert np.array_equal(gen, expected)


class TestGenerators:
    def test_two_arm_diagonal(self):
        trunc = FockTruncation(3)
        n1, n2 = trunc.occupations()
        _assert_read_only_diagonal(two_arm_generator(trunc), (n1 - n2) / 2.0)

    def test_single_arm_diagonal(self):
        trunc = FockTruncation(3)
        _assert_read_only_diagonal(single_arm_generator(trunc), trunc.occupations()[0])


class TestBeamSplitterRoute:
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.6, 1.0])
    def test_bands_columns_have_unit_norm(self, eta):
        # column |n, 0> of the unitary lies in the block |n - e, e>, e = 0 .. n
        d = 20
        bands = _bs_bands(eta, d)
        for n in range(d):
            column = bands[np.arange(n + 1), n - np.arange(n + 1)]
            assert float(np.sum(np.abs(column) ** 2)) == pytest.approx(1.0, abs=1e-12)

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

    @pytest.mark.parametrize("eta", [0.3, 0.8])
    def test_matches_kraus_on_mixed_state(self, eta):
        rho = _random_density(4, seed=20)
        via_bs = apply_loss_via_bs(rho, eta)
        via_kraus = apply_loss(rho, eta)
        assert np.allclose(via_bs.matrix, via_kraus.matrix, atol=1e-11)

    def test_matches_kraus_on_sparse_support(self):
        # the eigensolve runs on the block; embedding must land on the right states
        rho = _irregular_density(23)
        via_bs = apply_loss_via_bs(rho, 0.7)
        assert np.allclose(via_bs.matrix, apply_loss(rho, 0.7).matrix, atol=1e-11)

    def test_check_value_independent_of_blas_threads(self):
        """The beam-splitter route's output and Kraus gap, bit for bit at 1 and 2 BLAS threads.

        The gap is the value `verify` reports in its bs_vs_kraus_channel row.
        The route's output bytes are hashed too: its sums are elementwise and
        its eigensolves small here, so no thread count moves their last bits.
        At alpha 12 they do move: the 239-state block's eigh runs threaded.
        """
        code = (
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
        assert outputs[0] == outputs[1]
