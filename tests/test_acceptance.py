"""End-to-end acceptance gates.

One test per contract item, each printing a single acceptance line with
the measured numbers before asserting. Tolerances here are the shipped
guarantees, not the (much tighter) typical behavior.
"""

import math
import time

import numpy as np

from phasefisher.channels import (
    apply_loss,
    apply_loss_via_bs,
    single_arm_generator,
    two_arm_generator,
)
from phasefisher.cli import CSV_HEADER, find_crossings, main, qfi_ecs_ref_at_mean_photons
from phasefisher.fock_core import FockTruncation, truncation_for_tolerance
from phasefisher.qfi_analytic import (
    GAMMA_MINUS_FLOOR,
    basis_overlap_matrix,
    qfi_ecs_noref,
    qfi_ecs_noref_blocksum,
    qfi_ecs_ref,
    qfi_ecs_ref_asymptotic,
    qfi_noon_continuous,
    sigma_spectrum,
)
from phasefisher.qfi_oracle import (
    ASYMPTOTIC_POINTS,
    WITH_REFERENCE,
    WITHOUT_REFERENCE,
    _ecs_cutoff,
    build_scenario,
    qfi_numeric,
    scenario_mixture,
    scenario_qfi,
    verify_all,
)
from phasefisher.states import (
    ProbeSpec,
    alpha_for_mean_photon,
    ecs_normalization,
    ecs_vector,
    mean_photon_number,
)

GRID = [(a, e) for a in (0.5, 1.0, 1.5, 2.0) for e in (0.6, 0.9, 0.99, 1.0)]


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance: {name} ... {status}{suffix}")


def test_a01_reference_free_closed_form_matches_oracle():
    start = time.monotonic()
    worst = 0.0
    for alpha, eta in GRID:
        probe = ProbeSpec("ecs", eta, alpha=alpha)
        oracle = scenario_qfi(build_scenario(probe, WITHOUT_REFERENCE))
        closed = qfi_ecs_noref(alpha, eta).value
        worst = max(worst, abs(oracle.value - closed) / closed)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed <= 60.0
    _report(
        "reference-free closed form vs oracle, 16-point grid",
        ok,
        f"max rel err {worst:.3e} vs 1e-06, {elapsed:.1f}s of 60s budget",
    )
    assert worst <= 1e-6
    assert elapsed <= 60.0


def test_a02_reference_beam_closed_form_matches_oracle():
    worst = 0.0
    used = 0
    for alpha, eta in GRID:
        if sigma_spectrum(alpha, eta).gamma_minus < GAMMA_MINUS_FLOOR:
            continue  # minor eigenvalue underflows; the lossless gate covers eta = 1
        used += 1
        probe = ProbeSpec("ecs", eta, alpha=alpha)
        oracle = scenario_qfi(build_scenario(probe, WITH_REFERENCE))
        closed = qfi_ecs_ref(alpha, eta).value
        worst = max(worst, abs(oracle.value - closed) / closed)
    ok = worst <= 1e-8 and used == 12
    _report(
        "reference-beam closed form vs oracle on lossy grid points",
        ok,
        f"max rel err {worst:.3e} vs 1e-08 over {used} points",
    )
    assert used == 12
    assert worst <= 1e-8


def test_a03_lossless_scenarios_coincide():
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        ref = qfi_ecs_ref(alpha, 1.0).value
        noref = qfi_ecs_noref(alpha, 1.0).value
        a2 = alpha * alpha
        explicit = 2.0 * ecs_normalization(alpha) ** 2 * (a2 * a2 + a2)
        worst = max(worst, abs(ref - noref) / noref, abs(ref - explicit) / explicit)
    ok = worst <= 1e-9
    _report(
        "lossless limit: both scenarios equal the pure-state formula",
        ok,
        f"max rel err {worst:.3e} vs 1e-09",
    )
    assert worst <= 1e-9


def test_a04_lossless_information_beats_mean_photon_bound():
    min_gap = math.inf
    for alpha in np.geomspace(0.1, 5.0, 50):
        f = qfi_ecs_ref(float(alpha), 1.0).value
        nbar = mean_photon_number(float(alpha))
        min_gap = min(min_gap, f - (nbar * nbar + nbar))
    ok = min_gap >= 0.0
    _report(
        "lossless QFI is at least N(N+1) across 50 amplitudes",
        ok,
        f"min gap {min_gap:.3e}",
    )
    assert min_gap >= 0.0


def test_a05_reference_beam_strictly_helps_under_loss():
    alpha, eta = 1.0, 0.9
    closed_gap = qfi_ecs_ref(alpha, eta).value / qfi_ecs_noref(alpha, eta).value - 1.0
    probe = ProbeSpec("ecs", eta, alpha=alpha)
    with_ref = scenario_qfi(build_scenario(probe, WITH_REFERENCE)).value
    without = scenario_qfi(build_scenario(probe, WITHOUT_REFERENCE)).value
    ok = closed_gap > 0.01 and with_ref > without
    _report(
        "reference beam adds >1% information at alpha=1, eta=0.9",
        ok,
        f"closed-form gap {100.0 * closed_gap:.2f}%, oracle sign {'confirmed' if with_ref > without else 'contradicted'}",
    )
    assert closed_gap > 0.01
    assert with_ref > without


def test_a06_sector_sum_reproduces_compact_form():
    worst = 0.0
    for alpha, eta in GRID:
        block = qfi_ecs_noref_blocksum(alpha, eta, _ecs_cutoff(alpha)).value
        closed = qfi_ecs_noref(alpha, eta).value
        worst = max(worst, abs(block - closed) / closed)
    ok = worst <= 1e-10
    _report(
        "weighted sector sum equals the compact reference-free form",
        ok,
        f"max rel err {worst:.3e} vs 1e-10",
    )
    assert worst <= 1e-10


def test_a07_asymptotic_form_and_shot_noise_approach():
    worst_asym = 0.0
    for alpha, eta in ASYMPTOTIC_POINTS:
        assert math.exp(-eta * alpha * alpha) < 1e-8  # points must be in regime
        exact = qfi_ecs_ref(alpha, eta).value
        worst_asym = max(worst_asym, abs(qfi_ecs_ref_asymptotic(alpha, eta).value - exact) / exact)
    eta, n_mean = 0.9, 100.0
    ratio = qfi_ecs_ref(alpha_for_mean_photon(n_mean), eta).value / (eta * n_mean)
    shot_err = abs(ratio - 1.0)
    ok = worst_asym <= 5e-3 and shot_err <= 5e-2
    _report(
        "large-field approximation and shot-noise-limit approach",
        ok,
        f"asym rel err {worst_asym:.3e} vs 5e-03, F/(eta N) off by {shot_err:.3e} vs 5e-02",
    )
    assert worst_asym <= 5e-3
    assert shot_err <= 5e-2


def test_a08_generator_choice_immaterial_on_dephased_state():
    worst = 0.0
    for alpha, eta in GRID:
        probe = ProbeSpec("ecs", eta, alpha=alpha)
        mix = scenario_mixture(build_scenario(probe, WITHOUT_REFERENCE))
        two = qfi_numeric(mix, two_arm_generator(mix.truncation)).value
        one = qfi_numeric(mix, single_arm_generator(mix.truncation)).value
        worst = max(worst, abs(one - two) / two)
    ok = worst <= 1e-9
    _report(
        "single-arm and two-arm generators agree on the phase-averaged state",
        ok,
        f"max rel err {worst:.3e} vs 1e-09",
    )
    assert worst <= 1e-9


def test_a09_crossings_bracket_noon_advantage_window():
    eta, tol = 0.9, 1e-6
    roots = find_crossings(eta, tolerance=tol)
    count_ok = len(roots) == 2
    detail = f"found {len(roots)} roots"
    gaps_ok = signs_ok = False
    if count_ok:
        n1, n2 = roots
        gaps = [
            abs(qfi_noon_continuous(r, eta) - qfi_ecs_ref_at_mean_photons(r, eta)) for r in roots
        ]
        gaps_ok = n1 < n2 and max(gaps) <= tol
        below, between = 0.5 * n1, math.sqrt(n1 * n2)
        signs_ok = (
            qfi_ecs_ref_at_mean_photons(below, eta) > qfi_noon_continuous(below, eta)
            and qfi_noon_continuous(between, eta) > qfi_ecs_ref_at_mean_photons(between, eta)
        )
        detail = (
            f"N1 = {n1:.6f}, N2 = {n2:.6f}, max |dF| at roots {max(gaps):.2e}, "
            f"ecs leads below N1 and noon leads inside"
        )
    ok = count_ok and gaps_ok and signs_ok
    _report("information curves cross twice at eta=0.9", ok, detail)
    assert count_ok
    assert gaps_ok
    assert signs_ok


def _spectrum_without_factor_four(alpha: float, eta: float):
    s = sigma_spectrum(alpha, eta)
    r = math.sqrt(1.0 - s.det_sigma)
    return s._replace(gamma_plus=0.5 * (1.0 + r), gamma_minus=0.5 * (1.0 - r))


def _basis_with_spurious_coherence_factor(alpha: float, eta: float):
    m = basis_overlap_matrix(alpha, eta).copy()
    m[1, 1] *= math.exp(-(1.0 - eta) * abs(alpha) ** 2)
    return m


def test_a10_channel_routes_agree_and_typo_controls_fail():
    worst = 0.0
    for alpha in (0.5, 1.0, 1.5):
        trunc = FockTruncation(truncation_for_tolerance(alpha, 1e-12).n_max + 2)
        rho = ecs_vector(alpha, trunc).density()
        for eta in (0.6, 0.9):
            delta = apply_loss(rho, eta).matrix - apply_loss_via_bs(rho, eta).matrix
            worst = max(worst, float(np.max(np.abs(delta))))
    channel_ok = worst <= 1e-9

    point = [(0.8, 0.9)]
    clean = verify_all(point)
    bad_spectrum = verify_all(point, spectrum_fn=_spectrum_without_factor_four)
    bad_basis = verify_all(point, basis_matrix_fn=_basis_with_spurious_coherence_factor)
    controls_ok = clean.passed and not bad_spectrum.passed and not bad_basis.passed

    ok = channel_ok and controls_ok
    _report(
        "beam-splitter and Kraus loss agree; corrupted closed forms are caught",
        ok,
        f"max entrywise channel gap {worst:.3e} vs 1e-09, "
        f"controls caught: {not bad_spectrum.passed and not bad_basis.passed}",
    )
    assert channel_ok
    assert clean.passed
    assert not bad_spectrum.passed
    assert not bad_basis.passed


def test_a11_sweep_output_is_byte_deterministic(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    rc1 = main(["sweep", "--eta", "0.9", "--output", str(first)])
    rc2 = main(["sweep", "--eta", "0.9", "--output", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    shape_ok = lines[0] == CSV_HEADER and len(lines) == 201
    ok = rc1 == 0 and rc2 == 0 and identical and shape_ok
    _report(
        "default sweep is byte-identical across runs",
        ok,
        f"{len(lines) - 1} rows, identical: {identical}",
    )
    assert rc1 == 0 and rc2 == 0
    assert identical
    assert shape_ok
