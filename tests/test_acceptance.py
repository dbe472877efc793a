"""Full verification checklist, one test per check.

Each test runs one self-contained check from seqweak.acceptance and prints a
single PASS/FAIL line carrying the measured figure and its pinned tolerance.
The same checks back the ``seqweak verify`` command.
"""

import math

from scipy.optimize import brentq

from seqweak import acceptance
from seqweak.acceptance import (
    _check,
    check_anomaly_region,
    check_calculus_agreement,
    check_closed_form_reproduction,
    check_decomposition_identity,
    check_engine_equivalence,
    check_extremum_consistency,
    check_image_lobes,
    check_slm_calibration,
    check_strong_limit,
    check_two_qubit_nonnegativity,
    check_weak_limit,
)
from seqweak.errors import EmptyImage
from seqweak.pointer import max_reversal_delta


def report(result):
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    return result


def test_closed_form_reproduction_is_exact():
    # marginals delta/4 and (delta/8)(5 - 3 exp(-delta^2/8 sigma^2)), joint
    # (delta^2/16)(1 - 3 exp(-delta^2/8 sigma^2)), all to 1e-12
    result = report(check_closed_form_reproduction())
    assert result.passed, result.detail
    assert result.elapsed_s < 1.0


def test_weak_limit_matches_sequential_value():
    # joint mean / delta^2 over delta in {1e-4..5e-4} mm -> -0.125 within 2%
    result = report(check_weak_limit())
    assert result.passed, result.detail
    assert result.elapsed_s < 1.0


def test_strong_limit_reaches_product_value():
    # joint mean / delta^2 at delta = 10 sigma -> +0.0625 within 0.5%
    result = report(check_strong_limit())
    assert result.passed, result.detail


def test_anomaly_region_boundary():
    # zero crossing at sigma sqrt(8 ln 3) = 0.331 mm +- 1e-3 for the default
    # width; joint mean strictly negative inside, positive outside
    result = report(check_anomaly_region())
    assert result.passed, result.detail


def test_extremum_against_stationarity_root():
    # find_extremum's minimizer within 1e-4 of the root of 3 e^{-t}(1-t) = 1,
    # t = 0.468 +- 1e-3; 0.189 mm reference honored to 15%
    result = report(check_extremum_consistency())
    assert result.passed, result.detail


def test_two_qubit_joint_mean_never_negative():
    # 1000 random (delta, sigma): joint mean = delta^2/16 >= 0 and equals the
    # product of the marginals to 1e-12
    result = report(check_two_qubit_nonnegativity())
    assert result.passed, result.detail


def test_engine_equivalence_on_fine_grid():
    # 1024^2 at 13.5 um vs analytic over 15 couplings in [0, 0.711] mm:
    # marginals within 1e-3 mm, joint within 1e-4 mm^2; 256^2 within 1e-2
    result = report(check_engine_equivalence())
    assert result.passed, result.detail
    assert result.elapsed_s < 60.0


def test_calculus_agrees_with_closed_forms():
    # 200 random (delta, sigma): superposition calculus vs closed forms, 1e-10
    result = report(check_calculus_agreement())
    assert result.passed, result.detail


def test_slm_calibration_equivalence():
    # grating of strength alpha behind a lens, then the rest of the relay,
    # equals a conditional shift of 0.0237*alpha mm to 1e-9
    result = report(check_slm_calibration())
    assert result.passed, result.detail


def test_decomposition_identity():
    # 1000 random instances: sum of probability-weighted branch weak values
    # equals the plain expectation to 1e-10
    result = report(check_decomposition_identity())
    assert result.passed, result.detail


def test_image_lobe_weights():
    # at delta = 10 sigma the four lobes carry 1/16, 9/16, 3/16, 3/16 of the
    # power, each within 1% absolute
    result = report(check_image_lobes())
    assert result.passed, result.detail


def test_stationarity_root_matches_brentq():
    want = brentq(lambda t: 3.0 * (1.0 - t) * math.exp(-t) - 1.0, 0.1, 0.9, xtol=1e-15)
    assert abs(max_reversal_delta(1.0) ** 2 / 8.0 - want) <= 1e-12


def test_extremum_check_fails_on_a_drifted_minimizer(monkeypatch):
    # The reference, max_reversal_delta, does not go through find_extremum,
    # so a minimizer 2e-4 off the root fails the 1e-4 tolerance.
    def drifted(records, sigma_mm):
        return max_reversal_delta(sigma_mm) + 2e-4, 0.0

    monkeypatch.setattr(acceptance, "find_extremum", drifted)
    result = report(check_extremum_consistency())
    assert not result.passed
    assert result.detail.startswith("minimizer 1.934783 sigma vs stationarity root 1.934583 (tol 1e-4)")


def test_a_check_that_raises_a_simulation_error_fails_as_aborted():
    @_check("probe")
    def probe():
        raise EmptyImage("image carries no power")

    result = probe()
    assert (result.name, result.passed) == ("probe", False)
    assert result.detail == "aborted: image carries no power"
    assert result.elapsed_s >= 0.0
