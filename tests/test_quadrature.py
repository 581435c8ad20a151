"""Tests for adaptive Gauss–Kronrod–Patterson 7/15 integration."""

import math
import sys

import pytest

from trichord import (
    NonFiniteSampleError,
    integrate_profile,
    limit_angle,
    probability_by_quadrature,
)
from trichord import quadrature

# Frozen from 50-digit evaluations of the closed forms.
ALPHA_INTEGRAL = 0.050934240086779077  # integral of the limit angle over the base
P_EXACT = 0.016212872164880516


def test_constant_integrand_is_exact():
    result = integrate_profile(lambda x: 1.0, 0.0, 1.0, 1e-12)
    assert result.integral == pytest.approx(1.0, abs=1e-15)
    assert result.converged
    assert result.evaluations == 7  # one K7 stage
    assert result.probability is None
    assert result.tolerance == 1e-12



def test_panel_that_fails_the_seven_point_stage_costs_fifteen():
    # exp's 7-point estimate meets a share of 1e-3 but not 1e-10, where the 8
    # added nodes complete P15 on the same panel instead of bisecting it.
    loose = integrate_profile(math.exp, 0.0, 1.0, 1e-3)
    assert loose.evaluations == 7
    result = integrate_profile(math.exp, 0.0, 1.0, 1e-10)
    assert result.converged
    assert result.evaluations == 15
    assert result.integral == pytest.approx(math.e - 1.0, abs=1e-15)

@pytest.mark.parametrize(
    "nodes, weights, centre_weight, degree",
    [
        (quadrature.K7_NODES, quadrature.K7_WEIGHTS, quadrature.K7_CENTRE_WEIGHT, 11),
        (quadrature.K7_NODES, quadrature.G3_WEIGHTS, quadrature.G3_CENTRE_WEIGHT, 5),
        (quadrature.P15_NODES, quadrature.P15_WEIGHTS, quadrature.P15_CENTRE_WEIGHT, 23),
    ],
    ids=["kronrod7", "gauss3", "patterson15"],
)
def test_rule_integrates_monomials_exactly(nodes, weights, centre_weight, degree):
    # Exact to 1e-15 in 50-digit arithmetic, so a node or weight mistyped in
    # its first 13 significant digits fails.  The centre node is 0, so it
    # weighs only the constant.
    import mpmath

    assert len(nodes) == len(weights)
    with mpmath.workdps(50):
        for k in range(degree + 1):
            rule = mpmath.mpf(centre_weight) if k == 0 else mpmath.mpf(0)
            for node, weight in zip(nodes, weights):
                rule += mpmath.mpf(weight) * (mpmath.mpf(node) ** k + (-mpmath.mpf(node)) ** k)
            exact = mpmath.mpf(0) if k % 2 else mpmath.mpf(2) / (k + 1)
            assert abs(rule - exact) <= 1e-15, k


def test_null_rules_annihilate_lower_degrees_and_are_orthogonal():
    # In 50-digit arithmetic, so a weight mistyped in its first 13 significant
    # digits fails.  Each rule is expanded to its 7 samples, a rule of odd
    # degree weighing -node by minus its +node weight.
    import mpmath

    with mpmath.workdps(50):
        nodes = [mpmath.mpf(0)] + [
            sign * mpmath.mpf(node) for node in quadrature.K7_NODES for sign in (-1, 1)
        ]
        weights = [mpmath.mpf(quadrature.K7_CENTRE_WEIGHT)] + [
            mpmath.mpf(weight) for weight in quadrature.K7_WEIGHTS for _ in range(2)
        ]
        gauss = [mpmath.mpf(quadrature.G3_CENTRE_WEIGHT)] + [
            mpmath.mpf(weight) for weight in quadrature.G3_WEIGHTS for _ in range(2)
        ]
        rules = [
            [mpmath.mpf(rule[0])]
            + [sign**degree * mpmath.mpf(weight) for weight in rule[1:] for sign in (-1, 1)]
            for degree, rule in enumerate(quadrature.K7_NULL_RULES, 1)
        ]
        norm = sum(weight**2 for weight in weights)
        for degree, rule in enumerate(rules, 1):
            for k in range(degree):
                assert abs(sum(u * x**k for u, x in zip(rule, nodes))) <= 1e-15, (degree, k)
            assert abs(sum(u * x**degree for u, x in zip(rule, nodes))) >= 1e-2, degree
            assert abs(sum(u**2 for u in rule) - norm) <= 1e-15, degree
            for other in rules[degree:]:
                inner = sum(u * v / w for u, v, w in zip(rule, other, weights))
                assert abs(inner) <= 1e-15, degree
        difference = [k - g for k, g in zip(weights, gauss)]
        scale = difference[0] / rules[-1][0]
        for d, u in zip(difference, rules[-1]):
            assert abs(d - scale * u) <= 1e-15
    # The sample-order copies the quadrature reads, highest degree first.
    assert quadrature._NULLS == tuple(
        tuple(float(u) for u in rule) for rule in reversed(rules)
    )


@pytest.mark.parametrize(
    "magnitudes, alpha, estimate",
    [
        # r = max(1/2, 2/0.5) = 4 >= 1: no decay, K times the largest.
        ((1.0, 2.0, 0.5), 3.0, 10.0 * 2.0),
        # r_crit <= r = 1/2 < 1: K * r times the first.
        ((0.5, 1.0), 2.0, 10.0 * 0.5 * 0.5),
        # r = 1/100 < r_crit: K * r_crit^(1 - alpha) * r^alpha times the first.
        ((1e-3, 1e-1, 10.0), 3.0, 10.0 * 0.25**-2.0 * 1e-6 * 1e-3),
        # At r = r_crit the two lower regimes meet.
        ((0.25, 1.0), 2.0, 10.0 * 0.25 * 0.25),
        # A magnitude over a zero is an infinite ratio, a zero over a zero none.
        ((1e-9, 0.0), 2.0, 10.0 * 1e-9),
        ((0.0, 0.0, 1.0), 3.0, 0.0),
    ],
)
def test_extrapolate_follows_berntsen_and_espelid(magnitudes, alpha, estimate):
    assert quadrature.ERROR_FACTOR == 10.0
    assert quadrature.CRITICAL_RATIO == 0.25
    assert quadrature._extrapolate(magnitudes, alpha) == pytest.approx(estimate, rel=1e-15)


def test_estimate_is_floored_at_the_rules_rounding():
    samples = [1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0]
    half = 0.25
    resabs = half * sum(w * abs(f) for w, f in zip(quadrature._K7, samples))
    floor = sys.float_info.epsilon * resabs

    def stage(magnitude, delta, magnitudes):
        return quadrature._stage(quadrature._K7, samples, half, magnitude, delta, magnitudes, 3.0)

    # Extrapolated far below the floor, and a difference at roundoff.
    assert stage(1.0, 0.5, (1e-30, 1e-20, 1e-10)) == floor
    assert stage(1.0, 1e-17, (1.0, 1.0, 1.0)) == floor
    # Above the floor each estimate stands: at roundoff the raw difference.
    assert stage(1e3, 1e-14, (1.0, 1.0, 1.0)) == 1e-14
    assert stage(1.0, 0.5, (1e-3, 2e-3, 4e-3)) == pytest.approx(5e-3, rel=1e-15)


def test_rules_are_nested():
    # P15 samples K7's nodes themselves, not retyped copies, so the second
    # stage reuses every sample of the first; G3 weighs only the centre and
    # K7's middle node, sqrt(3/5).
    assert all(p is k for p, k in zip(quadrature.P15_NODES, quadrature.K7_NODES))
    assert quadrature.P15_NODES[3:] == quadrature.PATTERSON_NODES
    gauss_nodes = [n for n, w in zip(quadrature.K7_NODES, quadrature.G3_WEIGHTS) if w != 0.0]
    assert gauss_nodes == [quadrature.K7_NODES[1]]
    assert quadrature.K7_NODES[1] == pytest.approx(math.sqrt(0.6), abs=1e-16)
    # Patterson's published 15-point abscissae and centre weight.
    assert quadrature.PATTERSON_NODES == pytest.approx(
        (0.9938319632127550, 0.8884592328722570, 0.6211029467372264, 0.2233866864289669),
        abs=1e-16,
    )
    assert quadrature.P15_CENTRE_WEIGHT == pytest.approx(0.2255104997982067, abs=1e-16)


def test_quadratic_integrand():
    result = integrate_profile(lambda x: x * x, 0.0, 1.0, 1e-12)
    assert result.integral == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_cubic_integrand_is_exact():
    result = integrate_profile(lambda x: x**3 - x, -1.0, 2.0, 1e-12)
    assert result.integral == pytest.approx(2.25, abs=1e-12)


def test_sine_integrand():
    result = integrate_profile(math.sin, 0.0, math.pi, 1e-10)
    assert result.integral == pytest.approx(2.0, abs=1e-10)
    assert result.converged
    assert result.evaluations < 10_000


def test_limit_angle_integral():
    result = integrate_profile(limit_angle, -0.5, 0.5, 1e-12)
    assert result.integral == pytest.approx(ALPHA_INTEGRAL, abs=1e-12)
    assert result.integral == pytest.approx(math.pi * P_EXACT, abs=1e-12)


def test_probability_by_quadrature():
    result = probability_by_quadrature(1e-12)
    assert result.probability == pytest.approx(P_EXACT, abs=1e-10)
    assert result.converged
    assert result.evaluations < 100_000
    assert result.integral == pytest.approx(math.pi * result.probability, rel=1e-15, abs=0.0)


def test_loose_tolerance_still_meets_its_own_contract():
    result = probability_by_quadrature(1e-6)
    assert result.converged
    assert result.probability == pytest.approx(P_EXACT, abs=1e-6)


def test_split_at_center_matches_and_halves_agree():
    whole = integrate_profile(limit_angle, -0.5, 0.5, 1e-12).integral
    left = integrate_profile(limit_angle, -0.5, 0.0, 5e-13).integral
    right = integrate_profile(limit_angle, 0.0, 0.5, 5e-13).integral
    assert left + right == pytest.approx(whole, abs=1e-12)
    assert left == pytest.approx(right, abs=1e-15)


def test_tightening_tolerance_does_not_hurt():
    errors = []
    tolerance = 1e-3
    while tolerance > 1e-10:
        probability = probability_by_quadrature(tolerance).probability
        errors.append(abs(probability - P_EXACT))
        tolerance /= 2.0
    floor = 5e-15  # roundoff noise floor
    for worse, better in zip(errors, errors[1:]):
        assert better <= worse + floor


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        integrate_profile(math.sin, 1.0, 0.0, 1e-6)
    with pytest.raises(ValueError):
        integrate_profile(math.sin, 1.0, 1.0, 1e-6)
    with pytest.raises(ValueError):
        integrate_profile(math.sin, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_profile(math.sin, 0.0, 1.0, -1e-9)


def test_non_finite_integrand_raises():
    with pytest.raises(NonFiniteSampleError):
        integrate_profile(lambda x: math.nan if abs(x) < 0.3 else 1.0, -1.0, 1.0, 1e-6)
    with pytest.raises(NonFiniteSampleError):
        integrate_profile(lambda x: math.inf, 0.0, 1.0, 1e-6)


def test_evaluation_cap_stops_bisecting_a_kink(monkeypatch):
    # The resolution stop bounds depth, not work: past 60 evaluations every
    # open panel is accepted.  Each level whose right half is still pending
    # spent 15 of those 60, so the run ends within 2 * 60 + 15.
    def kink(x):
        return abs(x - 1.0 / 3.0)

    assert integrate_profile(kink, 0.0, 1.0, 1e-6).converged
    monkeypatch.setattr(quadrature, "MAX_EVALUATIONS", 60)
    result = integrate_profile(kink, 0.0, 1.0, 1e-12)
    assert not result.converged
    assert 60 <= result.evaluations <= 2 * quadrature.MAX_EVALUATIONS + 15
    assert result.integral == pytest.approx(5.0 / 18.0, abs=1e-3)


def test_jump_that_floats_cannot_resolve_is_flagged():
    # The centre node samples the jump, so panels bisect towards its ends,
    # where around 1e6 + 0.45 a panel one ulp wide puts all seven K7 nodes on
    # one float, and no estimate from its samples sees the jump inside it.
    # Counting such panels as converged read a run like this as converged,
    # 233 times its tolerance off.
    jump, lower, upper = 1e6, 1e6 + 0.45, 1e6 + 0.55

    def profile(x):
        return math.sin(10.0 * (x - 1e6)) + (jump if lower < x < upper else 0.0)

    result = integrate_profile(profile, 1e6, 1e6 + 1.0, 1e-6)
    assert not result.converged
    assert result.evaluations <= 2 * quadrature.MAX_EVALUATIONS + 15
    exact = (1.0 - math.cos(10.0)) / 10.0 + jump * (upper - lower)
    assert result.integral == pytest.approx(exact, rel=1e-9)


def test_roundoff_scale_grows_with_every_panel():
    # The first panel's K7 nodes miss the jump of 1e12 on (0.6, 0.62), a P15
    # node hits it, and neither half's nodes do.  The integral's roundoff is
    # then set by that P15 sample, far above 1e-10, so the halves stop at
    # roundoff short of their shares instead of reading converged while the
    # whole 2e10 is missed.
    def profile(x):
        return math.sin(10.0 * x) + (1e12 if 0.6 < x < 0.62 else 0.0)

    result = integrate_profile(profile, 0.0, 1.0, 1e-10)
    assert not result.converged


@pytest.mark.parametrize("profile, upper", [(math.exp, 1.0), (math.sin, math.pi)])
def test_tolerance_below_the_rules_rounding_is_not_converged(profile, upper):
    # The extrapolated estimates of exp and sin fall below 1e-18 within one
    # panel, but no rule resolves an integral near 1 to better than its ulp.
    result = integrate_profile(profile, 0.0, upper, 1e-18)
    assert not result.converged
    assert result.evaluations < 10**4


def test_evaluation_count_is_reported():
    calls = 0

    def integrand(x):
        nonlocal calls
        calls += 1
        return math.exp(x)

    result = integrate_profile(integrand, 0.0, 1.0, 1e-9)
    assert result.evaluations == calls
    assert result.integral == pytest.approx(math.e - 1.0, abs=1e-9)


def test_tolerance_below_roundoff_stops_early_and_flags_it():
    # 1e-22 is far below the rounding error of an integral of size 1/7; the
    # split stops once the difference no longer changes the integral's size.
    result = integrate_profile(lambda x: x**6, 0.0, 1.0, 1e-22)
    assert result.evaluations < 10**4
    assert not result.converged
    assert result.integral == pytest.approx(1.0 / 7.0, abs=1e-15)
