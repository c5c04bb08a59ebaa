import numpy as np
import pytest
from hypothesis import given, strategies as st

from damflow import InvalidArgument, PenaltyConfig
from damflow.penalty import (complementarity_bound, g_eps, g_eps_derivative,
                             heaviside_eps, heaviside_eps_derivative)


def test_config_validation():
    with pytest.raises(InvalidArgument):
        PenaltyConfig(eps=0.0)
    with pytest.raises(InvalidArgument):
        PenaltyConfig(eps=1e-2, alpha=-0.1)
    cfg = PenaltyConfig(eps=1e-2)
    assert cfg.alpha == 0.0


@pytest.mark.parametrize("eps, alpha", [(np.nan, 0.0), (np.inf, 0.0), (1e-2, np.nan),
                                        (1e-2, np.inf)])
def test_config_rejects_non_finite(eps, alpha):
    with pytest.raises(InvalidArgument):
        PenaltyConfig(eps=eps, alpha=alpha)


def test_ramp_values():
    eps = 0.1
    s = np.array([-1.0, 0.0, 0.05, 0.1, 2.0])
    np.testing.assert_allclose(heaviside_eps(s, eps), [0.0, 0.0, 0.5, 1.0, 1.0])


def test_ramp_rejects_bad_eps():
    with pytest.raises(InvalidArgument):
        heaviside_eps(0.5, 0.0)
    with pytest.raises(InvalidArgument):
        heaviside_eps_derivative(0.5, -1.0)


def test_derivative_active_at_both_kinks():
    eps = 0.2
    d = heaviside_eps_derivative(np.array([-0.1, 0.0, 0.1, 0.2, 0.3]), eps)
    np.testing.assert_allclose(d, [0.0, 5.0, 5.0, 5.0, 0.0])


def test_g_eps_combines_storage_and_ramp():
    cfg = PenaltyConfig(eps=0.1, alpha=0.5)
    s = np.array([0.05, 1.0])
    np.testing.assert_allclose(g_eps(s, cfg), [0.025 + 0.5, 0.5 + 1.0])
    np.testing.assert_allclose(g_eps_derivative(s, cfg), [0.5 + 10.0, 0.5])


@given(st.floats(-10, 10), st.floats(-10, 10),
       st.floats(1e-6, 1.0))
def test_ramp_monotone_and_lipschitz(s1, s2, eps):
    h1, h2 = heaviside_eps(s1, eps), heaviside_eps(s2, eps)
    if s1 <= s2:
        assert h1 <= h2
    assert abs(h1 - h2) <= abs(s1 - s2) / eps + 1e-12


@given(st.floats(0, 100), st.floats(1e-6, 1.0))
def test_complementarity_bound_sharp(s, eps):
    assert s * (1.0 - heaviside_eps(s, eps)) <= complementarity_bound(eps) + 1e-15
    s_star = eps / 2.0
    assert s_star * (1.0 - heaviside_eps(s_star, eps)) == pytest.approx(eps / 4.0)


@pytest.mark.parametrize("eps_a, eps_b", [(0.01, 0.01), (0.03, 0.03), (0.01, 0.02),
                                          (0.02, 0.0125), (0.005, 0.03)])
def test_cross_term_floor_across_widths(eps_a, eps_b):
    """min over (u_a, u_b) of (u_a - u_b)(H_a(u_a) - H_b(u_b)) is
    -(eps_a - eps_b)**2 / (4 max(eps_a, eps_b)), attained at u_a = min eps and
    u_b = mean eps (or the mirror pair); zero for equal widths."""
    s, step = np.linspace(-0.01, 0.05, 577, retstep=True)
    ua, ub = s[:, None], s[None, :]
    cross_min = float(np.min((ua - ub) * (heaviside_eps(ua, eps_a) - heaviside_eps(ub, eps_b))))
    floor = -(eps_a - eps_b) ** 2 / (4.0 * max(eps_a, eps_b))
    assert cross_min >= floor - 1e-15
    assert cross_min <= floor + step
