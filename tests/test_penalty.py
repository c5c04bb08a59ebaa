import numpy as np
import pytest
from hypothesis import given, strategies as st

from damflow import InvalidArgument, PenaltyConfig


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


def test_config_rejects_non_positive_eps():
    with pytest.raises(InvalidArgument):
        PenaltyConfig(eps=0.0)
    with pytest.raises(InvalidArgument):
        PenaltyConfig(eps=-1.0)


def test_ramp_values():
    s = np.array([-1.0, 0.0, 0.05, 0.1, 2.0])
    np.testing.assert_allclose(PenaltyConfig(0.1).heaviside(s), [0.0, 0.0, 0.5, 1.0, 1.0])


def test_derivative_active_at_both_kinks():
    d = PenaltyConfig(0.2).heaviside_derivative(np.array([-0.1, 0.0, 0.1, 0.2, 0.3]))
    np.testing.assert_allclose(d, [0.0, 5.0, 5.0, 5.0, 0.0])


def test_g_eps_combines_storage_and_ramp():
    cfg = PenaltyConfig(eps=0.1, alpha=0.5)
    s = np.array([0.05, 1.0])
    np.testing.assert_allclose(cfg.storage(s), [0.025 + 0.5, 0.5 + 1.0])
    np.testing.assert_allclose(cfg.storage_derivative(s), [0.5 + 10.0, 0.5])


@given(st.floats(0.0, 2.0), st.floats(0.0, 1.0), st.floats(1e-3, 0.5), st.floats(1e-3, 2.0))
def test_storage_preimage_stores_g_with_alpha(u, chi, eps, alpha):
    """For alpha > 0 the preimage is the one pressure that stores g."""
    cfg = PenaltyConfig(eps=eps, alpha=alpha)
    g = alpha * u + chi
    s = cfg.storage_preimage(g, u)
    assert cfg.storage(s) == pytest.approx(g, rel=1e-14, abs=1e-15)
    assert cfg.storage_preimage(g, u + 1.0) == s


def test_storage_preimage_without_alpha_is_nearest():
    """For alpha = 0 a pressure stores chi = H_eps(s): eps*chi inside the
    ramp, 0 for a dry node and the nearest point of [eps, inf) for a wet one."""
    cfg = PenaltyConfig(eps=0.1)
    u = np.array([0.3, 0.3, 0.3, 0.05, 0.0, 0.5])
    chi = np.array([0.0, 0.4, 1.0, 1.0, 1.0, 0.25])
    s = cfg.storage_preimage(chi, u)
    np.testing.assert_array_equal(s, [0.0, 0.1 * 0.4, 0.3, 0.1, 0.1, 0.1 * 0.25])
    np.testing.assert_allclose(cfg.heaviside(s), chi, rtol=0, atol=1e-15)


@given(st.floats(-10, 10), st.floats(-10, 10),
       st.floats(1e-6, 1.0))
def test_ramp_monotone_and_lipschitz(s1, s2, eps):
    ramp = PenaltyConfig(eps).heaviside
    h1, h2 = ramp(s1), ramp(s2)
    if s1 <= s2:
        assert h1 <= h2
    assert abs(h1 - h2) <= abs(s1 - s2) / eps + 1e-12


@given(st.floats(0, 100), st.floats(1e-6, 1.0))
def test_complementarity_bound_sharp(s, eps):
    cfg = PenaltyConfig(eps)
    assert s * (1.0 - cfg.heaviside(s)) <= cfg.complementarity_bound + 1e-15
    s_star = eps / 2.0
    assert s_star * (1.0 - cfg.heaviside(s_star)) == pytest.approx(eps / 4.0)


@pytest.mark.parametrize("eps_a, eps_b", [(0.01, 0.01), (0.03, 0.03), (0.01, 0.02),
                                          (0.02, 0.0125), (0.005, 0.03)])
def test_cross_term_floor_across_widths(eps_a, eps_b):
    """min over (u_a, u_b) of (u_a - u_b)(H_a(u_a) - H_b(u_b)) is
    -(eps_a - eps_b)**2 / (4 max(eps_a, eps_b)), attained at u_a = min eps and
    u_b = mean eps (or the mirror pair); zero for equal widths."""
    s, step = np.linspace(-0.01, 0.05, 577, retstep=True)
    ua, ub = s[:, None], s[None, :]
    ha, hb = PenaltyConfig(eps_a).heaviside(ua), PenaltyConfig(eps_b).heaviside(ub)
    cross_min = float(np.min((ua - ub) * (ha - hb)))
    floor = -(eps_a - eps_b) ** 2 / (4.0 * max(eps_a, eps_b))
    assert cross_min >= floor - 1e-15
    assert cross_min <= floor + step
