import numpy as np
import pytest

from singpde import (
    SingularNonlinearity,
    eval_h_n,
    trunc_G,
    trunc_T,
    trunc_power,
)
from singpde.singularity import slope_h_n


def sample_instances():
    return [
        SingularNonlinearity.pure_power(0.5),
        SingularNonlinearity.pure_power(1.0),
        SingularNonlinearity.pure_power(2.0),
        SingularNonlinearity.shifted_power(1.0, 1.0),
        SingularNonlinearity.shifted_power(0.7, 0.25),
        SingularNonlinearity.bounded_plateau(0.5, 10.0),
        SingularNonlinearity.bounded_plateau(2.0, 0.5),
    ]


def test_eval_pure_power_examples():
    assert SingularNonlinearity.pure_power(0.5)(4.0) == pytest.approx(0.5)
    assert SingularNonlinearity.pure_power(1.0)(1.0) == pytest.approx(1.0)


def test_eval_shifted_power_finite_at_zero():
    h = SingularNonlinearity.shifted_power(1.0, 1.0)
    assert h(1e-12) == pytest.approx(1.0, rel=1e-9)


def test_eval_rejects_nonpositive_argument():
    h = SingularNonlinearity.pure_power(0.5)
    for s in (0.0, -1.0):
        with pytest.raises(ValueError):
            h(s)
    with pytest.raises(ValueError):
        h(np.array([0.5, -0.25]))


def test_truncation_examples():
    assert trunc_T(2.0, 5.0) == 2.0
    assert trunc_T(2.0, -5.0) == -2.0
    assert trunc_T(3.0, 0.0) == 0.0
    assert trunc_T(2.0, 1.0) == 1.0
    assert trunc_G(2.0, 5.0) == 3.0
    assert trunc_G(2.0, 1.0) == 0.0


def test_truncation_identity_randomized():
    rng = np.random.default_rng(42)
    k = rng.uniform(1e-2, 100.0, size=1000)
    s = rng.uniform(-200.0, 200.0, size=1000)
    for ki, si in zip(k, s):
        assert trunc_T(ki, si) + trunc_G(ki, si) == si


def test_truncation_rejects_nonpositive_level():
    with pytest.raises(ValueError):
        trunc_T(0.0, 1.0)
    with pytest.raises(ValueError):
        trunc_T(-1.0, 1.0)
    with pytest.raises(ValueError):
        trunc_G(-1.0, 1.0)


def test_eval_h_n_cap_examples():
    h = SingularNonlinearity.pure_power(1.0)
    assert eval_h_n(h, 2, 0.01) == 2.0  # h = 100 capped at 2
    assert eval_h_n(h, 1000, 0.5) == 2.0  # below cap
    assert eval_h_n(h, 10, 1.0) == h(1.0)  # truncation inactive


# (h, level n, the kink s* where min(n, h) turns flat for s < s*)
_KINKS = [
    (SingularNonlinearity.pure_power(1.5), 64, 64.0 ** (-1 / 1.5)),  # cap
    (SingularNonlinearity.shifted_power(2.0, 0.05), 64, 0.125 - 0.05),  # cap
    (SingularNonlinearity.bounded_plateau(1.5, 10.0), 64, 10.0 ** (-1 / 1.5)),  # plateau
    (SingularNonlinearity.bounded_plateau(1.5, 100.0), 64, 64.0 ** (-1 / 1.5)),  # cap
]


@pytest.mark.parametrize("h, n, kink", _KINKS)
def test_slope_h_n_matches_finite_differences_on_both_sides_of_kink(h, n, kink):
    s = np.array([0.99 * kink, 1.01 * kink, 2.0 * kink, 10.0 * kink])
    step = 1e-6 * s
    fd = (eval_h_n(h, n, s + step) - eval_h_n(h, n, s - step)) / (2 * step)
    slope = slope_h_n(h, n, s, eval_h_n(h, n, s))
    assert slope[0] == 0.0 and fd[0] == 0.0  # flat side of the kink
    assert np.all(slope[1:] > 0.0)
    np.testing.assert_allclose(slope[1:], -fd[1:], rtol=1e-6)


def test_eval_h_n_rejects_bad_level():
    h = SingularNonlinearity.pure_power(1.0)
    with pytest.raises(ValueError):
        eval_h_n(h, 0, 1.0)


def test_trunc_power_examples():
    assert trunc_power(4.0, 1.0, 9.0) == pytest.approx(4.0)
    assert trunc_power(4.0, 3.0, 1.0) == pytest.approx(1.0)
    assert trunc_power(1.0, 1.0, 0.25) == pytest.approx(0.25)


def test_trunc_power_rejects_bad_arguments():
    with pytest.raises(ValueError):
        trunc_power(1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        trunc_power(1.0, 2.0, -1.0)


def test_monotone_nonincreasing_on_log_grid():
    s = np.logspace(-6, 6, 400)
    for h in sample_instances():
        values = h(s)
        assert np.all(values[1:] <= values[:-1] * (1 + 1e-12))
        assert np.all(values > 0)


def test_cap_monotone_in_level():
    s = np.logspace(-4, 2, 50)
    for h in sample_instances():
        for n in (1, 2, 7, 50):
            a = eval_h_n(h, n, s)
            b = eval_h_n(h, n + 1, s)
            c = np.asarray(h(s))
            assert np.all(a <= b + 1e-15)
            assert np.all(b <= c + 1e-15)


def test_growth_envelopes_on_wide_log_sample():
    # The paper's growth hypothesis, with each family's closed-form constants:
    # h(s) <= c1 s^-gamma below k_under, h(s) <= c2 s^-theta above k_over,
    # and h has a finite limit at infinity.
    s = np.logspace(-8, 8, 1000)
    c1 = c2 = 1.0
    k_under = 1.0
    for h in sample_instances():
        theta = h.gamma
        k_over = 1.0
        if h.kind == "bounded_plateau":
            k_over = max(1.0, h.plateau ** (-1.0 / h.gamma))
        values = np.asarray(h(s))
        near = s < k_under
        far = s > k_over
        assert np.all(values[near] <= c1 * s[near] ** (-h.gamma) * (1 + 1e-9))
        assert np.all(values[far] <= c2 * s[far] ** (-theta) * (1 + 1e-9))
        assert h(1e6) <= h(k_over) * (1 + 1e-12)


def test_constructor_rejections():
    with pytest.raises(ValueError):
        SingularNonlinearity.pure_power(-1.0)
    with pytest.raises(ValueError):
        SingularNonlinearity.pure_power(0.0)
    with pytest.raises(ValueError):
        SingularNonlinearity.shifted_power(1.0, -0.5)
    with pytest.raises(ValueError):
        SingularNonlinearity.bounded_plateau(1.0, 0.0)
    with pytest.raises(ValueError):
        SingularNonlinearity.pure_power(float("inf"))
    with pytest.raises(ValueError):
        SingularNonlinearity.shifted_power(1.0, float("nan"))


def test_strictly_decreasing_flag():
    assert SingularNonlinearity.pure_power(0.5).strictly_decreasing
    assert SingularNonlinearity.shifted_power(1.0, 1.0).strictly_decreasing
    assert not SingularNonlinearity.bounded_plateau(1.0, 5.0).strictly_decreasing

