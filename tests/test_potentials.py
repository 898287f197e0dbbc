"""Potential splitting, derivative consistency, proliferation bounds, well constants."""

import numpy as np
import pytest

from chks.potentials import (
    AdmissibilityError,
    PotentialSpec,
    ProliferationSpec,
    default_s_stab,
    derive_constants,
)

RNG = np.random.default_rng(7)


@pytest.fixture(params=["regular", "logarithmic"])
def pot(request):
    if request.param == "regular":
        return PotentialSpec("regular", c1=1.4)
    return PotentialSpec("logarithmic", c2=2.3, eps_clamp=1e-8)


def sample_points(pot, n=20):
    if pot.kind == "regular":
        return RNG.uniform(-2.0, 3.0, n)
    return RNG.uniform(0.05, 0.95, n)


def test_regular_critical_points():
    pot = PotentialSpec("regular", c1=2.0)
    np.testing.assert_allclose(pot.f_prime(np.array([0.0, 0.5, 1.0])), 0.0, atol=1e-15)


def test_regular_value_at_half():
    pot = PotentialSpec("regular", c1=1.0)
    assert pot.f_value(0.5) == pytest.approx(1.0 / 64.0, rel=1e-14)


def test_regular_prime_closed_form():
    pot = PotentialSpec("regular", c1=1.0)
    r = RNG.uniform(-1, 2, 50)
    np.testing.assert_allclose(
        pot.f_prime(r), 0.5 * r * (r - 1.0) * (2.0 * r - 1.0), rtol=1e-12, atol=1e-13
    )


def test_logarithmic_symmetry_and_r0():
    pot = PotentialSpec("logarithmic", c2=2.0)
    assert pot.f1_prime(0.5) == pytest.approx(0.0, abs=1e-15)
    assert pot.r0() == 0.5
    assert PotentialSpec("regular").r0() == 0.0


def test_splitting_identity_and_convexity(pot):
    r = sample_points(pot, 1000)
    np.testing.assert_allclose(
        pot.f_value(r), pot.f1_value(r) + pot.f2_value(r), rtol=1e-12, atol=1e-14
    )
    assert np.all(pot.f1_second(r) >= 0.0)


def test_derivative_finite_difference_chain(pot):
    # Each derivative matches centered differences of the one below it.
    step = 1e-5
    pts = sample_points(pot)
    if pot.kind == "logarithmic":
        pts = np.clip(pts, 0.1, 0.9)  # keep FD stencils away from the clamp window
    fd_prime = (pot.f_value(pts + step) - pot.f_value(pts - step)) / (2 * step)
    np.testing.assert_allclose(fd_prime, pot.f_prime(pts), rtol=1e-6)
    fd_second = (pot.f_prime(pts + step) - pot.f_prime(pts - step)) / (2 * step)
    np.testing.assert_allclose(fd_second, pot.f_second(pts), rtol=1e-6)


def test_logarithmic_blow_up_directions():
    # Signs near the domain ends, and divergence as the evaluation point
    # approaches them.
    pot = PotentialSpec("logarithmic", c2=2.0, eps_clamp=1e-6)
    assert pot.f_prime(2 * pot.eps_clamp) < 0.0
    assert pot.f_prime(1.0 - 2 * pot.eps_clamp) > 0.0
    tighter = PotentialSpec("logarithmic", c2=2.0, eps_clamp=1e-12)
    assert tighter.f_prime(2e-12) < pot.f_prime(2e-6) < pot.f_prime(0.4) < 0.0
    assert tighter.f_prime(1 - 2e-12) > pot.f_prime(1 - 2e-6) > pot.f_prime(0.6) > 0.0


def test_logarithmic_clamp_count_and_extension_continuity():
    pot = PotentialSpec("logarithmic", c2=2.0, eps_clamp=1e-4)
    # Two levels of a 2x2 grid; the window [eps, 1 - eps] is closed.
    levels = np.array([[[0.5, 0.6], [1e-4, 1 - 1e-4]],
                       [[-0.1, 0.5], [5e-5, 1.2]]])
    np.testing.assert_array_equal(pot.clamp_counts(levels), [0, 3])
    np.testing.assert_array_equal(PotentialSpec("regular").clamp_counts(levels), [0, 0])
    # The quadratic extension is C2 at the clamp boundary.
    eps = pot.eps_clamp
    for fn in (pot.f1_value, pot.f1_prime, pot.f1_second):
        left = fn(eps - 1e-12)
        right = fn(eps + 1e-12)
        assert left == pytest.approx(right, rel=1e-5)


def test_proliferation_families():
    zero = ProliferationSpec("zero")
    assert np.all(zero.h_value(RNG.uniform(-5, 5, 10)) == 0.0)

    logi = ProliferationSpec("logistic", h0=1.0, k=1.0)
    assert logi.h_value(0.0) == pytest.approx(0.5)
    assert logi.h_prime(0.0) == pytest.approx(0.25)


def test_derive_constants_zero_prolif_log_rejected():
    # h = 0 with the logarithmic potential and m = 1 gives R = 1/2, pushing
    # the endpoints to {0, 1}, which are not interior.
    pot = PotentialSpec("logarithmic", c2=2.0)
    with pytest.raises(AdmissibilityError, match=r"\(2\.11\)"):
        derive_constants(1.0, pot, ProliferationSpec("zero"), 0.5)


def test_derive_constants_matched_prolif_accepted():
    pot = PotentialSpec("logarithmic", c2=2.0)
    wc = derive_constants(2.0, pot, ProliferationSpec("constant", h0=1.0), 0.55)
    assert wc.R == 0.0
    assert wc.admissible
    assert wc.r_minus_required == pytest.approx(0.5)
    assert wc.r_plus_required == pytest.approx(0.55)


def test_derive_constants_regular_always_accepted():
    pot = PotentialSpec("regular", c1=1.0)
    wc = derive_constants(0.5, pot, ProliferationSpec("logistic", h0=4.0, k=2.0), 3.0)
    assert wc.admissible
    assert np.isfinite(wc.R)


def test_f1_prime_root_is_r0(pot):
    assert abs(pot.f1_prime(pot.r0())) <= 1e-12


def test_default_stabilization():
    assert default_s_stab(PotentialSpec("regular", c1=3.0)) == 1.5
    assert default_s_stab(PotentialSpec("logarithmic")) == 2.0


def test_invalid_specs_rejected():
    with pytest.raises(AdmissibilityError, match=r"\(2\.6\)"):
        PotentialSpec("regular", c1=-1.0)
    with pytest.raises(AdmissibilityError, match=r"\(2\.8\)"):
        PotentialSpec("logarithmic", eps_clamp=0.3)
    with pytest.raises(ValueError):
        PotentialSpec("cubic")
    with pytest.raises(ValueError):
        ProliferationSpec("linear")


@pytest.mark.parametrize("pot, prolif", [
    (PotentialSpec("regular", c1=1.0), ProliferationSpec("zero")),
    (PotentialSpec("logarithmic", c2=2.0), ProliferationSpec("constant", h0=0.3)),
    (PotentialSpec("regular", c1=2.0), ProliferationSpec("logistic", h0=0.5, k=2.0)),
])
def test_step_functions_return_fresh_arrays(pot, prolif):
    # The sweeps build right-hand sides in place on these results.
    r = np.linspace(0.1, 0.9, 12).reshape(3, 4)
    before = r.copy()
    for fn in (pot.f_prime, pot.f_second, prolif.h_value, prolif.h_prime):
        out = fn(r)
        assert out.shape == r.shape and out.flags.writeable
        assert not np.shares_memory(out, r)
        out += 1.0
    np.testing.assert_array_equal(r, before)
