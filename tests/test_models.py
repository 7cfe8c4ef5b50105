"""Model catalog unit tests with frozen drift/diffusion oracles."""
import numpy as np
import pytest

from stochlab.integrate import apply_generator, strat_to_ito, validate_model
from stochlab.models import (
    CATALOG,
    CatalogEntry,
    build_model,
    kubo_exact,
    scalar_linear_exact,
    wrap_angles,
)
from stochlab.noise import sample_brownian
from stochlab.vecalg import norm_squared_field

E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def _build_any(name):
    """Build each catalog model with enough parameters to instantiate it."""
    required = {
        "ell": {"interpretation": "stratonovich"},
        "scalar_linear": {"a": -1.0, "b_scalar": 1.0},
        "isochronous": {"omega": (1.0, 2.0)},
    }
    return build_model(name, **required.get(name, {}))


def test_catalog_is_complete_and_buildable():
    assert set(CATALOG) == {
        "ell", "etore_invariantized", "isochronous", "kubo", "larmor",
        "larmor_external", "larmor_preserving", "ll", "modified_etore",
        "rode_ll", "scalar_linear",
    }
    for name in CATALOG:
        model = _build_any(name)
        validate_model(model)


def test_build_model_rejects_unknown_and_missing():
    with pytest.raises(ValueError):
        build_model("unobtainium")
    with pytest.raises(ValueError):
        build_model("ll", mass=2.0)
    with pytest.raises(ValueError):
        build_model("ell")  # interpretation is mandatory
    with pytest.raises(ValueError):
        build_model("scalar_linear", a=1.0)
    with pytest.raises(ValueError):
        build_model("ell", interpretation="milstein")
    with pytest.raises(ValueError):
        build_model("ll", b=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        build_model("ll", alpha=-1.0)
    with pytest.raises(ValueError):
        build_model("rode_ll", t_min=2.0)


def test_catalog_entry_carries_params():
    entry = CatalogEntry("ell", {"eps": 0.3}, interpretation="ito")
    model = build_model(entry)
    assert model.params["eps"] == 0.3
    assert model.interpretation == "ito"
    override = build_model(entry, eps=0.7)
    assert override.params["eps"] == 0.7


def test_larmor_drift_is_precession():
    model = build_model("larmor")
    assert model.interpretation == "ode"
    # x ^ b at x = e1, b = e3
    assert np.allclose(model.drift(0.0, E1), [0.0, -1.0, 0.0])


def test_ll_drift_frozen_value():
    model = build_model("ll", alpha=1.0)
    # -x^b - x^(x^b) at x = e1, b = e3
    assert np.allclose(model.drift(0.0, E1), [0.0, 1.0, 1.0], atol=1e-15)
    names = [name for name, _ in model.drift_terms]
    assert names == ["precession", "damping"]


def test_ll_drift_terms_sum_to_drift():
    model = build_model("ll", alpha=0.7, b=(0.2, -1.0, 0.5))
    x = np.array([0.3, 0.8, -0.5])
    total = sum(term(0.0, x) for _, term in model.drift_terms)
    assert np.allclose(total, model.drift(0.0, x), atol=1e-15)


@pytest.mark.parametrize("name,params,eta", [
    ("ll", {}, ()),
    ("ell", {"interpretation": "ito"}, ()),
    ("rode_ll", {}, (np.linspace(0.1, 3.0, 50),)),
    ("rode_ll", {"scalar_eta": False}, (np.linspace(-2.0, 2.0, 150).reshape(50, 3),)),
])
def test_ll_drift_total_equals_its_summed_terms_bit_for_bit(name, params, eta):
    """The fused Landau-Lifshitz drift forms x ^ b once; the precession and
    damping terms form it each, and their sum rounds the same."""
    model = build_model(name, alpha=0.7, b=(0.2, -1.0, 0.5), **params)
    x = np.random.default_rng(4).normal(size=(50, 3))
    precession, damping = (term for _, term in model.drift_terms)
    total = precession(0.0, x, *eta) + damping(0.0, x, *eta)
    assert np.array_equal(total, model.drift(0.0, x, *eta))


def test_ell_diffusion_frozen_matrix():
    # sigma = -[x]_x + alpha (|x|^2 I - x x^T); rtol=0, so that a relative
    # error far below allclose's default 1e-5 in alpha still fails
    model = build_model("ell", interpretation="stratonovich", alpha=0.7, eps=1.0)
    expected = np.array([
        [0.7, 1.0, 0.0],
        [-1.0, 0.7, 0.0],
        [0.0, 0.0, 0.0],
    ])
    np.testing.assert_allclose(model.diffusion(0.0, E3), expected, rtol=0, atol=1e-15)
    assert model.name == "ell_stratonovich"
    off_pole = np.array([
        [0.74375, 0.9125, -0.6],
        [-1.0875, 0.875, 0.325],
        [-0.1, -0.675, 0.21875],
    ])
    np.testing.assert_allclose(model.diffusion(0.0, np.array([0.5, 0.25, 1.0])), off_pole,
                               rtol=0, atol=1e-15)
    half = build_model("ell", interpretation="ito", alpha=0.7, eps=0.5)
    np.testing.assert_allclose(half.diffusion(0.0, E3), 0.5 * expected, rtol=0, atol=1e-15)
    assert half.name == "ell_ito"


def test_ell_diffusion_is_tangent_to_spheres():
    model = build_model("ell", interpretation="stratonovich", alpha=1.3, eps=0.4)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=3)
        sig = model.diffusion(0.0, x)
        assert np.max(np.abs(x @ sig)) < 1e-12 * max(1.0, np.sum(x * x))


def test_etore_invariantized_rescaling_term():
    model = build_model("etore_invariantized")  # eps=0.1, alpha=1 -> d=0.04
    terms = dict(model.drift_terms)
    assert set(terms) == {"rescaling", "landau-lifshitz"}
    assert np.allclose(terms["rescaling"](0.0, E3), -0.02 * E3, atol=1e-15)
    # at time t the rate is halved by the running normalizer d t + 1
    t = 25.0
    assert np.allclose(terms["rescaling"](t, E3), (-0.5 * 0.04 / 2.0) * E3, atol=1e-15)
    # the landau-lifshitz part vanishes at the pole, the rescaling does not
    assert np.allclose(terms["landau-lifshitz"](0.0, E3), 0.0, atol=1e-15)


def test_invariantized_rescaling_cancels_norm_drift():
    # the whole point of the rescaled model: L ||x||^2 = 0 on the sphere,
    # because tr(sigma sigma^T) = 2 eps^2 (alpha^2+1) / (d t + 1) there
    # exactly matches twice the rescaling rate
    model = build_model("etore_invariantized", eps=0.3, alpha=0.5)
    V = norm_squared_field()
    rng = np.random.default_rng(6)
    for t in (0.0, 1.0, 25.0):
        for _ in range(10):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            assert abs(apply_generator(model, V, t, x)) < 1e-14


def test_modified_etore_single_channel_vanishes_at_poles():
    model = build_model("modified_etore")
    assert model.noise_dim == 1
    for pole in (E3, -E3):
        sig = model.diffusion(0.0, pole)
        assert sig.shape == (3, 1)
        assert np.max(np.abs(sig)) < 1e-15
    x = np.array([0.6, 0.0, 0.8])
    sig = model.diffusion(0.0, x)
    assert np.max(np.abs(sig)) > 1e-3


def test_rode_ll_drift_scales_with_eta():
    model = build_model("rode_ll")
    base = build_model("ll", alpha=1.0)
    x = np.array([0.6, 0.0, 0.8])
    eta = np.array([1.7])
    got = model.drift(0.0, x, eta)
    assert np.allclose(got, 1.7 * base.drift(0.0, x), atol=1e-14)


def test_rode_ll_eta_builder_is_bounded_iterated_log():
    model = build_model("rode_ll")
    assert model.eta_dim == 1
    path = sample_brownian(9, T=10.0, h=0.01)
    eta = model.eta_builder(path)
    assert np.all(eta.values > 0.0)
    assert np.all(eta.values[path.times <= 3.0] == 1.0)


def test_kubo_drift_and_corrected_form():
    model = build_model("kubo", a=2.0, sigma=0.5)
    x = np.array([0.3, -1.1])
    assert np.allclose(model.drift(0.0, x), [2.0 * 1.1, 2.0 * 0.3], atol=1e-15)
    ito = strat_to_ito(model)
    assert ito.name.endswith("_ito")
    # corrected drift a J x - sigma^2/2 x
    expected = np.array([2.0 * 1.1 - 0.125 * 0.3, 2.0 * 0.3 + 0.125 * 1.1])
    assert np.allclose(ito.drift(0.0, x), expected, atol=1e-14)


def test_kubo_exact_is_a_rotation():
    path = sample_brownian(5, T=1.0, h=2.0**-6)
    x0 = np.array([0.8, -0.6])
    traj = kubo_exact(1.0, 0.5, x0, path)
    assert traj.shape == (65, 2)
    assert np.allclose(np.sum(traj**2, axis=1), 1.0, atol=1e-12)
    theta = 1.0 * path.times[-1] + 0.5 * path.cumulative()[-1, 0]
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert np.allclose(traj[-1], rot @ x0, atol=1e-12)


def test_scalar_linear_exact_matches_formula():
    path = sample_brownian(6, T=2.0, h=0.25)
    vals = scalar_linear_exact(0.5, 0.3, 2.0, path)
    w = path.cumulative()[:, 0]
    manual = 2.0 * np.exp((0.5 - 0.045) * path.times + 0.3 * w)
    assert np.allclose(vals, manual, rtol=1e-14)


def test_scalar_linear_model_shapes():
    model = build_model("scalar_linear", a=-1.0, b_scalar=0.5)
    assert model.n == 1 and model.noise_dim == 1
    assert np.allclose(model.drift(0.0, np.array([2.0])), [-2.0])
    assert np.allclose(model.diffusion(0.0, np.array([2.0])), [[1.0]])


def test_isochronous_layout_and_wrap():
    model = build_model("isochronous", omega=(2.0, 3.0), eps=0.1)
    assert model.n == 4 and model.noise_dim == 1
    x = np.array([1.0, 2.0, 0.5, -0.5])
    assert np.allclose(model.drift(0.0, x), [0.0, 0.0, 2.0, 3.0])
    states = np.array([[0.3, 0.4, 4.0 * np.pi + 0.3, -0.1]])
    wrapped = wrap_angles(model, states)
    assert np.allclose(wrapped[0, :2], [0.3, 0.4])
    assert wrapped[0, 2] == pytest.approx(0.3, abs=1e-12)
    assert 0.0 <= wrapped[0, 3] < 2.0 * np.pi


def test_wrap_angles_identity_for_other_models():
    model = build_model("ll")
    states = np.array([[0.1, 7.0, -9.0]])
    assert wrap_angles(model, states) is states


def test_larmor_preserving_diffusion_vanishes_at_equilibria():
    model = build_model("larmor_preserving", gamma=2.0)
    for pole in (E3, -E3):
        assert np.max(np.abs(model.drift(0.0, pole))) < 1e-15
        assert np.max(np.abs(model.diffusion(0.0, pole))) < 1e-15
    x = np.array([1.0, 0.0, 0.0])
    # diffusion column gamma * (x ^ b)
    assert np.allclose(model.diffusion(0.0, x)[:, 0], 2.0 * np.cross(x, E3))


def test_larmor_external_diffusion_uses_supplied_matrix():
    # a non-symmetric sigma_mat tells its columns from its rows
    for sigma in (np.eye(3), np.array([[1.0, 0.2, 0.0], [0.0, 0.7, -0.4], [0.3, 0.0, 1.1]])):
        model = build_model("larmor_external", eps=0.2, sigma_mat=sigma)
        x = np.array([0.0, 1.0, 0.0])
        # columns are eps * x ^ (sigma e_k)
        expected = 0.2 * np.stack([np.cross(x, sigma[:, k]) for k in range(3)], axis=1)
        assert np.allclose(model.diffusion(0.0, x), expected, atol=1e-15)
