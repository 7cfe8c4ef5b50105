"""Component-form kernels: agreement with the matrix fields, the Wong-Zakai
correction taken from the noise action, evaluation on complex components,
and bitwise equality of the one-path float stepping with the batched array
stepping, under every scheme and on the Ito conversions."""
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stochlab.cli import main
from stochlab.integrate import SCHEMES, _scheme_states, integrate_path, strat_to_ito
from stochlab.models import CATALOG, build_model
from stochlab.noise import NoisePath, ParameterProcess
from stochlab.vecalg import _DELTA

B3 = (0.2, -1.0, 0.5)

# test id -> (catalog name, parameters); every stochastic catalog model
STOCHASTIC = {
    "larmor_external": ("larmor_external", dict(
        b=B3, eps=0.3, sigma_mat=[[1.0, 0.2, 0.0], [0.0, 0.7, -0.4], [0.3, 0.0, 1.1]])),
    "larmor_preserving": ("larmor_preserving", dict(b=B3, gamma=0.6)),
    "ell_ito": ("ell", dict(interpretation="ito", b=B3, alpha=0.7, eps=0.3)),
    "ell_stratonovich": ("ell", dict(interpretation="stratonovich", b=B3, alpha=0.7, eps=0.3)),
    "etore_invariantized": ("etore_invariantized", dict(b=B3, alpha=0.7, eps=0.3)),
    "modified_etore": ("modified_etore", dict(b=B3, alpha=0.7, eps=0.3)),
    "kubo": ("kubo", dict(a=1.3, sigma=0.5)),
    "scalar_linear": ("scalar_linear", dict(a=-0.8, b_scalar=0.6)),
    "isochronous": ("isochronous", dict(omega=(1.0, 2.5), eps=(0.3, 0.1))),
}

# test id -> (catalog name, parameters); every ODE and RODE catalog model
DETERMINISTIC = {
    "larmor": ("larmor", dict(b=B3)),
    "ll": ("ll", dict(b=B3, alpha=0.7)),
    "rode_ll": ("rode_ll", dict(b=B3, alpha=0.7)),
    "rode_ll_vector": ("rode_ll", dict(b=B3, alpha=0.7, scalar_eta=False)),
}

# test id -> Stratonovich entry; the Ito models strat_to_ito makes of them
CONVERTED = {f"{key}_to_ito": key for key in (
    "ell_stratonovich", "isochronous", "kubo", "larmor_external", "larmor_preserving")}


def _model(key):
    if key in CONVERTED:
        return strat_to_ito(_model(CONVERTED[key]))
    name, params = {**STOCHASTIC, **DETERMINISTIC}[key]
    return build_model(name, **params)


def _components(a):
    return [a[..., i] for i in range(a.shape[-1])]


def _stacked(comps, batch_shape):
    """Kernel output components (floats, constants or arrays) as one array."""
    out = np.empty(batch_shape + (len(comps),))
    for i, c in enumerate(comps):
        out[..., i] = c
    return out


def _assert_matches(model, t, x, w, f, g):
    """Kernel output f, g at state x and noise w against drift(t, x) and
    diffusion(t, x) @ w, to 1e-13 relative to |f| and to |sigma| |w|: the
    cross-product and the matrix forms of sigma dW round differently."""
    f, g = _stacked(f, x.shape[:-1]), _stacked(g, x.shape[:-1])
    drift = model.drift(t, x)
    sig = model.diffusion(t, x)
    ref = np.einsum("...il,...l->...i", sig, w)
    g_scale = np.max(np.abs(sig), axis=(-2, -1)) * np.max(np.abs(w), axis=-1) + 1e-300
    f_scale = np.max(np.abs(drift), axis=-1) + 1e-300
    assert np.all(np.max(np.abs(g - ref), axis=-1) <= 1e-13 * g_scale)
    assert np.all(np.max(np.abs(f - drift), axis=-1) <= 1e-13 * f_scale)


def test_every_catalog_model_has_a_kernel():
    names = {name for name, _ in [*STOCHASTIC.values(), *DETERMINISTIC.values()]}
    assert names == set(CATALOG)
    for key in [*STOCHASTIC, *DETERMINISTIC]:
        assert _model(key).kernel is not None


@pytest.mark.parametrize("key", sorted(DETERMINISTIC))
@given(data=st.data())
def test_deterministic_kernel_drift_equals_the_array_drift(key, data):
    """ODE and RODE kernels give the array drift bit for bit: both evaluate
    the same component terms, on (4,) arrays and on floats."""
    model = _model(key)
    x = data.draw(arrays(np.float64, (4, 3), elements=st.floats(-3.0, 3.0)))
    t = data.draw(st.floats(0.0, 5.0))
    eta = data.draw(arrays(np.float64, (4, model.eta_dim), elements=st.floats(0.1, 3.0)))
    rode = model.interpretation == "rode"

    def drift(x, eta):
        if not rode:
            return model.drift(t, x)
        return model.drift(t, x, eta[..., 0] if model.eta_dim == 1 else eta)

    f, _ = model.kernel(t, _components(x), _components(eta))
    assert np.array_equal(_stacked(f, (4,)), drift(x, eta))
    for xj, ej in zip(x, eta):
        f, _ = model.kernel(t, xj.tolist(), ej.tolist())
        assert all(type(c) is float for c in f)
        assert np.array_equal(np.array(f), drift(xj, ej))


@pytest.mark.parametrize("key", sorted({**STOCHASTIC, **CONVERTED}))
@given(data=st.data())
def test_kernel_matches_matrix_fields_on_arrays_and_floats(key, data):
    model = _model(key)
    x = data.draw(arrays(np.float64, (4, model.n), elements=st.floats(-3.0, 3.0)))
    w = data.draw(arrays(np.float64, (4, model.noise_dim), elements=st.floats(-1.0, 1.0)))
    t = data.draw(st.floats(0.0, 5.0))
    f, g = model.kernel(t, _components(x), _components(w))
    _assert_matches(model, t, x, w, f, g)
    for xj, wj in zip(x, w):
        f, g = model.kernel(t, xj.tolist(), wj.tolist())
        assert all(type(c) is float for c in list(f) + list(g))
        _assert_matches(model, t, xj, wj, f, g)


@pytest.mark.parametrize("key", sorted(STOCHASTIC))
def test_wong_zakai_correction_matches_finite_differences(key):
    # every catalog sigma is at most quadratic in x, so central differences
    # are exact at any step but for rounding, about 1e-16 |sigma| / step;
    # the Ito entries are read as Stratonovich to convert them
    model = replace(_model(key), interpretation="stratonovich")
    x = np.random.default_rng(2).normal(size=model.n)
    t, step = 0.7, 2.0**-8
    sig = model.diffusion(t, x)
    expect = np.zeros(model.n)
    for j in range(model.n):
        e = np.zeros(model.n)
        e[j] = step
        dsig = (model.diffusion(t, x + e) - model.diffusion(t, x - e)) / (2 * step)
        expect += 0.5 * dsig @ sig[j]
    correction = dict(strat_to_ito(model).drift_terms)["wong-zakai"](t, x)
    assert np.allclose(correction, expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("key", sorted({**STOCHASTIC, **DETERMINISTIC}))
@given(data=st.data())
def test_kernel_runs_on_complex_components(key, data):
    """A kernel of +, -, * and constants evaluates on a complex step
    x + i delta e_j, and the real part equals the float evaluation bit for
    bit up to the sign of a zero (complex products subtract an underflowed
    +-0): the property that strat_to_ito's Wong-Zakai correction relies on.

    The whole kernel is checked on Python complex, one path; the noise
    action also on complex (4,) arrays, as the correction runs it.
    numpy divides complex arrays by multiplying with a reciprocal, so an
    array drift that divides by a function of t (the Etore rescaling) rounds
    otherwise there."""
    model = _model(key)
    l = model.eta_dim if model.interpretation == "rode" else model.noise_dim
    x = data.draw(arrays(np.float64, (4, model.n), elements=st.floats(-3.0, 3.0)))
    w = data.draw(arrays(np.float64, (4, l), elements=st.floats(0.1, 3.0)))
    t = data.draw(st.floats(0.0, 5.0))
    j = data.draw(st.integers(0, model.n - 1))

    def stepped(xs):
        xs = list(xs)
        xs[j] = xs[j] + complex(0.0, _DELTA)
        return xs

    def real(comps, batch_shape):
        return _stacked([np.real(c) for c in comps], batch_shape)

    f, g = model.kernel(t, x[0].tolist(), w[0].tolist())
    fc, gc = model.kernel(t, stepped(x[0].tolist()), w[0].tolist())
    assert np.array_equal(real(fc, ()), real(f, ()))
    assert np.array_equal(real(gc, ()), real(g, ()))
    _, g = model.kernel(t, _components(x), _components(w))
    _, gc = model.kernel(t, stepped(_components(x)), _components(w))
    assert np.array_equal(real(gc, (4,)), real(g, (4,)))


def _noise(model, n_steps, batch, seed):
    """Start states, per-path noise rows and the grid: N increments of
    noise_dim components, N+1 eta samples of eta_dim components for a RODE
    model, N empty rows for an ODE model."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(batch, model.n))
    if model.interpretation == "rode":
        noise = rng.uniform(0.5, 2.0, size=(n_steps + 1, batch, model.eta_dim))
    else:
        noise = rng.normal(0.0, 0.1, size=(n_steps, batch, model.noise_dim))
    return x0, noise, np.arange(n_steps + 1) * 0.01


def _alone(model, scheme, x0, times, noise):
    """One path through integrate_path, from its (rows, l) noise."""
    if model.interpretation == "ode":
        return integrate_path(model, x0, scheme, grid=times).states
    if model.interpretation == "rode":
        eta = ParameterProcess(times=times, values=noise[:, 0] if noise.shape[1] == 1 else noise)
        return integrate_path(model, x0, scheme, eta=eta).states
    path = NoisePath(times=times, increments=noise, seed=0, level=0)
    return integrate_path(model, x0, scheme, path=path).states


@pytest.mark.parametrize("key", sorted({**STOCHASTIC, **DETERMINISTIC, **CONVERTED}))
def test_one_path_alone_equals_the_same_path_in_a_batch(key):
    model = _model(key)
    x0, noise, times = _noise(model, 60, 5, seed=len(key))
    for scheme in [s for s, interp in SCHEMES.items() if interp == model.interpretation]:
        together = _scheme_states(model, scheme, x0, times, noise)
        for j in range(5):
            alone = _alone(model, scheme, x0[j], times, noise[:, j, :])
            assert np.array_equal(alone, together[:, j, :])
        terminal = _scheme_states(model, scheme, x0[2], times, noise[:, 2, :], record=False)
        assert np.array_equal(terminal, together[-1, 2, :])


@pytest.mark.parametrize("interpretation,scheme",
                         [("stratonovich", "heun"), ("ito", "euler_maruyama")])
def test_two_path_simulate_is_byte_identical_at_one_and_two_threads(
        tmp_path, interpretation, scheme):
    # --threads changes nothing: both runs step the two paths on arrays.  A
    # path stepped alone on floats is checked against the batch by
    # test_one_path_alone_equals_the_same_path_in_a_batch and the abort replay
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "version": 1, "seed": 3, "T": 0.2, "h": 1e-3, "n_paths": 2, "x0": "sphere",
        "scheme": scheme, "functionals": ["norm2", "align"],
        "model": {"name": "ell", "params": {"interpretation": interpretation,
                                            "eps": 0.5, "alpha": 1.0}},
    }))
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--threads", str(threads)]) == 0
        outs.append((out / "ensemble.csv").read_bytes())
    assert outs[0] == outs[1]
