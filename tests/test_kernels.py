"""Component-form kernels: agreement with the matrix fields, the Wong-Zakai
correction taken from the noise action, evaluation on complex components,
bitwise equality of the one-path float stepping with the batched array
stepping, under every scheme and on the Ito conversions, and the fuser's
compiled loops: bit for bit the advance functions as written, which a
kernel the trace cannot follow steps through, for catalog entries and for
drawn kernels.  One path steps sub-blocks of the compiled path loop, a
batch, recorded or terminal-only, each sub-block in the compiled block;
their states, aborts and warnings are those of the per-step loop, and only
an operation that no output reads is evaluated by the advance as written
alone."""
import math
import operator
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stochlab import integrate
from stochlab.analyze import (
    check_symplecticity,
    empirical_convergence_order,
    stability_probability,
)
from stochlab.cli import main
from stochlab.integrate import (
    SCHEMES,
    IntegrationError,
    ModelSpec,
    _scheme_states,
    default_scheme,
    integrate_path,
    strat_to_ito,
)
from stochlab.models import CATALOG, build_model
from stochlab.noise import NoisePath, ParameterProcess, sample_brownian
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


def _schemes(model):
    return [s for s, interp in SCHEMES.items() if interp == model.interpretation]


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
    for scheme in _schemes(model):
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


# entries whose kernels the fuser cannot trace: the Etore variants take
# math.sqrt of a function of t, strat_to_ito's correction a nested complex step
UNFUSED = {"etore_invariantized", "modified_etore", *CONVERTED}

# kernel calls in one step of each scheme
CALLS = {"euler_maruyama": 1, "heun": 2, "rk4": 4, "rode_heun": 2, "rode_euler": 1}


def _as_written(scheme, kernel, n, l):
    return integrate._ADVANCE[scheme]


@pytest.mark.parametrize("key", sorted({**STOCHASTIC, **DETERMINISTIC, **CONVERTED}))
def test_fused_steps_equal_the_advance_as_written_bit_for_bit(key, monkeypatch):
    """On floats, on a complex x0 and on a batch, the fused step of every
    catalog model under every scheme of its interpretation gives the states
    of its _ADVANCE function, byte for byte."""
    model = _model(key)
    x0, noise, times = _noise(model, 40, 4, seed=len(key) + 7)
    starts = {"floats": (x0[0], noise[:, 0]), "batch": (x0, noise),
              "complex": (x0[1] + 0.5j * x0[2], noise[:, 1])}
    for scheme in _schemes(model):
        step = integrate._fused(scheme, model.kernel, model.n, noise.shape[-1])
        assert (step is integrate._ADVANCE[scheme]) == (key in UNFUSED)
        fused = {case: _scheme_states(model, scheme, x, times, w) for case, (x, w) in starts.items()}
        with monkeypatch.context() as m:
            m.setattr(integrate, "_fused", _as_written)
            for case, (x, w) in starts.items():
                written = _scheme_states(model, scheme, x, times, w)
                assert fused[case].dtype == written.dtype, case
                assert fused[case].tobytes() == written.tobytes(), case


@pytest.mark.parametrize("key", sorted(set({**STOCHASTIC, **DETERMINISTIC}) - UNFUSED))
def test_a_fused_kernel_is_called_while_tracing_only(key):
    """The kernel runs once per call of one step, on traced operands, and
    never per step: a catalog model that silently stopped fusing fails."""
    model = _model(key)
    calls = []

    def spy(t, xs, ws):
        calls.append(t)
        return model.kernel(t, xs, ws)

    spied = replace(model, kernel=spy)
    x0, noise, times = _noise(model, 30, 3, seed=1)
    for scheme in _schemes(model):
        calls.clear()
        for _ in range(2):
            _scheme_states(spied, scheme, x0, times, noise)
            _scheme_states(spied, scheme, x0[0], times, noise[:, 0])
        assert len(calls) == CALLS[scheme]
        assert all(type(t) is integrate._Traced for t in calls)


def _noise_action(t, xs, ws):
    return [0.3 * x * ws[0] for x in xs]


def _branching(t, xs, ws):
    return [-x if x > 0.0 else 2.0 * x for x in xs], _noise_action(t, xs, ws)


def _comparing(t, xs, ws):
    return [x * (0.5 if x == xs[0] else -1.0) for x in xs], _noise_action(t, xs, ws)


def _absolute(t, xs, ws):
    return [-abs(x) for x in xs], _noise_action(t, xs, ws)


def _sqrt_of_t(t, xs, ws):
    s = math.sqrt(1.0 + t)
    return [-x / s for x in xs], _noise_action(t, xs, ws)


@pytest.mark.parametrize("interpretation", ["ito", "stratonovich"])
@pytest.mark.parametrize("kernel", [_branching, _comparing, _absolute, _sqrt_of_t])
def test_a_kernel_the_trace_cannot_follow_steps_as_written(kernel, interpretation, monkeypatch):
    """A kernel that branches on or compares a state, calls abs() or takes
    math.sqrt of t is not fused; it gives the states of its advance as
    written, on paths that take either branch."""
    model = ModelSpec(n=2, noise_dim=1, interpretation=interpretation, kernel=kernel)
    scheme = default_scheme(model)
    assert integrate._fused(scheme, kernel, 2, 1) is integrate._ADVANCE[scheme]
    rng = np.random.default_rng(3)
    x0 = np.array([[0.5, -0.7], [-0.2, 0.9], [1.1, 1.1]])
    noise, times = rng.normal(0.0, 0.1, size=(30, 3, 1)), np.arange(31) * 0.01
    runs = [(x0[j], noise[:, j]) for j in range(3)]
    if kernel in (_absolute, _sqrt_of_t):  # no branch on a state: batches step too
        runs.append((x0, noise))
    got = [_scheme_states(model, scheme, x, times, w) for x, w in runs]
    monkeypatch.setattr(integrate, "_fused", _as_written)
    for states, (x, w) in zip(got, runs):
        assert states.tobytes() == _scheme_states(model, scheme, x, times, w).tobytes()


def _decaying(t, xs, ws):
    return [-x for x in xs], [0.3 * x for x in xs]


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_each_advance_returns_each_state_component_plus_terms(scheme):
    """Each advance returns x + ... + ... for each state component x, so a
    component that turns inf or nan stays non-finite at every later step:
    why a batch's compiled loop checks its last row only."""
    ops = []
    xs = [integrate._Traced(ops, f"x{i}") for i in range(2)]
    out = integrate._ADVANCE[scheme](
        _decaying, integrate._Traced(ops, "t"), integrate._Traced(ops, "h"), xs,
        lambda j: [integrate._Traced(ops, f"w{j}_0")], 0)
    made = {target: (symbol, args) for target, symbol, args in ops}
    for x, v in zip(xs, out):
        while v.name in made:  # down the first operands of a left-associated sum
            symbol, args = made[v.name]
            assert symbol == "+" and len(args) == 2
            v = args[0]
        assert v is x


def _spy_checks(monkeypatch):
    """A list that grows by one entry per call of integrate._check_finite."""
    calls, check = [], integrate._check_finite

    def spy(*args):
        calls.append(args[1])
        return check(*args)
    monkeypatch.setattr(integrate, "_check_finite", spy)
    return calls


def _compiled_loop_case(key, record, monkeypatch):
    """A float64 batch of a fused entry steps in the compiled sub-block loop,
    with no per-step finite check, and a complex batch as written, one check
    a step; each gives the states (record) or the terminal state of the
    per-step loop on its _ADVANCE function byte for byte: on a batch, a
    complex batch, noise shared by the batch ((rows, l)) and two batch axes.
    RODE steps read eta rows k and k + 1; rk4 reads no noise."""
    model = _model(key)
    x0, noise, times = _noise(model, 40, 4, seed=len(key) + 11)
    starts = {"batch": (x0, noise), "complex": (x0 + 0.5j * x0[::-1], noise),
              "shared": (x0, noise[:, 0]),
              "two_axes": (x0.reshape(2, 2, -1), noise.reshape(len(noise), 2, 2, -1))}
    checks = _spy_checks(monkeypatch)
    for scheme in _schemes(model):
        step = integrate._fused(scheme, model.kernel, model.n, noise.shape[-1])
        assert hasattr(step, "block") == (key not in UNFUSED)
        assert key in UNFUSED or step.block() is step.block()  # compiled once
        fused = {}
        for case, (x, w) in starts.items():
            checks.clear()
            fused[case] = _scheme_states(model, scheme, x, times, w, record)
            compiled = hasattr(step, "block") and case != "complex"
            assert len(checks) == (0 if compiled else 40), case
        with monkeypatch.context() as m:
            m.setattr(integrate, "_fused", _as_written)
            for case, (x, w) in starts.items():
                written = _scheme_states(model, scheme, x, times, w, record)
                assert fused[case].shape == written.shape, case
                assert fused[case].dtype == written.dtype, case
                assert fused[case].tobytes() == written.tobytes(), case


@pytest.mark.parametrize("key", sorted({**STOCHASTIC, **DETERMINISTIC, **CONVERTED}))
def test_a_recorded_batch_steps_in_one_compiled_loop_bit_for_bit(key, monkeypatch):
    _compiled_loop_case(key, True, monkeypatch)


@pytest.mark.parametrize("key", sorted({**STOCHASTIC, **DETERMINISTIC, **CONVERTED}))
def test_a_terminal_only_batch_steps_in_one_compiled_loop_bit_for_bit(key, monkeypatch):
    """The same as a recorded batch, through the two ping-pong rows that a
    run keeping only its terminal state steps into."""
    _compiled_loop_case(key, False, monkeypatch)


def test_the_complex_step_of_check_symplecticity_stays_in_the_path_loop(monkeypatch):
    """check_symplecticity steps one complex path per column of the flow
    Jacobian: on kubo/Heun it makes no per-step finite check, and its
    defect is that of the advance as written, bit for bit."""
    model = build_model("kubo", a=1.0, sigma=0.5)
    path = sample_brownian(21, 1.0, 2.0**-8, dims=1)
    checks = _spy_checks(monkeypatch)
    defect = check_symplecticity(model, "heun", [1.0, 0.0], h=2.0**-8, T=1.0, path=path)
    assert checks == []
    monkeypatch.setattr(integrate, "_fused", _as_written)
    assert defect == check_symplecticity(model, "heun", [1.0, 0.0], h=2.0**-8, T=1.0, path=path)
    assert len(checks) == 2 * 256


def _complex_gain(t, xs, ws):
    return [(0.5 + 0.25j) * x for x in xs], _noise_action(t, xs, ws)


def test_a_constant_the_state_dtype_cannot_hold_steps_as_written(monkeypatch):
    """A complex constant makes complex states, so the kernel gets no batch
    loop: from a complex start one path steps in its compiled loop and a
    batch as written, one finite check a step, both giving the states of the
    per-step loop byte for byte; from a float start, whose rows cannot hold
    them, both raise TypeError, fused and as written, recorded or not."""
    model = ModelSpec(n=2, noise_dim=1, interpretation="ito", kernel=_complex_gain)
    advance = integrate._fused("euler_maruyama", _complex_gain, 2, 1)
    assert hasattr(advance, "path") and not hasattr(advance, "block")
    x0, noise, times = _noise(model, 30, 3, seed=2)
    starts = {"path": (x0[0], noise[:, 0]), "batch": (x0, noise)}
    runs = {(case, record): (x, w, record)
            for case, (x, w) in starts.items() for record in (True, False)}

    def step(x, w, record):
        return _scheme_states(model, "euler_maruyama", x, times, w, record)

    def float_starts_raise():  # whatever the caller's filter for numpy's ComplexWarning
        for run in runs.values():
            with warnings.catch_warnings(), pytest.raises(TypeError):
                warnings.simplefilter("ignore")
                step(*run)

    checks = _spy_checks(monkeypatch)
    fused = {key: step(x + 0j, w, record) for key, (x, w, record) in runs.items()}
    assert checks == list(range(30)) * 2  # the batch, recorded and terminal-only
    float_starts_raise()
    monkeypatch.setattr(integrate, "_fused", _as_written)
    float_starts_raise()
    for key, (x, w, record) in runs.items():
        written = step(x + 0j, w, record)
        assert fused[key].dtype == written.dtype == complex, key
        assert fused[key].tobytes() == written.tobytes(), key


def _numpy_complex_gain(t, xs, ws):
    return [np.complex128(0.5 + 0.25j) * x for x in xs], _noise_action(t, xs, ws)


def test_a_numpy_complex_constant_raises_type_error_from_a_real_start(monkeypatch):
    """numpy casts a numpy complex scalar into real rows with no more than a
    ComplexWarning; from a float start, one path and a batch, recorded and
    terminal-only, fused and as written, raise TypeError before writing the
    complex states it makes, and warn nothing under an "always" filter."""
    model = ModelSpec(n=2, noise_dim=1, interpretation="ito", kernel=_numpy_complex_gain)
    assert hasattr(integrate._fused("euler_maruyama", _numpy_complex_gain, 2, 1), "path")
    x0, noise, times = _noise(model, 30, 3, seed=2)
    runs = [(x, w, record) for x, w in ((x0[0], noise[:, 0]), (x0, noise))
            for record in (True, False)]

    def float_starts_raise():
        for x, w, record in runs:
            with warnings.catch_warnings(record=True) as caught, pytest.raises(TypeError):
                warnings.simplefilter("always")
                _scheme_states(model, "euler_maruyama", x, times, w, record)
            assert caught == [], (x.shape, record)

    float_starts_raise()
    monkeypatch.setattr(integrate, "_fused", _as_written)
    float_starts_raise()


def _divides_by_zero(t, xs, ws):
    # abs() stops the trace; 1 / 0 warns, and 1 / inf keeps the state finite
    return [1.0 / (1.0 / (abs(x) * 0.0)) - x for x in xs], _noise_action(t, xs, ws)


def test_a_default_action_warning_is_shown_once_over_calls():
    """Stepping leaves the warning filters and registries alone, so a
    warning under Python's default action, shown once per source line, is
    shown once over three runs of a kernel that steps as written."""
    model = ModelSpec(n=2, noise_dim=1, interpretation="ito", kernel=_divides_by_zero)
    assert not hasattr(integrate._fused("euler_maruyama", _divides_by_zero, 2, 1), "path")
    x0, noise, times = _noise(model, 3, 4, seed=8)
    with warnings.catch_warnings(record=True) as caught, np.errstate(divide="warn"):
        warnings.simplefilter("default")
        for _ in range(3):
            _scheme_states(model, "euler_maruyama", x0, times, noise)
    assert [str(w.message) for w in caught] == ["divide by zero encountered in divide"]


def _reciprocal(t, xs, ws):
    # x * x overflows from |x| = 1.4e154 on, where 1 / inf = 0 keeps the
    # step finite; 1e3 * x overflows, and the state with it, from 1.8e305 on
    return [1e3 * x + 1.0 / (x * x) for x in xs], _noise_action(t, xs, ws)


def _silent_inf(t, xs, ws):
    # s is a Python float, inf from t = 1.8 on, so s * 0.0 is nan without
    # a floating-point flag, and so is every state from then on
    s = t * 1e300 * 1e8
    return [x * (s * 0.0 - 1.0) for x in xs], _noise_action(t, xs, ws)


def _abort_setup(case):
    """Model, starts, grid and noise of a batch that goes non-finite inside
    a sub-block: where scalar_linear (a = 100) overflows, where a kernel
    divides by a state, and where a Python float makes inf with no
    floating-point flag, which only the check of the last state sees."""
    model = {"overflow": build_model("scalar_linear", a=100.0, b_scalar=0.5),
             "reciprocal": ModelSpec(n=2, noise_dim=1, interpretation="ito", kernel=_reciprocal),
             "silent_inf": ModelSpec(n=2, noise_dim=1, interpretation="ito", kernel=_silent_inf),
             }[case]
    x0, times = {"overflow": ([[1.0], [1e300], [1e250]], np.arange(61) * 0.01),
                 "reciprocal": ([[1.0, 2.0], [1e150, -3.0], [1e100, 0.5]], np.arange(201) * 0.01),
                 "silent_inf": ([[1.0, 2.0], [-0.5, 3.0]], np.arange(31) * 0.1)}[case]
    x0 = np.array(x0)
    noise = np.random.default_rng(5).normal(0.0, 0.1, size=(len(times) - 1, len(x0), 1))
    assert hasattr(integrate._fused("euler_maruyama", model.kernel, model.n, 1), "block")
    return model, x0, times, noise


def _abort(model, x0, times, noise, record):
    """The IntegrationError (message, step, time, path index, states) of
    stepping x0 under Euler-Maruyama, and the warnings on the way."""
    with warnings.catch_warnings(record=True) as caught, \
            np.errstate(over="warn", invalid="warn"), pytest.raises(IntegrationError) as info:
        warnings.simplefilter("always")
        _scheme_states(model, "euler_maruyama", x0, times, noise, record)
    err = info.value
    states = None if err.states is None else (err.states.shape, err.states.tobytes())
    return ((str(err), err.step, err.time, err.path_index, states),
            [(w.category, str(w.message)) for w in caught])


def _abort_case(case, record, monkeypatch):
    """A batch that goes non-finite inside a sub-block raises the same
    IntegrationError with the same warnings as the per-step loop."""
    model, x0, times, noise = _abort_setup(case)
    got, got_warnings = _abort(model, x0, times, noise, record)
    monkeypatch.setattr(integrate, "_fused", _as_written)
    assert (got, got_warnings) == _abort(model, x0, times, noise, record)
    assert 0 < got[1] < len(times) - 2  # mid-sub-block
    assert got[3] == (0 if case == "silent_inf" else 1)
    assert (got[4] is None) == (not record)
    assert bool(got_warnings) == (case != "silent_inf")
    if case == "reciprocal":  # the steps 1 / inf keeps finite warn before the abort
        assert len(got_warnings) > 100


@pytest.mark.parametrize("case", ["overflow", "reciprocal", "silent_inf"])
def test_an_abort_and_its_warnings_equal_the_per_step_loops(case, monkeypatch):
    _abort_case(case, True, monkeypatch)


@pytest.mark.parametrize("case", ["overflow", "reciprocal", "silent_inf"])
def test_a_terminal_only_abort_and_its_warnings_equal_the_per_step_loops(case, monkeypatch):
    _abort_case(case, False, monkeypatch)


def test_a_terminal_only_replay_names_x0_as_the_last_finite_state():
    """The compiled ping-pong steps over row 0, so a replay starts by
    writing x0 there again: a terminal-only batch that turns non-finite at
    step 0, seen only after three compiled steps, names x0 in its abort."""
    model = build_model("scalar_linear", a=1.0, b_scalar=1.0)
    assert hasattr(integrate._fused("euler_maruyama", model.kernel, 1, 1), "block")
    noise = np.full((3, 2, 1), 0.1)
    noise[0, 0, 0] = np.inf
    with pytest.raises(IntegrationError) as info:
        _scheme_states(model, "euler_maruyama", np.ones((2, 1)), np.arange(4) * 0.1, noise,
                       record=False)
    assert (info.value.step, info.value.path_index, info.value.states) == (0, 0, None)
    assert str(info.value).endswith("path index 0, last finite state [1]")


def test_a_finite_recorded_run_checks_no_step_unless_underflow_is_watched(monkeypatch):
    """A stability pass shaped like the stability_tall workload, smaller,
    steps without one per-step finite check; under np.errstate(under="warn")
    it checks every step, and estimates the same."""
    model = build_model("scalar_linear", a=-1.0, b_scalar=1.0)
    checks = _spy_checks(monkeypatch)

    def estimate():
        return stability_probability(model, x0_radius=0.01, delta=0.03, T=2.0, n_paths=200,
                                     seed=0, h=1e-3)

    fast = estimate()
    assert checks == []
    with np.errstate(under="warn"):
        assert estimate() == fast
    assert checks == list(range(2000))


def test_a_convergence_study_checks_no_step_unless_underflow_is_watched(monkeypatch):
    """A Kubo/Heun refinement study, stepped terminal-only piece by piece,
    makes no per-step finite check; under np.errstate(under="warn") it makes
    one a step of every run (levels 0, 1, 2 and the oracle's 4), and
    estimates the same bit for bit."""
    model = build_model("kubo", a=1.3, sigma=0.5)
    checks = _spy_checks(monkeypatch)

    def estimate():
        est = empirical_convergence_order(model, [1.0, 0.0], "heun", "finest_refinement",
                                          levels=3, n_paths=50, seed=4, T=0.25, h0=2.0**-4,
                                          oracle_gap=2)
        return est.errors.tobytes(), est.slope, est.half_width

    fast = estimate()
    assert checks == []
    with np.errstate(under="warn"):
        assert estimate() == fast
    assert sorted(checks) == sorted(k for level in (0, 1, 2, 4) for k in range(4 * 2**level))


@pytest.mark.parametrize("key", sorted({**STOCHASTIC, **DETERMINISTIC}))
def test_one_path_steps_sub_blocks_of_the_compiled_loop_bit_for_bit(key, monkeypatch):
    """A path of 2.5 sub-blocks of every catalog entry, whose RODE steps
    read eta row k + 1 across each sub-block edge, gives the states and the
    terminal state of its advance as written byte for byte, with no
    per-step finite check where it fuses."""
    model = _model(key)
    x0, noise, times = _noise(model, 5 * integrate._PATH_STEPS // 2, 1, seed=len(key) + 3)
    x0, noise, times = x0[0], 0.1 * noise[:, 0], times / 10  # finite to the end
    checks = _spy_checks(monkeypatch)
    for scheme in _schemes(model):
        checks.clear()
        fused = _scheme_states(model, scheme, x0, times, noise)
        terminal = _scheme_states(model, scheme, x0, times, noise, record=False)
        assert (checks == []) == (key not in UNFUSED)
        with monkeypatch.context() as m:
            m.setattr(integrate, "_fused", _as_written)
            written = _scheme_states(model, scheme, x0, times, noise)
        assert fused.tobytes() == written.tobytes()
        assert terminal.tobytes() == written[-1].tobytes()


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("case", ["overflow", "reciprocal", "silent_inf"])
def test_a_one_path_abort_and_its_warnings_equal_the_per_step_loops(case, record, monkeypatch):
    """The failing path of each abort case, stepped alone on Python floats
    in sub-blocks of 16 steps, raises the IntegrationError of the per-step
    loop past its first sub-block, with the same (no) warnings."""
    model, x0, times, noise = _abort_setup(case)
    p = 0 if case == "silent_inf" else 1
    monkeypatch.setattr(integrate, "_PATH_STEPS", 16)
    got = _abort(model, x0[p], times, noise[:, p], record)
    monkeypatch.setattr(integrate, "_fused", _as_written)
    assert got == _abort(model, x0[p], times, noise[:, p], record)
    assert 16 < got[0][1] < len(times) - 2 and got[0][3] is None


def _dividing(gain):
    def kernel(t, xs, ws):
        return [gain * x - x / (t - 2.0) for x in xs], _noise_action(t, xs, ws)
    return kernel


@pytest.mark.parametrize("gain,error", [(0.5, ZeroDivisionError), (1e200, IntegrationError)])
def test_a_one_path_zero_division_is_raised_at_the_step_of_the_per_step_loop(
        gain, error, monkeypatch):
    """A kernel that divides by t - 2 raises ZeroDivisionError at step 16
    (t = 2), in the middle of a sub-block, with the rows up to that step
    recorded as the per-step loop records them; where the state turned
    non-finite before (gain 1e200), the per-step loop's IntegrationError
    comes instead."""
    model = ModelSpec(n=2, noise_dim=1, interpretation="ito", kernel=_dividing(gain))
    times = np.arange(41) * 0.125
    noise = np.random.default_rng(6).normal(0.0, 0.1, size=(40, 1))
    monkeypatch.setattr(integrate, "_PATH_STEPS", 6)

    def run():
        out = np.empty((41, 2))
        with pytest.raises(error) as info:
            _scheme_states(model, "euler_maruyama", np.array([1.0, -0.5]), times, noise, out=out)
        err = info.value
        if error is ZeroDivisionError:
            return out[:17].tobytes()
        return str(err), err.step, err.states.tobytes()

    got = run()
    monkeypatch.setattr(integrate, "_fused", _as_written)
    assert got == run()
    assert error is ZeroDivisionError or got[1] == 1


def _dead_division(t, xs, ws):
    _ = t / 0.0  # no output reads it
    return [-x for x in xs], _noise_action(t, xs, ws)


def test_a_dead_operation_is_evaluated_as_written_only(monkeypatch):
    """t / 0.0, which no output reads, raises ZeroDivisionError at the first
    step of the advance as written (t is a Python float), and never in the
    compiled loops, which drop it: one path and a batch run on."""
    model = ModelSpec(n=2, noise_dim=1, interpretation="ito", kernel=_dead_division)
    x0, noise, times = _noise(model, 20, 3, seed=4)
    runs = [(x0[0], noise[:, 0]), (x0, noise)]
    for x, w in runs:
        assert np.isfinite(_scheme_states(model, "euler_maruyama", x, times, w)).all()
    monkeypatch.setattr(integrate, "_fused", _as_written)
    for x, w in runs:
        with pytest.raises(ZeroDivisionError):
            _scheme_states(model, "euler_maruyama", x, times, w)


def _noise_quotient(t, xs, ws):
    return [0.5 * x for x in xs], [w / (w + 3.0) for w in ws]


def test_batches_off_float64_step_as_written_bit_for_bit(monkeypatch):
    """EM with f = 0.5 x and g = w / (w + 3.0), 1000 paths x 4 steps: g
    reads the noise alone, so the advance as written divides real arrays on
    complex states, not complex ones, and float32 arrays on float32 noise,
    which numpy rounds otherwise.  The batch loop is compiled for float64
    states on float64 noise only, so a complex batch and a batch on float32
    noise step as written, one finite check a step."""
    model = ModelSpec(n=1, noise_dim=1, interpretation="ito", kernel=_noise_quotient)
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(1000, 1))
    noise, times = rng.normal(0.0, 0.1, size=(4, 1000, 1)), np.arange(5) * 0.01
    starts = {"complex": (x0 + 1j * rng.normal(size=(1000, 1)), noise),
              "float32_noise": (x0, noise.astype(np.float32))}
    checks = _spy_checks(monkeypatch)
    fused = {}
    for case, (x, w) in starts.items():
        checks.clear()
        fused[case] = _scheme_states(model, "euler_maruyama", x, times, w)
        assert checks == [0, 1, 2, 3], case
    monkeypatch.setattr(integrate, "_fused", _as_written)
    for case, (x, w) in starts.items():
        written = _scheme_states(model, "euler_maruyama", x, times, w)
        assert fused[case].tobytes() == written.tobytes(), case


# constants a drawn kernel reads: signed zeros, the ends of the float range,
# ints and complex numbers
_CONSTANTS = (0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 0.5, -1.75, 2, -3, 1.5j, 0.25 - 2j)
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@st.composite
def _drawn_kernels(draw):
    """(n, l, constants, ops, f, g) of a straight-line kernel of n state and
    l noise components: ops are (symbol, operands) over the names t, x<i>,
    w<i>, c<i> (constant i) and v<k> (the value of op k), "neg" the unary
    minus, and f and g name the n components of each output."""
    n, l = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    consts = draw(st.lists(st.sampled_from(_CONSTANTS), min_size=1, max_size=3))
    names = ["t", *(f"x{i}" for i in range(n)), *(f"w{i}" for i in range(l)),
             *(f"c{i}" for i in range(len(consts)))]
    ops = []
    for k in range(draw(st.integers(1, 16))):
        symbol = draw(st.sampled_from([*_BINARY, "neg"]))
        operand = st.sampled_from(names)
        if ops:  # half of the operands are values of ops, for chains of them
            operand = st.sampled_from([f"v{i}" for i in range(k)]) | operand
        ops.append((symbol, [draw(operand) for _ in range(1 + (symbol != "neg"))]))
        names.append(f"v{k}")
    outputs = st.lists(st.sampled_from(names), min_size=n, max_size=n)
    return n, l, consts, ops, draw(outputs), draw(outputs)


def _kernel_of(drawn, stochastic):
    """The drawn kernel, evaluating only the ops that the outputs a scheme
    reads (g for ito and stratonovich schemes only) read, so that it has
    no dead operations; an ODE step, which passes no noise, reads 0.75."""
    n, l, consts, ops, f, g = drawn
    needed = set(f + g if stochastic else f)
    for k in reversed(range(len(ops))):
        if f"v{k}" in needed:
            needed.update(ops[k][1])

    def kernel(t, xs, ws):
        vals = {"t": t, **{f"x{i}": x for i, x in enumerate(xs)},
                **{f"w{i}": ws[i] if len(ws) else 0.75 for i in range(l)},
                **{f"c{i}": c for i, c in enumerate(consts)}}
        for k, (symbol, args) in enumerate(ops):
            if f"v{k}" in needed:
                a = [vals[v] for v in args]
                vals[f"v{k}"] = -a[0] if symbol == "neg" else _BINARY[symbol](*a)
        return [vals[v] for v in f], [vals[v] for v in g] if stochastic else None
    return kernel


def _outcome(run):
    """What run() gave under the CLI's errstate: the states' dtype, shape
    and bytes, the IntegrationError, or the type of another exception."""
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore")
        try:
            got = run()
        except IntegrationError as err:
            states = None if err.states is None else (err.states.dtype, err.states.tobytes())
            return "abort", str(err), err.step, err.time, err.path_index, states
        except Exception as err:  # noqa: BLE001 - its type is the outcome
            return "raised", type(err)
    return "stepped", got.dtype, got.shape, got.tobytes()


@settings(max_examples=80)
@given(drawn=_drawn_kernels(), seed=st.integers(0, 2**16))
def test_drawn_kernels_step_as_their_advance_as_written(drawn, seed):
    """A differential test of the fuser: each drawn kernel, under every
    scheme, on one path of floats and of complex numbers, a batch, a
    complex batch and a batch sharing (rows, l) noise, recorded and
    terminal-only, in sub-blocks of 4 steps for one path, gives what
    stepping _ADVANCE[scheme] as written gives: the states bit for bit, the
    same IntegrationError, or an exception of the same type."""
    n, l = drawn[:2]
    rng = np.random.default_rng(seed)
    x0 = np.where(rng.random((8, n)) < 0.2, 0.0, rng.normal(size=(8, n)))
    noise = np.where(rng.random((11, 8, l)) < 0.2, 0.0, rng.normal(0.0, 0.5, size=(11, 8, l)))
    times = np.arange(11) * 0.25
    with pytest.MonkeyPatch.context() as m:
        m.setattr(integrate, "_PATH_STEPS", 4)
        for scheme, interpretation in SCHEMES.items():
            stochastic = interpretation in ("ito", "stratonovich")
            model = ModelSpec(n=n, noise_dim=l, interpretation=interpretation,
                              kernel=_kernel_of(drawn, stochastic))
            w = (noise[:10] if stochastic else noise if interpretation == "rode"
                 else np.empty((10, 8, 0)))
            cases = {"floats": (x0[0], w[:, 0]), "complex": (x0[0] + 0.5j * x0[1], w[:, 1]),
                     "batch": (x0, w), "complex_batch": (x0 + 0.5j * x0[::-1], w),
                     "shared": (x0, w[:, 0])}
            for record in (True, False):
                for case, (x, ws) in cases.items():
                    def run():
                        return _scheme_states(model, scheme, x, times, ws, record)
                    got = _outcome(run)
                    with pytest.MonkeyPatch.context() as written:
                        written.setattr(integrate, "_fused", _as_written)
                        assert got == _outcome(run), (scheme, case, record)
