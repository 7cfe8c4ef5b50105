"""Integrator, conversion, generator, and ensemble tests."""

import re
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stochlab import integrate, noise
from stochlab.analyze import (
    check_invariance,
    equilibrium_attraction,
    fibonacci_sphere,
    stability_probability,
    uniform_sphere_sampler,
)
from stochlab.integrate import (
    SCHEMES,
    IntegrationError,
    ModelSpec,
    apply_generator,
    default_scheme,
    integrate_path,
    run_ensemble,
    strat_to_ito,
    validate_model,
)
from stochlab.models import build_model, kubo_exact, scalar_linear_exact
from stochlab.noise import (
    DOMAIN_ENSEMBLE,
    DOMAIN_SAMPLER,
    NoisePath,
    ParameterProcess,
    _philox,
    iterated_log_eta,
    philox_keys,
    sample_brownian,
    stream,
    write_csv,
)
from stochlab.vecalg import ScalarField, norm_squared_field, sphere_field


def _decay_ode(n=1, rate=1.0):
    return ModelSpec(
        n=n, noise_dim=0, interpretation="ode",
        kernel=lambda t, xs, ws: ([-rate * x for x in xs], ()),
        name="decay",
    )


def _identity(t, xs, ws):
    return list(xs), [x * w for x, w in zip(xs, ws)]


def test_model_spec_validation():
    with pytest.raises(TypeError, match="kernel"):
        ModelSpec(n=1, noise_dim=0, interpretation="ode", drift=lambda t, x: x)
    with pytest.raises(ValueError):
        ModelSpec(n=1, noise_dim=0, interpretation="quantum", kernel=_identity)
    with pytest.raises(ValueError):
        ModelSpec(n=1, noise_dim=0, interpretation="ode",
                  kernel=_identity, diffusion=lambda t, x: x[..., None])


def test_validate_model_detects_shape_mismatch():
    bad = ModelSpec(n=2, noise_dim=1, interpretation="ito",
                    kernel=lambda t, xs, ws: ([0.0] * 2, [0.0] * 3))
    with pytest.raises(ValueError, match="3 noise"):
        validate_model(bad)
    with pytest.raises(ValueError, match="x has 3 components"):
        validate_model(_decay_ode(n=2), x=np.ones(3))


def test_validate_model_probes_ode_and_rode_kernels():
    for interpretation in ("ode", "rode"):
        bad = ModelSpec(n=2, noise_dim=0, interpretation=interpretation,
                        kernel=lambda t, xs, ws: ([0.0] * 3, ()))
        with pytest.raises(ValueError, match="3 drift"):
            validate_model(bad)


def test_replacing_the_kernel_derives_drift_and_diffusion_again():
    model = build_model("kubo", a=1.0, sigma=0.5)
    fast = replace(model, kernel=lambda t, xs, ws: (
        [-2.0 * xs[1], 2.0 * xs[0]], [-3.0 * xs[1] * ws[0], 3.0 * xs[0] * ws[0]]))
    x = np.array([0.5, -0.25])
    assert fast.drift(0.0, x).tolist() == [0.5, 1.0]
    assert fast.diffusion(0.0, x).tolist() == [[0.75], [1.5]]
    assert model.drift(0.0, x).tolist() == [0.25, 0.5]


def test_an_explicit_drift_and_diffusion_are_kept():
    model = build_model("kubo", a=1.0, sigma=0.5)
    drift, diffusion = (lambda t, x: np.zeros(2)), (lambda t, x: np.ones((2, 1)))
    given = replace(model, drift=drift, diffusion=diffusion)
    assert given.drift is drift and given.diffusion is diffusion
    assert replace(given, name="again").drift is drift
    # the kernel still steps the model
    path = sample_brownian(3, T=0.1, h=0.01)
    assert np.array_equal(integrate_path(given, [1.0, 0.0], "heun", path=path).states,
                          integrate_path(model, [1.0, 0.0], "heun", path=path).states)
    # the Ito model's drift is its own kernel's, with the correction
    ito = strat_to_ito(given)
    assert ito.drift(0.0, np.array([0.4, -0.2])) == pytest.approx([0.15, 0.425], abs=1e-15)
    assert ito.diffusion is diffusion


def test_write_csv_uses_17_significant_digits(tmp_path, load_csv):
    dest = tmp_path / "x.csv"
    write_csv(str(dest), "a,b", [[1.0 / 3.0], [2.0]], comment="probe")
    text = dest.read_text()
    assert "0.33333333333333331" in text
    assert text.startswith("# probe\n")
    comments, names, data = load_csv(str(dest))
    assert names == ["a", "b"]
    assert data[0, 0] == 1.0 / 3.0  # round-trips exactly at 17 digits
    # text cells verbatim, int cells exactly, bool cells as 1 and 0
    write_csv(str(dest), "name,value,passed", [["drift:a", "x"], [0.001, 0.1], [1, 0]])
    assert dest.read_text() == "name,value,passed\ndrift:a,0.001,1\nx,0.10000000000000001,0\n"


def _per_value_cell(v):
    if isinstance(v, str):
        return v
    return f"{v:d}" if type(v) is int else f"{v:.17g}"  # a bool is no int here


def _per_value_csv(file, header, columns, comment=None):
    """The former write_csv, one f-string a value (ints exactly): the
    reference for its bytes."""
    rows = zip(*(np.asarray(c).tolist() for c in columns), strict=True)
    with open(file, "w", newline="") as fh:
        if comment:
            for line in comment.rstrip("\n").split("\n"):
                fh.write(f"# {line}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_per_value_cell, row)) + "\n")


_EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072009e-308,
                1.7976931348623157e308, -1.7976931348623157e308, float(2**53 + 1), 1.0 / 3.0]
_CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                     max_size=6)


def _csv_column(kind, n_rows):
    if kind == "text":
        return st.lists(_CELL_TEXT, min_size=n_rows, max_size=n_rows)
    if kind == "float":
        return arrays(np.float64, n_rows, elements=st.floats() | st.sampled_from(_EDGE_FLOATS))
    return arrays(kind, n_rows)


def _same_text_as_per_value(dest, columns, comment):
    header = ",".join(f"c{j}" for j in range(len(columns)))
    write_csv(dest / "new.csv", header, columns, comment=comment)
    _per_value_csv(dest / "old.csv", header, columns, comment=comment)
    assert (dest / "new.csv").read_bytes() == (dest / "old.csv").read_bytes()


@given(data=st.data())
def test_write_csv_writes_the_text_of_the_per_value_formula(tmp_path_factory, data):
    n_rows = data.draw(st.integers(0, 6))
    kinds = data.draw(st.lists(st.sampled_from(
        ["float", np.float32, np.int64, np.uint64, np.int8, np.bool_, "text"]), max_size=4))
    columns = [data.draw(_csv_column(kind, n_rows)) for kind in kinds]
    comment = data.draw(st.none() | _CELL_TEXT)
    _same_text_as_per_value(tmp_path_factory.mktemp("csv"), columns, comment)


def test_write_csv_edge_values_match_the_per_value_formula(tmp_path):
    n = 2 * 1024 + 3  # rows are formatted 1024 at a time
    columns = [np.resize(_EDGE_FLOATS, n), np.arange(n) - 5, np.arange(n) % 2 == 0,
               [2**63 - 1] * n, ["x,y"] * n, np.random.default_rng(1).standard_normal(n)]
    _same_text_as_per_value(tmp_path, columns, "two\nlines\n")
    lines = (tmp_path / "new.csv").read_text().splitlines()
    assert len(lines) == 3 + n
    # ints are written exactly, beyond the 17 digits of the float format
    assert lines[3].startswith("0,-5,1,9223372036854775807,x,y,")


def test_write_csv_of_no_rows_or_no_columns(tmp_path):
    dest = tmp_path / "x.csv"
    write_csv(dest, "a,b", [np.empty(0), []], comment="seed=1\nrun=2")
    assert dest.read_text() == "# seed=1\n# run=2\na,b\n"
    write_csv(dest, "", [])
    assert dest.read_text() == "\n"


@pytest.mark.parametrize("columns, message", [
    ([[1.0, 2.0, 3.0], [1.0]], "got column 0: 3 x float64, column 1: 1 x float64"),
    ([[1.0], [1 + 2j]], "got column 0: 1 x float64, column 1: 1 x complex128"),
])
def test_write_csv_rejects_bad_columns_before_opening_the_file(tmp_path, columns, message):
    dest = tmp_path / "x.csv"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_csv(dest, "a,b", columns)
    assert not dest.exists()


def test_euler_maruyama_tracks_closed_form():
    model = build_model("scalar_linear", a=-1.0, b_scalar=1.0)
    path = sample_brownian(42, T=1.0, h=2.0**-10)
    traj = integrate_path(model, [1.0], "euler_maruyama", path=path)
    exact = scalar_linear_exact(-1.0, 1.0, 1.0, path.times, path.cumulative()[:, 0])
    assert traj.states.shape == (path.n_steps + 1, 1)
    assert abs(traj.states[-1, 0] - exact[-1]) < 5e-3


def test_heun_tracks_kubo_closed_form():
    model = build_model("kubo", a=1.0, sigma=0.5)
    path = sample_brownian(7, T=1.0, h=2.0**-8)
    traj = integrate_path(model, [1.0, 0.0], "heun", path=path)
    exact = kubo_exact(1.0, 0.5, [1.0, 0.0], path.times, path.cumulative()[:, 0])
    assert np.max(np.abs(traj.states[-1] - exact[-1])) < 1e-3


def test_rk4_order_on_exponential_decay():
    model = _decay_ode()
    grid = np.arange(101) * 0.01
    traj = integrate_path(model, [1.0], "rk4", grid=grid)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-8


def test_scheme_interpretation_guards():
    ito = build_model("scalar_linear", a=-1.0, b_scalar=1.0)
    strat = build_model("kubo")
    path = sample_brownian(1, T=1.0, h=0.25)
    with pytest.raises(ValueError):
        integrate_path(ito, [1.0], "heun", path=path)
    with pytest.raises(ValueError):
        integrate_path(strat, [1.0, 0.0], "euler_maruyama", path=path)
    with pytest.raises(ValueError):
        integrate_path(strat, [1.0, 0.0], "rk4", grid=path.times)


def test_path_dimension_guard():
    model = build_model("ell", interpretation="ito")  # needs 3 channels
    path = sample_brownian(1, T=1.0, h=0.25, dims=1)
    with pytest.raises(ValueError):
        integrate_path(model, [0.0, 0.6, 0.8], "euler_maruyama", path=path)


def test_strat_to_ito_adds_correction_term():
    strat = build_model("kubo", a=1.0, sigma=0.5)
    ito = strat_to_ito(strat)
    assert ito.interpretation == "ito"
    assert ito.name == "kubo_ito"
    names = [name for name, _ in ito.drift_terms]
    assert names[-1] == "wong-zakai"
    # correction for the kubo column is -sigma^2/2 x
    x = np.array([0.4, -0.2])
    corr = dict(ito.drift_terms)["wong-zakai"](0.0, x)
    assert np.allclose(corr, -0.125 * x, atol=1e-15)


def test_strat_to_ito_rejects_a_diffusion_that_drops_the_imaginary_part():
    # the correction is a complex step on sigma dW, which a cast to float loses
    model = ModelSpec(
        n=1, noise_dim=1, interpretation="stratonovich",
        kernel=lambda t, xs, ws: ([-x for x in xs],
                                  list(0.5 * np.asarray(xs, dtype=float) * ws[0])),
    )
    with pytest.raises(ValueError, match="imaginary part"):
        strat_to_ito(model)


@pytest.mark.parametrize("x", [1e-130, 1e-200, 1e-300])
def test_strat_to_ito_keeps_corrections_of_tiny_states(x):
    # dx = 0.5 x o dW: the correction 0.125 x is exact, one path and batched,
    # because the complex step goes along sigma scaled to a power of two near
    # its size; along sigma itself, delta * sigma * d sigma underflowed
    strat = replace(build_model("scalar_linear", a=0.0, b_scalar=0.5),
                    interpretation="stratonovich")
    ito = strat_to_ito(strat)
    assert ito.kernel(0.0, [x], [0.0])[0] == [0.125 * x]
    batch = dict(ito.drift_terms)["wong-zakai"](0.0, np.array([[x], [-2.0 * x], [0.0]]))
    assert batch[:, 0].tolist() == [0.125 * x, -0.25 * x, 0.0]


def test_strat_to_ito_is_identity_for_additive_noise():
    # constant diffusion has zero jacobian, so the correction vanishes
    model = ModelSpec(
        n=2, noise_dim=1, interpretation="stratonovich",
        kernel=lambda t, xs, ws: ([-x for x in xs], [0.3 * ws[0], 0.1 * ws[0]]),
    )
    ito = strat_to_ito(model)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=2)
        assert np.allclose(ito.drift(0.0, x), model.drift(0.0, x), atol=1e-15)


def test_apply_generator_scalar_linear_identity():
    model = build_model("scalar_linear", a=-0.7, b_scalar=0.4)
    V = norm_squared_field()
    for x in (0.3, -1.7, 2.5):
        lv = apply_generator(model, V, 0.0, np.array([x]))
        expected = (2.0 * -0.7 + 0.4**2) * x * x
        assert lv == pytest.approx(expected, rel=1e-13)


def test_apply_generator_requires_ito_and_derives_the_hessian():
    strat = build_model("kubo")
    with pytest.raises(ValueError, match="ito model"):
        apply_generator(strat, norm_squared_field(), 0.0, np.array([1.0, 0.0]))
    # V = 3 x + 3/2 x^2, stated by its value alone: L V = (3 + 3 x) a x
    # + 3/2 b^2 x^2, which is -16.5 at x = 2
    ito = build_model("scalar_linear", a=-1.0, b_scalar=0.5)
    V = ScalarField(value=lambda x: 3.0 * x[..., 0] + 1.5 * x[..., 0] * x[..., 0])
    assert apply_generator(ito, V, 0.0, np.array([2.0])) == pytest.approx(-16.5, rel=1e-15)


def test_integrate_path_dispatch_and_defaults():
    path = sample_brownian(3, T=1.0, h=2.0**-6)
    ito = build_model("scalar_linear", a=-1.0, b_scalar=1.0)
    strat = build_model("kubo")
    ode = build_model("ll")
    assert default_scheme(ito) == "euler_maruyama"
    assert default_scheme(strat) == "heun"
    assert default_scheme(ode) == "rk4"
    assert default_scheme(build_model("rode_ll")) == "rode_heun"
    with pytest.raises(ValueError):
        integrate_path(ito, [1.0], "heun", path=path)
    with pytest.raises(ValueError):
        integrate_path(ode, [0.0, 0.6, 0.8], "rk4")  # no grid given
    with pytest.raises(ValueError, match="scheme 'rk4' reads grid=, not path="):
        integrate_path(ode, [0.0, 0.6, 0.8], "rk4", path=path)  # nor the times of a path


# entry point -> the model it is called on
_MODELS = {"euler_maruyama": ("ell", {"interpretation": "ito"}),
           "heun": ("ell", {"interpretation": "stratonovich"}), "rk4": ("ll", {}),
           "rode_heun": ("rode_ll", {}), "rode_euler": ("rode_ll", {}),
           "check_invariance": ("ell", {"interpretation": "stratonovich"})}


@pytest.mark.parametrize("entry, given, unread", [
    ("euler_maruyama", ("path", "grid"), "grid"), ("euler_maruyama", ("path", "eta"), "eta"),
    ("heun", ("path", "grid"), "grid"), ("heun", ("path", "eta"), "eta"),
    ("rk4", ("grid", "path"), "path"), ("rk4", ("grid", "eta"), "eta"),
    ("rode_heun", ("eta", "path"), "path"), ("rode_heun", ("eta", "grid"), "grid"),
    ("rode_euler", ("eta", "path"), "path"), ("rode_euler", ("eta", "grid"), "grid"),
    ("check_invariance", ("eta_samples",), "eta_samples"),
])
def test_a_keyword_the_inputs_make_unread_raises(entry, given, unread):
    name, params = _MODELS[entry]
    model = build_model(name, **params)
    path = sample_brownian(1, T=0.1, h=0.01, dims=3)
    eta = ParameterProcess(path.times, np.ones(len(path.times)))
    keywords = {"path": path, "grid": path.times, "eta": eta, "eta_samples": eta}
    if entry == "check_invariance":
        call = partial(check_invariance, model, sphere_field(), fibonacci_sphere(8), 1e-9)
    else:
        call = partial(integrate_path, model, [0.6, 0.0, 0.8], entry)
    call(**{key: keywords[key] for key in given if key != unread})
    with pytest.raises(ValueError, match=f"not {unread}="):
        call(**{key: keywords[key] for key in given})


def test_solve_rode_constant_eta_reduces_to_ode():
    rode = build_model("rode_ll")
    times = np.arange(201) * 0.01
    eta = ParameterProcess(times, np.ones(len(times)))
    traj = integrate_path(rode, [0.6, 0.0, 0.8], "rode_heun", eta=eta)
    ll = build_model("ll")
    ref = integrate_path(ll, [0.6, 0.0, 0.8], "rk4", grid=times)
    assert np.max(np.abs(traj.states[-1] - ref.states[-1])) < 1e-3


def test_solve_rode_euler_is_coarser_than_heun():
    rode = build_model("rode_ll")
    times = np.arange(101) * 0.01
    eta = ParameterProcess(times, np.ones(len(times)))
    ll = build_model("ll")
    ref = integrate_path(ll, [0.6, 0.0, 0.8], "rk4", grid=times).states[-1]
    heun_err = np.max(np.abs(
        integrate_path(rode, [0.6, 0.0, 0.8], "rode_heun", eta=eta).states[-1] - ref))
    euler_err = np.max(np.abs(
        integrate_path(rode, [0.6, 0.0, 0.8], "rode_euler", eta=eta).states[-1] - ref))
    assert heun_err < euler_err / 5.0


def test_grid_validation():
    model = build_model("scalar_linear", a=-1.0, b_scalar=1.0)
    with pytest.raises(ValueError):
        run_ensemble(model, [1.0], "euler_maruyama", 4, 1, (), T=0.0, h=0.1)
    with pytest.raises(ValueError):
        run_ensemble(model, [1.0], "euler_maruyama", 4, 1, (), T=1.0, h=2.0)
    with pytest.raises(ValueError):
        run_ensemble(model, [1.0], "euler_maruyama", 0, 1, (), T=1.0, h=0.1)
    with pytest.raises(ValueError):
        run_ensemble(model, [1.0], "rk4", 4, 1, (), T=1.0, h=0.1)


@pytest.mark.parametrize("return_states", [False, True])
def test_run_ensemble_and_integrate_path_reject_a_state_of_the_wrong_length(return_states):
    kubo = build_model("kubo")
    with pytest.raises(ValueError, match="x0 has 3 components, kubo needs 2"):
        run_ensemble(kubo, [1.0, 0.0, 0.0], "heun", 4, 1, (), T=1.0, h=0.1,
                     return_states=return_states)
    with pytest.raises(ValueError, match="x0 has 3 components, kubo needs 2"):
        run_ensemble(kubo, lambda k, rng: rng.normal(size=3), "heun", 4, 1, (), T=1.0,
                     h=0.1, return_states=return_states)
    with pytest.raises(ValueError, match="x0 has 3 components, kubo needs 2"):
        integrate_path(kubo, [1.0, 0.0, 0.0], "heun", path=sample_brownian(1, 1.0, 0.1))


def test_run_ensemble_and_integrate_path_reject_a_non_finite_start():
    model = build_model("scalar_linear", a=-1.0, b_scalar=1.0)

    def start(k, rng):
        return np.array([np.nan if k == 1 else 1.0])

    with pytest.raises(ValueError, match=r"start of path index 1 is not finite: \[nan\]"):
        run_ensemble(model, start, "euler_maruyama", 4, 1, (), T=1.0, h=0.1)
    with pytest.raises(ValueError, match=r"x0 must be finite, got \[inf\]"):
        integrate_path(model, [np.inf], "euler_maruyama", path=sample_brownian(1, 1.0, 0.1))


def test_run_ensemble_statistics_match_states():
    model = build_model("ell", interpretation="ito")
    F = norm_squared_field()
    stats, states = run_ensemble(
        model, [0.0, 0.6, 0.8], "euler_maruyama", 16, 5, [F], T=0.5, h=0.01,
        return_states=True,
    )
    assert states.shape == (16, 51, 3)
    vals = np.sum(states**2, axis=2)  # (paths, N+1)
    assert np.allclose(stats.mean[0], vals.mean(axis=0), atol=1e-12)
    assert np.allclose(stats.variance[0], vals.var(axis=0), atol=1e-12)
    assert stats.functional_names == ("norm2",)
    assert stats.n_paths == 16


def test_run_ensemble_rerun_is_bitwise_identical():
    model = build_model("rode_ll")
    kw = dict(T=1.0, h=0.01, return_states=True)
    _, s1 = run_ensemble(model, [0.6, 0.0, 0.8], "rode_heun", 6, 9, (), **kw)
    _, s2 = run_ensemble(model, [0.6, 0.0, 0.8], "rode_heun", 6, 9, (), **kw)
    assert np.array_equal(s1, s2)


def test_run_ensemble_sampler_draws_per_path_starts():
    model = build_model("ell", interpretation="ito")

    def sampler(k, rng):
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    _, states = run_ensemble(model, sampler, "euler_maruyama", 8, 3, (),
                             T=0.05, h=0.01, return_states=True)
    starts = states[:, 0, :]
    assert np.allclose(np.linalg.norm(starts, axis=1), 1.0, atol=1e-12)
    # distinct paths get distinct draws from their own streams
    assert np.unique(np.round(starts, 12), axis=0).shape[0] == 8


def test_integration_error_carries_diagnostics():
    model = build_model("scalar_linear", a=100.0, b_scalar=0.0)
    with pytest.raises(IntegrationError) as info, np.errstate(over="ignore"):
        run_ensemble(model, [1.0], "euler_maruyama", 2, 1, (), T=20.0, h=0.01)
    err = info.value
    assert err.step is not None
    assert err.path_index is not None
    assert "non-finite" in str(err)


@pytest.mark.parametrize("block_steps,sub_steps", [(1, None), (2, None), (4, None), (7, 1), (7, 3)],
                         ids=["1", "2", "4", "7-1", "7-3"])
@pytest.mark.parametrize("starts,failing", [
    ({3: np.nan}, 3),                 # non-finite start: rejected before any step
    ({5: np.nan, 7: np.nan}, 5),      # the same, in the second of two path ranges
    ({3: 1e300, 6: 1e304}, 6),        # both overflow; path 6 does so first
], ids=["nan_start", "nan_start_last_range", "earliest_overflow"])
@pytest.mark.parametrize("threads", [1, 2])
def test_ensemble_abort_reports_the_global_path_and_its_states(monkeypatch, two_cpus,
                                                               block_steps, sub_steps,
                                                               starts, failing, threads):
    """The abort is found across time blocks of 1, 2 or 4 steps for 8 paths,
    and across sub-blocks of 1 or 3 steps in blocks of 7, in one process or
    in two ranges of 4 paths; the failing path's replay alone steps in
    blocks 8 times as long. A non-finite start is rejected, under its path
    index, before any block."""
    model = build_model("scalar_linear", a=100.0, b_scalar=0.0)
    monkeypatch.setattr(noise, "_BLOCK_VALUES", block_steps * 8)
    if sub_steps:
        monkeypatch.setattr(integrate, "_STEP_VALUES", sub_steps * 8)

    def start(k, rng):
        return np.array([starts.get(k, 1.0)])

    if not np.isfinite(starts[failing]):
        with pytest.raises(ValueError,
                           match=rf"start of path index {failing} is not finite: \[nan\]"):
            run_ensemble(model, start, "euler_maruyama", 8, 1, (), T=1.0, h=0.01,
                         threads=threads)
        return
    with pytest.raises(IntegrationError) as info, \
            np.errstate(over="ignore", invalid="ignore"):
        run_ensemble(model, start, "euler_maruyama", 8, 1, (), T=1.0, h=0.01, threads=threads)
    err = info.value
    assert err.path_index == failing
    assert f"path index {failing}" in str(err)
    assert err.states.shape == (err.step + 2, 1)
    assert np.array_equal(err.states[0], [starts[failing]])
    assert not np.isfinite(err.states[-1, 0])
    assert np.all(np.isfinite(err.states[1:-1]))


@pytest.mark.parametrize("block_steps,sub_steps", [
    (1, None), (2, None), (7, 1), (7, 3),
    (10, 3),  # the abort, at step 14, falls inside the second sub-block of [10, 20)
], ids=["1", "2", "7-1", "7-3", "10-3"])
@pytest.mark.parametrize("threads", [1, 2])
def test_streamed_abort_matches_a_recorded_run(monkeypatch, two_cpus, block_steps, sub_steps,
                                               threads):
    model = build_model("scalar_linear", a=100.0, b_scalar=0.0)

    def start(k, rng):
        return np.array([{3: 1e300, 6: 1e304}.get(k, 1.0)])

    def abort(return_states, threads=threads):
        with pytest.raises(IntegrationError) as info, \
                np.errstate(over="ignore", invalid="ignore"):
            run_ensemble(model, start, "euler_maruyama", 8, 1, (), T=1.0, h=0.01,
                         return_states=return_states, threads=threads)
        return info.value

    recorded = abort(True, 1)
    monkeypatch.setattr(noise, "_BLOCK_VALUES", block_steps * 8)
    if sub_steps:
        monkeypatch.setattr(integrate, "_STEP_VALUES", sub_steps * 8)
    streamed = abort(False)
    assert recorded.path_index == streamed.path_index == 6
    assert streamed.step == recorded.step > 5
    assert streamed.time == recorded.time
    assert str(streamed) == str(recorded)
    assert np.array_equal(streamed.states, recorded.states, equal_nan=True)
    assert streamed.states.shape == (streamed.step + 2, 1)


@pytest.mark.parametrize("block_steps,sub_steps", [(1, None), (7, None), (7, 1), (7, 3)],
                         ids=["1", "7", "7-1", "7-3"])
@pytest.mark.parametrize("name,params,scheme", [
    ("ell", {"interpretation": "ito"}, "euler_maruyama"),
    ("ell", {"interpretation": "stratonovich"}, "heun"),
    ("ll", {}, "rk4"),
    ("rode_ll", {}, "rode_heun"),
])
def test_time_blocks_do_not_change_any_bit(monkeypatch, block_steps, sub_steps, name, params,
                                          scheme):
    """50 steps in blocks of 1 or 7 steps, the latter also stepped in
    sub-blocks of 1 or 3 steps, against one block, on 6 paths."""
    model = build_model(name, **params)
    e3 = np.array([0.0, 0.0, 1.0])
    kw = dict(T=0.5, h=0.01)

    def outputs():
        stats, states = run_ensemble(model, uniform_sphere_sampler, scheme, 6, 4,
                                     [norm_squared_field()], return_states=True, **kw)
        stab = stability_probability(model, 1.0, 1.0 + 1e-6, n_paths=6, seed=4,
                                     scheme=scheme, **kw)
        attr = equilibrium_attraction(model, e3, 1.0, n_paths=6, x0=uniform_sphere_sampler,
                                      seed=4, scheme=scheme, **kw)
        return stats, states, stab.n_exceed, attr.n_attracted

    stats, states, n_exceed, n_attracted = outputs()
    # a RODE path draws one noise value a step, an ell path three
    width = 1 if model.interpretation == "rode" else 3
    monkeypatch.setattr(noise, "_BLOCK_VALUES", block_steps * 6 * width)
    if sub_steps:
        monkeypatch.setattr(integrate, "_STEP_VALUES", sub_steps * 6 * 3)
    b_stats, b_states, b_exceed, b_attracted = outputs()
    assert np.array_equal(b_states, states)
    assert np.array_equal(b_stats.mean, stats.mean)
    assert np.array_equal(b_stats.variance, stats.variance)
    assert (b_exceed, b_attracted) == (n_exceed, n_attracted)


def _seed_sequence_stream(seed, domain, index):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, index))
    return np.random.Generator(np.random.Philox(ss))


def test_ensemble_draws_equal_per_path_normal_draws_with_a_short_last_block(monkeypatch):
    """30 steps of 4 paths in blocks of 8 steps leave a last block of 6.  The
    noise of every block equals each path's normal(0, sd) draws from its
    SeedSequence-keyed stream, and it reaches the stepper as a view of one
    reused buffer; the initial states are the sampler's on its own streams."""
    model = build_model("ell", interpretation="ito")
    n_paths, seed, h, n_steps = 4, 5, 0.01, 30
    monkeypatch.setattr(noise, "_BLOCK_VALUES", 8 * n_paths * 3)
    seen = []
    scheme_states = integrate._scheme_states

    def spy(model, scheme, x0, times, noise, record=True, out=None, first=0):
        seen.append((noise, noise.copy()))
        return scheme_states(model, scheme, x0, times, noise, record, out, first)

    monkeypatch.setattr(integrate, "_scheme_states", spy)
    _, states = run_ensemble(model, uniform_sphere_sampler, "euler_maruyama", n_paths, seed,
                             [], T=n_steps * h, h=h, return_states=True)
    assert [len(drawn) for _, drawn in seen] == [8, 8, 8, 6]
    assert all(np.shares_memory(view, seen[0][0]) for view, _ in seen)
    drawn = np.concatenate([drawn for _, drawn in seen])
    for p in range(n_paths):
        expected = _seed_sequence_stream(seed, DOMAIN_ENSEMBLE, p).normal(
            0.0, np.sqrt(h), (n_steps, 3))
        assert np.array_equal(drawn[:, p], expected)
        x0 = uniform_sphere_sampler(p, _seed_sequence_stream(seed, DOMAIN_SAMPLER, p))
        assert np.array_equal(states[p, 0], x0)


@pytest.mark.parametrize("block_steps,pieces", [(30, 1), (16, 2)],
                         ids=["one_block", "two_blocks"])
def test_only_an_ensemble_of_more_than_one_block_builds_persistent_streams(monkeypatch,
                                                                          block_steps, pieces):
    """30 steps of 4 paths in one block are a whole level, drawn on the one
    re-keyed Philox: no persistent stream is built.  In blocks of 16 steps
    each path builds one persistent stream.  Either way every path's noise
    equals its SeedSequence-keyed stream's normal draws, bit for bit."""
    model = build_model("ell", interpretation="ito")
    n_paths, seed, h, n_steps = 4, 5, 0.01, 30
    monkeypatch.setattr(noise, "_BLOCK_VALUES", block_steps * n_paths * 3)
    built, philox = [], noise._philox

    def counted(key):
        built.append(np.array(key).tolist())
        return philox(key)

    monkeypatch.setattr(noise, "_philox", counted)
    seen = []
    scheme_states = integrate._scheme_states

    def spy(model, scheme, x0, times, increments, record=True, out=None, first=0):
        seen.append(increments.copy())
        return scheme_states(model, scheme, x0, times, increments, record, out, first)

    monkeypatch.setattr(integrate, "_scheme_states", spy)
    run_ensemble(model, [0.6, 0.0, 0.8], "euler_maruyama", n_paths, seed, [], T=n_steps * h,
                 h=h)
    persistent = philox_keys(seed, DOMAIN_ENSEMBLE, range(n_paths)).tolist()
    assert built == ([[0, 0]] if pieces == 1 else persistent)  # [0, 0]: the re-keyed Philox
    assert len(seen) == pieces
    drawn = np.concatenate(seen)
    for p in range(n_paths):
        expected = _seed_sequence_stream(seed, DOMAIN_ENSEMBLE, p).normal(
            0.0, np.sqrt(h), (n_steps, 3))
        assert np.array_equal(drawn[:, p], expected)


def test_a_wide_ensemble_holds_a_few_hundred_bytes_of_stream_state_per_path(monkeypatch):
    """3000 paths in blocks of 2 steps keep a persistent stream each.  The
    tracemalloc peak of the run, less that of the same run on one shared
    stream, is what the streams hold: about 385 bytes a path for a bare
    Philox, where a Generator, its Philox and a seed-sequence object of its
    own held about 800."""
    model = build_model("ell", interpretation="ito")
    n_paths, x0 = 3000, np.array([0.6, 0.0, 0.8])
    monkeypatch.setattr(noise, "_BLOCK_VALUES", 2 * n_paths * 3)
    shared, calls = _philox(philox_keys(3, DOMAIN_ENSEMBLE, 0)), []

    def one_stream(key):
        calls.append(None)
        return shared

    def peak(philox):
        monkeypatch.setattr(noise, "_philox", philox)
        run_ensemble(model, x0, "euler_maruyama", n_paths, 3, [], T=0.05, h=0.01)  # warm up
        calls.clear()
        tracemalloc.start()
        try:
            run_ensemble(model, x0, "euler_maruyama", n_paths, 3, [], T=0.05, h=0.01)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    held = peak(_philox) - peak(one_stream)
    assert len(calls) == n_paths
    assert 100 * n_paths < held < 500 * n_paths


def test_sub_blocks_are_stepped_through_one_buffer_per_chunk(monkeypatch):
    """30 steps of 4 paths in draw blocks of 7 steps, stepped in sub-blocks
    of 3: every sub-block is recorded into the one buffer, and the observers
    see every row once, in order, at most 3 rows at a time."""
    model = build_model("ell", interpretation="ito")
    n_paths = 4
    monkeypatch.setattr(noise, "_BLOCK_VALUES", 7 * n_paths * 3)
    monkeypatch.setattr(integrate, "_STEP_VALUES", 3 * n_paths * 3)
    outs = []
    scheme_states = integrate._scheme_states

    def spy(model, scheme, x0, times, noise, record=True, out=None, first=0):
        outs.append(out)
        return scheme_states(model, scheme, x0, times, noise, record, out, first)

    monkeypatch.setattr(integrate, "_scheme_states", spy)
    seen = []
    run_ensemble(model, uniform_sphere_sampler, "euler_maruyama", n_paths, 5, [], T=0.3,
                 h=0.01, observers=[lambda k, block: seen.append((k, len(block)))])
    assert [len(out) - 1 for out in outs] == [3, 3, 1] * 4 + [2]
    assert all(np.shares_memory(out, outs[0]) for out in outs)
    rows = [n for _, n in seen]
    assert [k for k, _ in seen] == np.cumsum([0] + rows[:-1]).tolist()
    assert sum(rows) == 31 and max(rows) <= 3


def _array_reference(model, scheme, x0, seed, times):
    """The paths of an ensemble stepped on the (paths, n) array drift,
    each RODE path driven by the whole-path eta of its own stream."""
    h, n_steps = times[1], len(times) - 1
    f = model.drift
    if model.interpretation == "rode":
        etas = np.stack([iterated_log_eta(NoisePath(
            times=times, seed=seed, level=0,
            increments=stream(seed, DOMAIN_ENSEMBLE, p).normal(0.0, np.sqrt(h), (n_steps, 1)),
        ), t_min=model.params["t_min"]).values for p in range(len(x0))], axis=1)
    x, states = x0, [x0]
    for k in range(n_steps):
        t, h = times[k], times[k + 1] - times[k]
        if scheme == "rk4":
            k1 = f(t, x)
            k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
            k4 = f(t + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        elif scheme == "rode_euler":
            x = x + h * f(t, x, etas[k])
        else:
            k1 = f(t, x, etas[k])
            x = x + 0.5 * h * (k1 + f(t + h, x + h * k1, etas[k + 1]))
        states.append(x)
    return np.swapaxes(np.array(states), 0, 1)


@pytest.mark.parametrize("name,scheme,block_steps,sub_steps", [
    ("ll", "rk4", 400, None), ("rode_ll", "rode_heun", 400, None),
    ("rode_ll", "rode_euler", 400, None),
    ("rode_ll", "rode_heun", 1, None), ("rode_ll", "rode_heun", 7, None),
    ("rode_ll", "rode_euler", 1, None), ("rode_ll", "rode_euler", 7, None),
    ("rode_ll", "rode_heun", 7, 1), ("rode_ll", "rode_heun", 7, 3),
    ("rode_ll", "rode_euler", 7, 1), ("rode_ll", "rode_euler", 7, 3),
], ids=["ll-rk4", "rode_ll-rode_heun", "rode_ll-rode_euler", "rode_ll-rode_heun-1",
        "rode_ll-rode_heun-7", "rode_ll-rode_euler-1", "rode_ll-rode_euler-7",
        "rode_ll-rode_heun-7-1", "rode_ll-rode_heun-7-3", "rode_ll-rode_euler-7-1",
        "rode_ll-rode_euler-7-3"])
def test_run_ensemble_equals_the_array_reference(monkeypatch, name, scheme, block_steps,
                                                 sub_steps):
    """Every path of a 4-path ensemble and its statistics, bit for bit, in
    time blocks of 1, 7 or all 400 steps, and in blocks of 7 stepped in
    sub-blocks of 1 or 3 steps.  The horizon passes t = 3, after which the
    eta of rode_ll varies, so a RODE run carries its driving W across block
    boundaries where eta moves, and each sub-block reads its slice of the
    block's eta rows."""
    monkeypatch.setattr(noise, "_BLOCK_VALUES", block_steps * 4 * 1)
    if sub_steps:
        monkeypatch.setattr(integrate, "_STEP_VALUES", sub_steps * 4 * 3)
    model = build_model(name, alpha=0.7)
    seed, h, n_steps = 9, 0.01, 400
    stats, states = run_ensemble(model, uniform_sphere_sampler, scheme, 4, seed,
                                 [norm_squared_field()], T=n_steps * h, h=h,
                                 return_states=True)
    expected = _array_reference(model, scheme, states[:, 0], seed, stats.times)
    assert np.array_equal(states, expected)
    norm2 = np.sum(expected * expected, axis=-1)
    assert np.array_equal(stats.mean[0], norm2.mean(axis=0))
    assert np.array_equal(stats.variance[0], norm2.var(axis=0))


def test_run_ensemble_honours_rode_euler():
    model = build_model("rode_ll")
    x0, seed, h, n_steps = np.array([0.6, 0.0, 0.8]), 9, 0.01, 400
    kw = dict(T=n_steps * h, h=h, return_states=True)
    _, heun = run_ensemble(model, x0, "rode_heun", 3, seed, (), **kw)
    _, euler = run_ensemble(model, x0, "rode_euler", 3, seed, (), **kw)
    assert not np.allclose(euler, heun, rtol=0.0, atol=1e-6)
    times = np.arange(n_steps + 1) * h
    expected = _array_reference(model, "rode_euler", np.stack([x0] * 3), seed, times)
    assert np.array_equal(euler, expected)


def test_rode_ensemble_memory_is_bounded_by_the_time_block(monkeypatch):
    """tracemalloc peak of rode_ll under rode_heun, 8 paths, h = 1e-3, in
    blocks of 2**10 values, at T = 1 and T = 4.  Built for the whole horizon
    before stepping, eta and its driving noise grew the peak from 203 to
    778 KiB.  Built per sub-block it grows from 83 to 127 KiB (from 37 to
    94 KiB when blocks were sized by the state's three components rather
    than the one noise value a step): the time grid costs 8 bytes a step,
    and making it briefly takes twice that."""
    monkeypatch.setattr(noise, "_BLOCK_VALUES", 2**10)
    model = build_model("rode_ll")

    def peak(T):
        tracemalloc.start()
        try:
            run_ensemble(model, [0.6, 0.0, 0.8], "rode_heun", 8, 3, (), T=T, h=1e-3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1.0)  # warm-up: first-call allocations are not the run's
    assert peak(4.0) - peak(1.0) < 100 * 2**10


def test_scheme_table_is_consistent():
    assert SCHEMES == {
        "euler_maruyama": "ito",
        "heun": "stratonovich",
        "rk4": "ode",
        "rode_heun": "rode",
        "rode_euler": "rode",
    }
