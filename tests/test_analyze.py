"""Persistence checker, order-estimation, and stability analysis tests."""
import dataclasses
import functools
import inspect
import math
import tracemalloc

import numpy as np
import pytest
import yaml

from stochlab import __version__, analyze, integrate, noise
from stochlab.analyze import (
    check_equilibrium,
    check_invariance,
    check_symplecticity,
    conversion_gap_decay,
    derive_seed,
    empirical_convergence_order,
    equilibrium_attraction,
    fibonacci_sphere,
    first_integral_drift,
    functional_drift_decay,
    ll_decomposition_residual,
    lyapunov_monotonicity,
    one_step_generator_check,
    sphere_minus_cap,
    stability_probability,
    uniform_sphere_sampler,
)
from stochlab.analyze import (_check_convergence, _coupled_paths, _fit_order,
                              _stability_estimator, _start_key)
from stochlab.cli import main
from stochlab.integrate import (
    IntegrationError,
    ModelSpec,
    Trajectory,
    _eta_block,
    _scheme_states,
    apply_generator,
    run_ensemble,
    strat_to_ito,
)
from stochlab.models import build_model, kubo_exact, scalar_linear_exact
from stochlab.noise import (
    DOMAIN_BASE,
    DOMAIN_ENSEMBLE,
    DOMAIN_REFINE,
    DOMAIN_SAMPLER,
    iterated_log,
    sample_brownian,
    stream,
)
from stochlab.vecalg import (ScalarField, casimir_field, norm_squared_field, quadratic_field,
                             sphere_field)

E3 = np.array([0.0, 0.0, 1.0])


def test_derive_seed_is_stable_and_separated():
    a = derive_seed(42, 1, 7)
    assert a == derive_seed(42, 1, 7)
    assert a != derive_seed(42, 1, 8)
    assert a != derive_seed(42, 2, 7)
    assert a != derive_seed(43, 1, 7)
    assert 0 <= a < 2**64
    ss = np.random.SeedSequence(entropy=42, spawn_key=(1, 7))
    assert a == int(ss.generate_state(1, np.uint64)[0])
    assert derive_seed(42, 1, np.arange(9))[7] == a


def test_fibonacci_sphere_points():
    pts = fibonacci_sphere(200)
    assert pts.shape == (200, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.linalg.norm(pts.mean(axis=0)) < 0.01
    assert np.array_equal(pts, fibonacci_sphere(200))


def test_uniform_sphere_sampler_unit_norm():
    pts = [uniform_sphere_sampler(k, stream(3, DOMAIN_SAMPLER, k)) for k in range(8)]
    pts = np.stack(pts)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.unique(np.round(pts, 10), axis=0).shape[0] == 8


def test_sphere_minus_cap_excludes_cap_and_keeps_boundary_ring():
    cap = 1e-3
    pts = sphere_minus_cap(100, E3, cap)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # chordal distance from the antipode -e3 stays outside the cap
    dist = np.linalg.norm(pts + E3, axis=1)
    assert np.all(dist > cap * 0.999)
    # and the hardest admissible starts sit just outside the boundary
    assert np.min(dist) < 1.5 * cap


def test_invariance_stratonovich_ell_is_invariant():
    model = build_model("ell", interpretation="stratonovich", eps=0.5)
    report = check_invariance(model, sphere_field(), fibonacci_sphere(100), tol=1e-9)
    assert report.verdict
    names = {c.name for c in report.conditions}
    assert names == {"drift_tangency", "diffusion_tangency"}
    assert all(c.max_residual < 1e-12 for c in report.conditions)


def test_invariance_ito_ell_fails_with_frozen_trace():
    model = build_model("ell", interpretation="ito", eps=0.1, alpha=1.0)
    report = check_invariance(model, sphere_field(), fibonacci_sphere(100), tol=1e-9)
    assert not report.verdict
    cond = {c.name: c for c in report.conditions}
    assert set(cond) == {"drift_tangency", "diffusion_tangency", "second_order_trace"}
    assert cond["drift_tangency"].passed
    # tr(sigma sigma^T) = 2 eps^2 (1 + alpha^2) on the unit sphere
    assert cond["second_order_trace"].max_residual == pytest.approx(0.04, rel=1e-9)


def test_the_checks_evaluate_the_diffusion_once_per_time():
    """check_invariance reads sigma for diffusion tangency and the Ito trace,
    and check_equilibrium for every column, from one evaluation a time."""
    model = build_model("ell", interpretation="ito", eps=0.1)
    times = []

    def diffusion(t, x):
        times.append(t)
        return model.diffusion(t, x)

    counted = dataclasses.replace(model, diffusion=diffusion)
    assert check_invariance(counted, sphere_field(), fibonacci_sphere(32), 1e-9) == \
        check_invariance(model, sphere_field(), fibonacci_sphere(32), 1e-9)
    assert times == [0.0, 0.5, 1.0]
    times.clear()
    assert check_equilibrium(counted, [0.6, 0.0, 0.8], 1e-9) == \
        check_equilibrium(model, [0.6, 0.0, 0.8], 1e-9)
    assert times == [0.0, 0.5, 1.0]


def test_invariance_trace_scales_with_amplitude():
    model = build_model("ell", interpretation="ito", eps=0.5, alpha=0.0)
    report = check_invariance(model, sphere_field(), fibonacci_sphere(64), tol=1e-9)
    cond = {c.name: c for c in report.conditions}
    assert cond["second_order_trace"].max_residual == pytest.approx(0.5, rel=1e-9)


def test_invariance_rode_covers_eta_range():
    model = build_model("rode_ll")
    report = check_invariance(model, sphere_field(), fibonacci_sphere(50), tol=1e-9,
                              eta_samples=(0.5, 1.0, 2.0))
    assert report.verdict
    assert "eta coverage" in report.notes


def test_invariance_rejects_off_manifold_samples():
    model = build_model("ell", interpretation="stratonovich")
    bad = np.array([[0.0, 0.0, 2.0]])
    with pytest.raises(ValueError):
        check_invariance(model, sphere_field(), bad, tol=1e-9)


def test_invariance_rejects_an_empty_sample():
    model = build_model("ell", interpretation="stratonovich")
    with pytest.raises(ValueError, match="m >= 1"):
        check_invariance(model, sphere_field(), np.empty((0, 3)), tol=1e-9)


def test_invariance_report_text_and_csv(tmp_path):
    model = build_model("ell", interpretation="stratonovich")
    report = check_invariance(model, sphere_field(), fibonacci_sphere(32), tol=1e-9)
    text = report.to_text()
    assert "verdict: invariant" in text
    # `stochlab check` writes the same report as its residual table
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "version": 1, "seed": 1,
        "model": {"name": "ell", "params": {"interpretation": "stratonovich"}},
        "analyses": [{"kind": "invariance", "tol": 1e-9, "samples": 32}]}))
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "invariance.csv").read_text().splitlines()
    assert lines[0] == f"# stochlab {__version__} check invariance"
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "criterion,value,passed"
    rows = [ln.split(",") for ln in body[1:]]
    assert rows == [[c.name, f"{c.max_residual:.17g}", "1"] for c in report.conditions]


def test_equilibrium_larmor_preserving_poles_persist():
    model = build_model("larmor_preserving")
    for pole in (E3, -E3):
        report = check_equilibrium(model, pole, tol=1e-12)
        assert report.verdict
        assert all(t.vanishes for t in report.drift_terms)
        assert all(c.vanishes for c in report.diffusion_columns)


def test_equilibrium_ell_pole_blocked_by_diffusion():
    model = build_model("ell", interpretation="stratonovich", eps=0.1, alpha=1.0)
    report = check_equilibrium(model, E3, tol=1e-12)
    assert not report.verdict
    assert all(t.vanishes for t in report.drift_terms)
    cols = {c.name: c for c in report.diffusion_columns}
    # eps sqrt(1 + alpha^2) for the two tangential columns, zero along b
    assert cols["column_1"].magnitude == pytest.approx(0.1 * np.sqrt(2.0), rel=1e-12)
    assert cols["column_3"].vanishes


def test_equilibrium_broadcasts_eta_samples_over_a_vector_eta():
    """rode_ll with eta = (s, s, s) has the drift of the scalar-eta model with
    b = (1, 1, 1) at eta = s, so both reports agree, on and off the axis."""
    vector = build_model("rode_ll", scalar_eta=False)
    scalar = build_model("rode_ll", b=[1.0, 1.0, 1.0])
    for point, verdict in ((np.ones(3) / np.sqrt(3.0), True), (E3, False)):
        got = check_equilibrium(vector, point, tol=1e-9)
        expected = check_equilibrium(scalar, point, tol=1e-9)
        assert got.verdict == expected.verdict == verdict
        assert [t.magnitude for t in got.drift_terms] == pytest.approx(
            [t.magnitude for t in expected.drift_terms], rel=1e-12, abs=1e-15)


def test_equilibrium_modified_etore_rescaling_reported():
    model = build_model("modified_etore")
    report = check_equilibrium(model, E3, tol=1e-12)
    terms = {t.name: t for t in report.drift_terms}
    assert terms["landau-lifshitz"].vanishes
    assert not terms["rescaling"].vanishes
    assert all(c.vanishes for c in report.diffusion_columns)
    assert not report.verdict


def test_equilibrium_rode_ll_pole_persists_across_eta():
    model = build_model("rode_ll")
    report = check_equilibrium(model, E3, tol=1e-12)
    assert report.verdict


def test_first_integral_and_monotonicity_on_synthetic_path():
    times = np.arange(4) * 1.0
    states = np.array([[1.0, 0.0], [1.1, 0.0], [0.9, 0.0], [1.0, 0.0]])
    traj = Trajectory(times=times, states=states)
    drift = first_integral_drift(traj, norm_squared_field())
    assert drift.max_drift == pytest.approx(0.21)
    assert drift.terminal_drift == pytest.approx(0.0)
    V = norm_squared_field()
    stats = lyapunov_monotonicity(traj, V, step_tol=1e-12)
    assert stats.n_steps == 3
    assert stats.n_violations == 2  # 1.0 -> 1.21 and 0.81 -> 1.0
    assert stats.max_increase == pytest.approx(0.21)
    assert lyapunov_monotonicity(traj, V, step_tol=0.5).n_violations == 0


def test_fit_order_recovers_exact_power_law():
    hs = 2.0 ** -np.arange(4, 9)
    slope, half = _fit_order(hs, 3.0 * hs**1.5)
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert half < 1e-10
    with pytest.raises(ValueError):
        _fit_order(hs, np.zeros_like(hs))


def test_empirical_convergence_order_validates_inputs():
    model = build_model("scalar_linear", a=-1.0, b_scalar=1.0)
    with pytest.raises(ValueError):
        empirical_convergence_order(model, [1.0], "euler_maruyama", "closed_form",
                                    levels=2, n_paths=10, seed=1)
    with pytest.raises(ValueError):
        empirical_convergence_order(model, [1.0], "euler_maruyama", "oracle_of_delphi",
                                    levels=3, n_paths=10, seed=1)
    with pytest.raises(ValueError):
        empirical_convergence_order(model, [1.0], "euler_maruyama", "closed_form",
                                    levels=3, n_paths=10, seed=1, closed_form=None)
    with pytest.raises(ValueError):
        empirical_convergence_order(model, [1.0], "euler_maruyama", "finest_refinement",
                                    levels=3, n_paths=0, seed=1)


def test_empirical_convergence_order_em_half():
    model = build_model("scalar_linear", a=-1.0, b_scalar=1.0)
    cf = lambda x0, t, w: scalar_linear_exact(-1.0, 1.0, x0[0], t, w)
    est = empirical_convergence_order(model, [1.0], "euler_maruyama", "closed_form",
                                      levels=3, n_paths=60, seed=2, h0=2.0**-4,
                                      closed_form=cf)
    assert 0.2 < est.slope < 0.8
    assert len(est.errors) == 3
    again = empirical_convergence_order(model, [1.0], "euler_maruyama", "closed_form",
                                        levels=3, n_paths=60, seed=2, h0=2.0**-4,
                                        closed_form=cf)
    assert again.slope == est.slope  # derived streams make the study pure


def test_empirical_convergence_order_heun_first_order_refinement_oracle():
    model = build_model("kubo")
    est = empirical_convergence_order(model, [1.0, 0.0], "heun", "finest_refinement",
                                      levels=3, n_paths=40, seed=7, h0=2.0**-5)
    assert 0.7 < est.slope < 1.4


def _per_path_coupled_paths(seed, n_paths, T, h0, dims, levels):
    """The coupled paths as built before they were stacked: each path's base
    draw and bridge refinements on SeedSequence-keyed streams, one path at a
    time, stacked per level as (increments, times)."""
    def gen(s, domain, index):
        ss = np.random.SeedSequence(entropy=s, spawn_key=(domain, index))
        return np.random.Generator(np.random.Philox(ss))

    n = math.ceil(T / h0 - 1e-9)
    families = []
    for p in range(n_paths):
        s = int(np.random.SeedSequence(entropy=seed, spawn_key=(DOMAIN_ENSEMBLE, p))
                .generate_state(1, np.uint64)[0])
        h = h0
        chain = [(gen(s, DOMAIN_BASE, 0).normal(0.0, math.sqrt(h), size=(n, dims)),
                  np.arange(n + 1) * h)]
        for level in range(levels - 1):
            parent = chain[-1][0]
            xi = gen(s, DOMAIN_REFINE, level + 1).normal(0.0, math.sqrt(h) / 2.0,
                                                         size=parent.shape)
            first = 0.5 * parent + xi
            second = parent - first
            bad = (first + second) != parent
            if np.any(bad):
                first = np.where(bad, parent - second, first)
            fine = np.empty((2 * len(parent), dims))
            fine[0::2] = first
            fine[1::2] = second
            times = np.arange(len(fine) + 1) * (h / 2.0)
            h = float(times[1] - times[0])
            chain.append((fine, times))
        families.append(chain)
    return [(np.stack([fam[lev][0] for fam in families], axis=1), families[0][lev][1])
            for lev in range(levels)]


def _levels_of(pieces):
    """The (increments, times) of each level, joined from the pieces of
    _coupled_paths (copied, since a streamed piece lives in a reused
    buffer), and the number of pieces of each level."""
    joined = {}
    for level, increments, times in pieces:
        assert level in joined or level == len(joined)  # coarsest first
        incs, ts = joined.setdefault(level, ([], []))
        assert not ts or times[0] == ts[-1][-1]  # time order, tiling the grid
        incs.append(increments.copy())
        ts.append(times if not ts else times[1:])
    return ([(np.concatenate(incs), np.concatenate(ts)) for incs, ts in joined.values()],
            [len(incs) for incs, _ in joined.values()])


@pytest.mark.parametrize("dims", [1, 2])
def test_coupled_paths_equal_the_per_path_loop_at_every_level(dims):
    seed, n_paths, T, h0, levels = 4, 5, 1.0, 2.0**-3, 4
    seeds = derive_seed(seed, DOMAIN_ENSEMBLE, np.arange(n_paths))
    expected = _per_path_coupled_paths(seed, n_paths, T, h0, dims, levels)
    got, _ = _levels_of(_coupled_paths(seeds, T, h0, dims, levels))
    assert len(got) == levels
    for (increments, times), (ref_increments, ref_times) in zip(got, expected):
        assert increments.shape == ref_increments.shape
        assert np.array_equal(increments, ref_increments)
        assert np.array_equal(times, ref_times)


# _BLOCK_VALUES for 5 paths of 8, 16, 32 and 64 steps, 40 to 320 values a
# level: how many levels come whole, and the pieces of each streamed level
_BLOCKS = {
    "whole": (2**19, [1, 1, 1, 1]),
    "3_whole_short_last_block": (225, [1, 1, 1, 2]),  # blocks of 22 and 10 level-2 steps
    "2_whole_short_last_block": (100, [1, 1, 6, 6]),  # 5 blocks of 3 level-1 steps, then 1
    "2_whole": (80, [1, 1, 8, 8]),  # blocks of 2 level-1 steps
    "1_whole_one_step_blocks": (40, [1, 8, 8, 8]),  # blocks of one level-0 step
    "none_whole_one_step_blocks": (39, [8, 8, 8, 8]),  # level 0 streams too
}


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("block", _BLOCKS, ids=list(_BLOCKS))
def test_streamed_levels_equal_the_per_path_loop(monkeypatch, block, dims):
    """Levels past _BLOCK_VALUES come in lockstep time blocks, refined on
    persistent streams, with the same bits as levels built whole; each
    streamed level's pieces reuse one buffer."""
    values, pieces = _BLOCKS[block]
    monkeypatch.setattr(noise, "_BLOCK_VALUES", values * dims)
    seed, n_paths, T, h0, levels = 4, 5, 1.0, 2.0**-3, 4
    seeds = derive_seed(seed, DOMAIN_ENSEMBLE, np.arange(n_paths))
    expected = _per_path_coupled_paths(seed, n_paths, T, h0, dims, levels)
    got, counts = _levels_of(_coupled_paths(seeds, T, h0, dims, levels))
    assert counts == pieces
    for (increments, times), (ref_increments, ref_times) in zip(got, expected):
        assert increments.tobytes() == ref_increments.tobytes()
        assert times.tobytes() == ref_times.tobytes()
    buffers = {}
    for level, increments, _ in _coupled_paths(seeds, T, h0, dims, levels):
        assert np.shares_memory(increments, buffers.setdefault(level, increments))


def _whole_level_terminal(model, scheme, x0, increments, times):
    """Terminal states of one whole refinement level stepped from x0."""
    noise = increments
    if model.interpretation == "rode":
        noise = _eta_block(model, times, np.zeros(increments.shape[1]), increments)[0]
    x0b = np.broadcast_to(x0, (increments.shape[1],) + x0.shape)
    return _scheme_states(model, scheme, x0b, times, noise, record=False)


def _kubo_cf(x0, t, w):
    return kubo_exact(1.0, 0.5, x0, t, w[:, 0])


def _linear_cf(x0, t, w):
    return scalar_linear_exact(-1.0, 1.0, x0[0], t, w)


def _path_exact(oracle, x0, increments, times):
    """Each path's terminal closed-form state on its whole finest path, as
    the closed forms were evaluated before they took terminal arguments."""
    w = [np.cumsum(increments[:, p, 0]) for p in range(increments.shape[1])]
    if oracle is _kubo_cf:
        return np.stack([kubo_exact(1.0, 0.5, x0, times[1:], wp)[-1] for wp in w])
    return np.stack([scalar_linear_exact(-1.0, 1.0, x0[0], times[1:], wp)[-1:] for wp in w])


KUBO_HALF = build_model("kubo", a=1.0, sigma=0.5)
LINEAR = build_model("scalar_linear", a=-1.0, b_scalar=1.0)
RODE_LL = build_model("rode_ll")
# name: (study, its whole-level reference from the per-path levels); 5 paths
# of 8 coarse steps and 4 levels in each (T = 4 moves the rode_ll eta)
_STUDIES = {
    "heun_finest_refinement": (
        KUBO_HALF, [1.0, 0.0], "heun", "finest_refinement", 3, 1, 1.0, None),
    "heun_closed_form": (KUBO_HALF, [1.0, 0.0], "heun", "closed_form", 4, 0, 1.0, _kubo_cf),
    "em_closed_form": (LINEAR, [1.0], "euler_maruyama", "closed_form", 4, 0, 1.0, _linear_cf),
    "rode_heun_finest_refinement": (
        RODE_LL, [0.6, 0.0, 0.8], "rode_heun", "finest_refinement", 3, 1, 4.0, None),
    "heun_functional_drift": (KUBO_HALF, [1.0, 0.0], "heun", casimir_field(), 4, 0, 1.0, None),
    "rode_heun_functional_drift": (
        RODE_LL, [0.6, 0.0, 0.8], "rode_heun", sphere_field(), 4, 0, 4.0, None),
    "conversion_gap": (KUBO_HALF, [1.0, 0.0], "heun", "gap", 4, 0, 1.0, None),
}


def _study(name, seed=9, n_paths=5):
    """The study's result, and the same figures from whole levels built
    path by path (_per_path_coupled_paths)."""
    model, x0, scheme, kind, levels, gap, T, oracle = _STUDIES[name]
    x0, h0 = np.asarray(x0), T / 8
    ref = _per_path_coupled_paths(seed, n_paths, T, h0, 1, levels + gap)
    xT = [_whole_level_terminal(model, scheme, x0, *ref[level]) for level in range(levels)]
    if kind == "gap":
        ito = strat_to_ito(model)
        got = conversion_gap_decay(model, ito, x0, levels, n_paths, seed, T=T, h0=h0).gaps
        em = [_whole_level_terminal(ito, "euler_maruyama", x0, *ref[level])
              for level in range(levels)]
        return got, [np.mean(np.linalg.norm(a - b, axis=-1)) for a, b in zip(xT, em)]
    if isinstance(kind, ScalarField):
        got = functional_drift_decay(model, x0, kind, scheme, levels, n_paths, seed, T=T,
                                     h0=h0).errors
        return got, [np.mean(np.abs(np.asarray(kind.value(x)) - float(kind.value(x0))))
                     for x in xT]
    got = empirical_convergence_order(model, x0, scheme, kind, levels, n_paths, seed, T=T,
                                      h0=h0, closed_form=oracle, oracle_gap=max(gap, 1)).errors
    exact = (_whole_level_terminal(model, scheme, x0, *ref[-1]) if gap
             else _path_exact(oracle, x0, *ref[-1]))
    return got, [np.mean(np.linalg.norm(x - exact, axis=-1)) for x in xT]


@pytest.mark.parametrize("block", _BLOCKS, ids=list(_BLOCKS))
@pytest.mark.parametrize("name", _STUDIES, ids=list(_STUDIES))
def test_streamed_studies_equal_their_whole_level_figures(monkeypatch, name, block):
    """Every refinement study, with either oracle, on SDE and RODE models,
    gives the figures of its levels stepped whole, bit for bit, at any
    blocking of its levels (see _BLOCKS)."""
    monkeypatch.setattr(noise, "_BLOCK_VALUES", _BLOCKS[block][0])
    got, expected = _study(name)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def test_a_streamed_level_aborts_at_its_own_step(monkeypatch):
    """An abort in a streamed level names the step on that level's grid,
    not in its block, as the same level stepped whole does."""
    model = build_model("scalar_linear", a=1e4, b_scalar=1.0)
    runs = [(1, model, "euler_maruyama")]

    def abort():
        with pytest.raises(IntegrationError) as info, \
                np.errstate(over="ignore", invalid="ignore"):
            analyze._coupled_terminals(runs, np.array([1.0]), 1, 4, 100.0, 1.0, 3)
        return info.value

    whole = abort()
    # level 0 (4 paths x 100 steps) whole, level 1 in pieces of 32 steps
    monkeypatch.setattr(noise, "_BLOCK_VALUES", 4 * 100)
    streamed = abort()
    assert whole.step > 32 and streamed.step == whole.step
    assert str(streamed) == str(whole)
    assert (streamed.time, streamed.path_index) == (whole.time, whole.path_index)


_STUDY_CALLS = {
    "empirical_convergence_order": lambda x0: empirical_convergence_order(
        KUBO_HALF, x0, "heun", "finest_refinement", 3, 4, 1),
    "functional_drift_decay": lambda x0: functional_drift_decay(
        KUBO_HALF, x0, casimir_field(), "heun", 3, 4, 1),
    "conversion_gap_decay": lambda x0: conversion_gap_decay(
        KUBO_HALF, strat_to_ito(KUBO_HALF), x0, 3, 4, 1),
    "check_symplecticity": lambda x0: check_symplecticity(
        KUBO_HALF, "heun", x0, 0.1, 1.0, sample_brownian(1, 1.0, 0.1)),
}


@pytest.mark.parametrize("x0", [[np.nan, 0.0], [np.inf, 0.0]], ids=["nan", "inf"])
@pytest.mark.parametrize("call", _STUDY_CALLS, ids=list(_STUDY_CALLS))
def test_a_non_finite_start_is_rejected_before_any_draw_or_step(monkeypatch, call, x0):
    """A non-finite x0 used to draw every level and then abort at step 0,
    naming a 'last finite state' that was not finite."""
    def never(*args, **kwargs):
        raise AssertionError("a path was drawn or stepped")

    for module, name in ((analyze, "_coupled_paths"), (analyze, "_scheme_states"),
                         (integrate, "_scheme_states")):
        monkeypatch.setattr(module, name, never)
    with pytest.raises(ValueError, match=r"x0 must be finite, got \[(nan|inf), 0\.0\]"):
        _STUDY_CALLS[call](x0)


@functools.lru_cache(maxsize=None)
def _convergence_study_peak(T):
    """tracemalloc peak of the Kubo/Heun study at 1000 paths, 5 levels and an
    oracle 3 halvings finer, from h0 = 1/16, over [0, T]."""
    model = build_model("kubo", a=1.0, sigma=0.5)
    tracemalloc.start()
    try:
        est = empirical_convergence_order(model, [1.0, 0.0], "heun", "finest_refinement",
                                          levels=5, n_paths=1000, seed=0, h0=2.0**-4,
                                          oracle_gap=3, T=T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(est.errors) == 5
    return peak


def test_convergence_study_memory_holds_two_levels():
    """tracemalloc peak of the Kubo/Heun study at 1000 paths, 5 levels and an
    oracle 3 halvings finer, from h0 = 1/16 (8 levels, 2048 finest steps).

    Keeping every path's refinement family and the stacked levels peaked at
    96.5 MiB, and keeping only the stacked levels at 47.8 MiB.  Refining the
    stack one level at a time peaked at 40.2 to 40.9 MiB, and streaming each
    refinement in path chunks at 26.1 to 26.8 MiB, the finest level and its
    parent.  With the levels past 2**19 values streamed in time blocks, the
    study peaks at 12.0 MiB: the last whole level (512 steps, 3.9 MiB), the
    pieces of levels 6 and 7 (4 MiB), 2000 persistent streams (1.5 MiB) and
    the refinement scratch (1.5 MiB).  The bound is 16 MiB.
    """
    assert _convergence_study_peak(1.0) < 16 * 2**20


def test_convergence_study_memory_does_not_grow_with_the_horizon():
    """The same study over [0, 4], 8192 finest steps: levels 4 to 7 stream,
    in blocks of the 512 steps of level 3, so its peak, 12.8 MiB, is within
    3 MiB of the study over [0, 1] (whole levels peaked at 96.5 MiB)."""
    assert abs(_convergence_study_peak(4.0) - _convergence_study_peak(1.0)) < 3 * 2**20


def test_a_study_whose_finest_stack_cannot_be_indexed_is_rejected():
    # 64 steps x 2**(levels + oracle_gap - 1) of one 1-dimensional path: 2**62
    # values fit np.intp, 2**63 do not; no such stack is ever made
    kubo = build_model("kubo")
    _check_convergence(kubo, "heun", "finest_refinement", 54, 1, 1.0, 2.0**-6, None, 3)
    _check_convergence(kubo, "heun", "closed_form", 57, 1, 1.0, 2.0**-6, kubo_exact, 3)
    with pytest.raises(ValueError, match="more values than an array can index"):
        _check_convergence(kubo, "heun", "finest_refinement", 55, 1, 1.0, 2.0**-6, None, 3)
    with pytest.raises(ValueError, match="more values than an array can index"):
        _check_convergence(kubo, "heun", "finest_refinement", 3, 1, 1.0, 2.0**-6, None, 10**30)
    with pytest.raises(ValueError, match="more values than an array can index"):
        functional_drift_decay(kubo, [1.0, 0.0], casimir_field(), "heun", levels=58,
                               n_paths=1, seed=0, h0=2.0**-6)


def test_functional_drift_decay_kubo_energy():
    model = build_model("kubo")
    H0 = casimir_field()
    est = functional_drift_decay(model, [1.0, 0.0], H0, "heun",
                                 levels=3, n_paths=60, seed=13, T=1.0, h0=2.0**-5)
    assert est.slope > 0.7


def test_convergence_studies_reject_a_scheme_of_another_interpretation():
    kubo = build_model("kubo")
    with pytest.raises(ValueError, match="integrates ito models"):
        empirical_convergence_order(kubo, [1.0, 0.0], "euler_maruyama",
                                    "finest_refinement", levels=3, n_paths=4, seed=7)
    with pytest.raises(ValueError, match="integrates ito models"):
        functional_drift_decay(kubo, [1.0, 0.0], casimir_field(), "euler_maruyama",
                               levels=3, n_paths=4, seed=13)
    with pytest.raises(ValueError, match="unknown scheme"):
        empirical_convergence_order(kubo, [1.0, 0.0], "leapfrog",
                                    "finest_refinement", levels=3, n_paths=4, seed=7)


def test_convergence_studies_reject_a_rode_model_without_an_eta_builder():
    model = build_model("rode_ll", scalar_eta=False)
    with pytest.raises(ValueError, match="eta_builder"):
        empirical_convergence_order(model, [0.6, 0.0, 0.8], "rode_heun",
                                    "finest_refinement", levels=3, n_paths=4, seed=7)
    with pytest.raises(ValueError, match="eta_builder"):
        functional_drift_decay(model, [0.6, 0.0, 0.8], sphere_field(), "rode_heun",
                               levels=3, n_paths=4, seed=7)


def test_rode_studies_and_ensembles_check_the_built_eta_dimension():
    # a scalar eta builder on the vector-eta model: every caller of the one
    # eta helper raises, instead of stepping on the wrong number of components
    model = dataclasses.replace(build_model("rode_ll", scalar_eta=False),
                                eta_builder=iterated_log)
    with pytest.raises(ValueError, match="needs 3"):
        empirical_convergence_order(model, [0.6, 0.0, 0.8], "rode_heun",
                                    "finest_refinement", levels=3, n_paths=4, seed=7)
    with pytest.raises(ValueError, match="needs 3"):
        functional_drift_decay(model, [0.6, 0.0, 0.8], sphere_field(), "rode_heun",
                               levels=3, n_paths=4, seed=7)
    with pytest.raises(ValueError, match="needs 3"):
        run_ensemble(model, np.array([0.6, 0.0, 0.8]), "rode_heun", 4, 7, (), T=1.0, h=0.1)


KUBO = build_model("kubo")
ELL_ITO = build_model("ell", interpretation="ito")
SCALAR = build_model("scalar_linear", a=-1.0, b_scalar=0.5)


@pytest.mark.parametrize("call", [
    lambda: empirical_convergence_order(KUBO, [1.0, 0.0, 0.0], "heun", "finest_refinement",
                                        3, 4, 1),
    lambda: empirical_convergence_order(SCALAR, [1.0, 0.0], "euler_maruyama",
                                        "finest_refinement", 3, 4, 1),
    lambda: functional_drift_decay(KUBO, [1.0, 0.0, 0.0], casimir_field(), "heun",
                                   levels=3, n_paths=4, seed=1),
    lambda: conversion_gap_decay(KUBO, strat_to_ito(KUBO), [1.0, 0.0, 0.0], levels=2,
                                 n_paths=4, seed=1),
    lambda: check_symplecticity(KUBO, "heun", np.array([1.0, 0.0, 0.0]), h=0.1, T=1.0,
                                path=sample_brownian(1, 1.0, 0.1)),
    lambda: check_equilibrium(KUBO, [0.0], tol=1e-9),
    lambda: equilibrium_attraction(KUBO, [0.0, 0.0, 0.0], 0.1, T=1.0, n_paths=4,
                                   x0=[1.0, 0.0], seed=1, h=0.1),
    lambda: apply_generator(build_model("scalar_linear", a=-1.0, b_scalar=1.0),
                            quadratic_field(2.0 * np.eye(2)), 0.0, [0.7, 5.0]),
    lambda: apply_generator(ELL_ITO, norm_squared_field(), 0.0, [0.6, 0.8]),
], ids=["convergence", "convergence_scalar", "drift_decay", "gap_decay", "symplecticity",
        "equilibrium_point", "attraction_target", "generator_scalar", "generator_ell"])
def test_analyses_reject_a_state_of_the_wrong_length(call):
    with pytest.raises(ValueError, match=r"has \d components, \w+ needs [123]$"):
        call()


def test_convergence_order_honours_rode_euler():
    model = build_model("rode_ll")
    kw = dict(oracle="finest_refinement", levels=3, n_paths=8, seed=3, h0=2.0**-4)
    euler = empirical_convergence_order(model, [0.6, 0.0, 0.8], "rode_euler", **kw)
    heun = empirical_convergence_order(model, [0.6, 0.0, 0.8], "rode_heun", **kw)
    assert np.all(euler.errors > 2.0 * heun.errors)


def test_conversion_gap_decay_shrinks():
    strat = build_model("kubo")
    ito = strat_to_ito(strat)
    decay = conversion_gap_decay(strat, ito, [1.0, 0.0], levels=4, n_paths=60,
                                 seed=5, T=1.0, h0=2.0**-5)
    assert len(decay.gaps) == 4
    assert len(decay.ratios) == 3
    assert np.all(decay.ratios > 1.1)
    assert decay.gaps[0] > decay.gaps[-1]


def test_conversion_gap_decay_checks_its_models():
    strat = build_model("kubo")
    ito = strat_to_ito(strat)
    other = strat_to_ito(build_model("isochronous", omega=(1.0, 2.5), eps=(0.3, 0.1)))
    kwargs = dict(x0=[1.0, 0.0], levels=2, n_paths=4, seed=5)
    with pytest.raises(ValueError, match="scheme 'heun'"):
        conversion_gap_decay(ito, strat, **kwargs)
    with pytest.raises(ValueError, match="scheme 'euler_maruyama'"):
        conversion_gap_decay(strat, strat, **kwargs)
    with pytest.raises(ValueError, match="dimension"):
        conversion_gap_decay(strat, other, **kwargs)


def test_conversion_gap_decay_needs_two_levels_and_an_indexable_stack(monkeypatch):
    """One ratio needs two gaps; a huge level count is rejected before any
    path is drawn, so no study runs at that size."""
    strat = build_model("kubo")
    ito = strat_to_ito(strat)
    kwargs = dict(x0=[1.0, 0.0], n_paths=4, seed=5)
    for levels in (0, 1, -3):
        with pytest.raises(ValueError, match=f"need at least 2 levels, got {levels}"):
            conversion_gap_decay(strat, ito, levels=levels, **kwargs)

    def no_draws(*args):
        raise AssertionError("paths drawn for a study that should be rejected")

    monkeypatch.setattr(analyze, "_coupled_paths", no_draws)
    for levels in (60, 10**30):
        with pytest.raises(ValueError, match="more values than an array can index"):
            conversion_gap_decay(strat, ito, levels=levels, **kwargs)

def test_one_step_generator_check_frozen():
    model = build_model("ell", interpretation="ito", eps=0.1, alpha=1.0)
    V = norm_squared_field()
    x = np.array([0.6, 0.0, 0.8])
    chk = one_step_generator_check(model, V, x, h=1e-3, n_samples=10**5, seed=99)
    assert chk.generator_value == pytest.approx(0.04, rel=1e-12)
    fx = model.drift(0.0, x)
    tol = 4.0 * chk.se_rate + 2.0 * 1e-3 * float(np.sum(fx * fx))
    assert chk.residual <= tol
    again = one_step_generator_check(model, V, x, h=1e-3, n_samples=10**5, seed=99)
    assert again.mc_rate == chk.mc_rate


def test_one_step_generator_check_requires_ito():
    model = build_model("kubo")
    with pytest.raises(ValueError):
        one_step_generator_check(model, norm_squared_field(), [1.0, 0.0],
                                 h=1e-3, n_samples=100, seed=1)


@pytest.mark.parametrize("h, n_samples", [(1e-3, 1), (1e-3, 0), (0.0, 100), (-1e-3, 100)])
def test_one_step_generator_check_rejects_bad_sizes(h, n_samples):
    model = build_model("ell", interpretation="ito")
    with pytest.raises(ValueError, match="need h > 0 and n_samples >= 2"):
        one_step_generator_check(model, norm_squared_field(), [0.6, 0.0, 0.8],
                                 h=h, n_samples=n_samples, seed=1)


def test_stability_probability_edges():
    stable = build_model("scalar_linear", a=-1.0, b_scalar=0.0)
    est = stability_probability(stable, 0.01, 0.5, T=2.0, n_paths=50, seed=3)
    assert est.probability == 0.0
    assert est.n_exceed == 0
    with pytest.raises(ValueError):
        stability_probability(stable, 0.5, 0.5, T=1.0, n_paths=10, seed=3)


def test_equilibrium_attraction_trivial_cases():
    model = build_model("ll")
    est = equilibrium_attraction(model, E3, eps=1e-2, T=1.0, n_paths=4, x0=E3, seed=1)
    assert est.fraction == 1.0
    with pytest.raises(ValueError):
        equilibrium_attraction(model, E3, eps=0.0, T=1.0, n_paths=4, x0=E3, seed=1)


@pytest.mark.parametrize("n_paths", [0, -1])
def test_stability_and_attraction_check_n_paths_before_allocating(n_paths):
    model = build_model("ll")
    with pytest.raises(ValueError, match="n_paths must be >= 1"):
        stability_probability(model, 0.5, 1.0, T=1.0, n_paths=n_paths, seed=1)
    with pytest.raises(ValueError, match="n_paths must be >= 1"):
        equilibrium_attraction(model, E3, 1e-2, T=1.0, n_paths=n_paths, x0=E3, seed=1)


def test_start_keys_are_bitwise():
    assert _start_key([0.5, 0.0]) == _start_key(np.array([0.5, 0.0]))
    assert _start_key([0.5, 0.0]) != _start_key([0.5, -0.0])
    assert _start_key(uniform_sphere_sampler) == _start_key(uniform_sphere_sampler)
    assert _start_key(uniform_sphere_sampler) != _start_key(lambda k, rng: E3)


def test_stability_and_attraction_honour_the_scheme():
    model = build_model("rode_ll")
    kw = dict(T=1.0, n_paths=20, seed=3, h=1e-2)
    # Euler lengthens every rotated state; Heun keeps the norm to O(h^2)
    assert stability_probability(model, 1.0, 1.001, **kw).n_exceed == 0
    assert stability_probability(model, 1.0, 1.001, scheme="rode_euler", **kw).n_exceed == 20
    with pytest.raises(ValueError):
        stability_probability(model, 1.0, 1.001, scheme="heun", **kw)
    kw = dict(T=5.0, n_paths=20, x0=[0.6, 0.0, 0.8], seed=3, h=1e-2)
    assert equilibrium_attraction(model, E3, 1e-3, **kw).n_attracted == 8
    assert equilibrium_attraction(model, E3, 1e-3, scheme="rode_euler", **kw).n_attracted == 0
    with pytest.raises(ValueError):
        equilibrium_attraction(model, E3, 1e-3, scheme="rk4", **kw)
    for scheme in ("", ["rode_heun"]):  # only None means the default
        with pytest.raises(ValueError, match="unknown scheme"):
            equilibrium_attraction(model, E3, 1e-3, scheme=scheme, **kw)


@pytest.mark.parametrize("n", [1, 2, 3, 9])  # 9 takes dot's np.sum fallback
def test_stability_running_sup_is_the_largest_linalg_norm_bit_for_bit(n):
    model = build_model("scalar_linear", a=-1.0, b_scalar=1.0)
    _, running_sup, _ = _stability_estimator(model, "euler_maruyama", 64, 1.0, 0.1, 0.5, 1.0)
    rng = np.random.default_rng(n)
    blocks = [rng.standard_normal((4, 64, n)) * 10.0 ** rng.integers(-2, 3, (4, 64, n))
              for _ in range(3)]
    blocks[1][2, 1, 0] = np.inf
    blocks[2][0, 2, -1] = np.nan
    blocks[0][3, 3, 0] = -np.inf
    blocks[2][1, 3, 0] = np.nan  # nan after an inf in an earlier block
    blocks[0][:, 4] = -0.0
    for k, block in enumerate(blocks):
        running_sup(k, block)
    sup = inspect.getclosurevars(running_sup).nonlocals["sup"]
    expected = np.max([np.linalg.norm(b, axis=-1) for b in blocks], axis=(0, 1))
    assert sup.tobytes() == expected.tobytes()
    assert np.isinf(sup[1]) and np.isnan(sup[2]) and np.isnan(sup[3])


def test_stability_probability_memory_is_bounded_by_the_time_block():
    """tracemalloc peak at 200 paths x 20k steps (scalar linear, a=-1, b=1).

    Kept whole, the increments and states of this run peaked at 122.9 MiB.
    Stepped in time blocks with a running sup-norm it peaked at 12.3 MiB,
    and stepped in sub-blocks through one reused state buffer at 6.3 MiB.
    The bound, 30 MiB, is 4.1x below the first figure.
    """
    model = build_model("scalar_linear", a=-1.0, b_scalar=1.0)
    tracemalloc.start()
    try:
        est = stability_probability(model, 0.01, 0.03, T=20.0, n_paths=200, seed=0, h=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.n_exceed == 5
    assert peak < 30 * 2**20


def test_run_ensemble_memory_is_bounded_by_the_time_block():
    """tracemalloc peak at 200 paths x 20k steps with one functional
    (scalar linear, a=-1, b=1).

    Gathering every functional value as (1, N+1, n_paths) peaked at
    62.5 MiB.  Reducing mean and variance per time block peaked at 16.7 MiB,
    and per sub-block of one reused state buffer at 7.7 MiB.
    """
    model = build_model("scalar_linear", a=-1.0, b_scalar=1.0)
    tracemalloc.start()
    try:
        stats = run_ensemble(model, [1.0], "euler_maruyama", 200, 0,
                             [norm_squared_field()], T=20.0, h=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.mean.shape == (1, 20001)
    assert peak < 30 * 2**20


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stability_probability_memory_is_bounded_by_the_step_sub_block():
    """tracemalloc peak at 1000 paths x 2000 steps (scalar linear, a=-1, b=1).

    A fresh states array per 524-step time block, and the sup-norm's
    temporaries of that size, peaked at 13.6 MiB.  Stepping 131-step
    sub-blocks through one reused state buffer peaks at 7.6 MiB, of which
    the block's 4 MiB of draws are the most.
    """
    model = build_model("scalar_linear", a=-1.0, b_scalar=1.0)
    est, peak = _traced_peak(lambda: stability_probability(
        model, 0.01, 0.03, T=2.0, n_paths=1000, seed=0, h=1e-3))
    assert est.n_exceed == 26
    assert peak < 9 * 2**20


def test_wide_ensemble_memory_is_bounded_by_the_step_sub_block():
    """tracemalloc peak of ell/ito at 4000 sphere starts x 250 steps with
    norm2, the sizes of the ensemble_wide benchmark.  A fresh states array
    per 43-step time block peaked at 14.0 MiB; 10-step sub-blocks through
    one reused state buffer peak at 9.0 MiB."""
    model = build_model("ell", interpretation="ito")
    stats, peak = _traced_peak(lambda: run_ensemble(
        model, uniform_sphere_sampler, "euler_maruyama", 4000, 0, [norm_squared_field()],
        T=0.25, h=1e-3))
    assert stats.mean.shape == (1, 251)
    assert peak < 11.5 * 2**20


def test_check_symplecticity_kubo_and_edges():
    model = build_model("kubo", a=1.0, sigma=0.5)
    h = 2.0**-8
    path = sample_brownian(21, 1.0, h, dims=1)
    defect = check_symplecticity(model, "heun", [1.0, 0.0], h=h, T=1.0, path=path)
    assert 0.0 < defect < 10.0 * h
    # zero steps leave the identity map, and the complex step reads it exactly
    zero = check_symplecticity(model, "heun", [1.0, 0.0], h=h, T=0.0)
    assert zero == 0.0


def test_check_symplecticity_is_stable_under_a_one_ulp_noise_shift():
    # the complex step has no truncation error to amplify rounding: a central
    # difference with step 1e-6 moved this defect by 6.1e-6 relative
    model = build_model("kubo", a=1.0, sigma=0.5)
    path = sample_brownian(7, 1.0, 1e-3, dims=1)
    shifted = dataclasses.replace(path, increments=np.nextafter(path.increments, np.inf))
    defect = check_symplecticity(model, "heun", [1.0, 0.0], h=1e-3, T=1.0, path=path)
    moved = check_symplecticity(model, "heun", [1.0, 0.0], h=1e-3, T=1.0, path=shifted)
    assert moved != defect
    assert abs(moved - defect) < 1e-10 * defect


def test_check_symplecticity_rejects_a_path_off_its_grid():
    model = build_model("kubo", a=1.0, sigma=0.5)
    path = sample_brownian(3, 4.0, 1e-2, dims=1)
    check_symplecticity(model, "heun", [1.0, 0.0], h=1e-2, T=4.0, path=path)
    for T, h in [(1.0, 1e-3), (1.0, 1e-2), (4.0, 2e-2), (2.0, 5e-3)]:
        with pytest.raises(ValueError, match="steps"):
            check_symplecticity(model, "heun", [1.0, 0.0], h=h, T=T, path=path)
    with pytest.raises(ValueError, match="NoisePath"):
        check_symplecticity(model, "heun", [1.0, 0.0], h=1e-2, T=4.0)


def test_check_symplecticity_detects_contraction():
    model = ModelSpec(n=2, noise_dim=0, interpretation="ode",
                      kernel=lambda t, xs, ws: ([-x for x in xs], ()), name="contract")
    defect = check_symplecticity(model, "rk4", [1.0, 0.5], h=1e-3, T=1.0)
    expected = (1.0 - np.exp(-2.0)) * np.sqrt(2.0)
    assert defect == pytest.approx(expected, rel=1e-12)


def test_check_symplecticity_rejects_a_drift_that_drops_the_imaginary_part():
    # the flow Jacobian is a complex step, which a cast to float loses
    model = ModelSpec(n=2, noise_dim=0, interpretation="ode", name="contract",
                      kernel=lambda t, xs, ws: (list(-np.asarray(xs, dtype=float)), ()))
    with pytest.raises(ValueError, match="imaginary part"):
        check_symplecticity(model, "rk4", [1.0, 0.5], h=1e-3, T=1.0)


def _central_symplectic_defect(model, scheme, x0, path, step=1e-6):
    """check_symplecticity's defect with DPhi by central differences."""
    noise = path.increments
    cols = [(_scheme_states(model, scheme, x0 + step * e, path.times, noise, record=False)
             - _scheme_states(model, scheme, x0 - step * e, path.times, noise, record=False))
            / (2.0 * step) for e in np.eye(2)]
    dphi = np.stack(cols, axis=-1)
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return float(np.linalg.norm(dphi.T @ J @ dphi - J))


def test_check_symplecticity_of_a_strat_to_ito_model_matches_central_differences():
    # the Wong-Zakai correction's own complex step nests inside the flow's,
    # along the second unit; central differences agree to their own error
    # (0.0170137699 against 0.0170137696 at h = 1e-3)
    ito = strat_to_ito(build_model("kubo", a=1.0, sigma=0.5))
    for h in (1e-3, 1e-2):
        path = sample_brownian(7, 1.0, h, dims=1)
        defect = check_symplecticity(ito, "euler_maruyama", [1.0, 0.0], h=h, T=1.0, path=path)
        central = _central_symplectic_defect(ito, "euler_maruyama", np.array([1.0, 0.0]), path)
        assert defect == pytest.approx(central, rel=1e-7)


def test_check_symplecticity_of_a_strat_to_ito_model_is_stable_under_a_one_ulp_noise_shift():
    ito = strat_to_ito(build_model("kubo", a=1.0, sigma=0.5))
    path = sample_brownian(7, 1.0, 1e-3, dims=1)
    shifted = dataclasses.replace(path, increments=np.nextafter(path.increments, np.inf))
    defect = check_symplecticity(ito, "euler_maruyama", [1.0, 0.0], h=1e-3, T=1.0, path=path)
    moved = check_symplecticity(ito, "euler_maruyama", [1.0, 0.0], h=1e-3, T=1.0,
                                path=shifted)
    assert abs(moved - defect) < 1e-10 * defect


def test_check_symplecticity_checks_the_scheme():
    kubo = build_model("kubo", a=1.0, sigma=0.5)
    path = sample_brownian(3, 1.0, 1e-2, dims=1)
    with pytest.raises(ValueError, match="integrates"):
        check_symplecticity(kubo, "euler_maruyama", [1.0, 0.0], h=1e-2, T=1.0, path=path)
    rode = ModelSpec(n=2, noise_dim=0, interpretation="rode",
                     kernel=lambda t, xs, ws: ([-x for x in xs], ()), name="rode2")
    with pytest.raises(ValueError, match="ode, ito or stratonovich"):
        check_symplecticity(rode, "rode_euler", [1.0, 0.0], h=1e-2, T=1.0)


def test_check_symplecticity_needs_planar_state():
    model = build_model("ll")
    with pytest.raises(ValueError):
        check_symplecticity(model, "rk4", [0.0, 0.6, 0.8], h=1e-2, T=1.0)


def test_ll_decomposition_residual_cases():
    rng = np.random.default_rng(4)
    for _ in range(20):
        z, b = rng.normal(size=3), rng.normal(size=3)
        assert ll_decomposition_residual(z, b, rng.uniform(0.0, 2.0)) <= 1e-14
    assert ll_decomposition_residual([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 1.0) == 0.0
    assert ll_decomposition_residual([1.0, 0.0, 0.0], E3, 0.0) <= 1e-14

