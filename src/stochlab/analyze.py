"""Persistence checkers and empirical verdicts.

Analytic invariance/equilibrium criteria evaluated on sampled points, plus
Monte Carlo machinery for stability probabilities, first-integral drift,
strong convergence order, conversion coherence and symplectic structure.
Every verdict is a deterministic function of (model, seed, tolerances).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .integrate import (
    ModelSpec,
    Trajectory,
    _check_ensemble,
    _check_path,
    _check_scheme,
    _check_start,
    _check_state,
    _scheme_states,
    _step_piece,
    apply_generator,
    default_scheme,
    run_ensemble,
)
from .noise import (
    DOMAIN_BASE,
    DOMAIN_ENSEMBLE,
    DOMAIN_REFINE,
    NoisePath,
    ParameterProcess,
    _grid_steps,
    _noise_pieces,
    derive_seed,
    philox_keys,
    stream,
)
from .vecalg import (
    DoubleBracketStructure,
    PoissonStructure,
    ScalarField,
    cross,
    derivative,
    dot,
    double_bracket_vf,
    hamiltonian_vf,
    linear_field,
    norm,
)

OFF_MANIFOLD_TOL = 1e-10
# times at which the invariance and equilibrium criteria are evaluated, and
# the eta values at which check_equilibrium evaluates a RODE drift
_TS = (0.0, 0.5, 1.0)
_ETA_SAMPLES = (0.5, 1.0, 2.0)


def fibonacci_sphere(n: int = 200) -> np.ndarray:
    """Deterministic quasi-uniform lattice on the unit sphere, shape (n, 3)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def uniform_sphere_sampler(index: int, rng: np.random.Generator) -> np.ndarray:
    """Per-path uniform point on the unit sphere (for ensemble x0 sampling)."""
    v = rng.normal(size=3)
    return v / math.sqrt(v.dot(v))  # np.linalg.norm(v), bit for bit


def sphere_minus_cap(n: int, axis, cap_radius: float, boundary: int = 16) -> np.ndarray:
    """Lattice on S^2 excluding a chordal cap around -axis, plus a ring of
    points just outside the cap boundary (the hardest admissible starts)."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    pts = fibonacci_sphere(n)
    keep = np.linalg.norm(pts + axis, axis=1) > cap_radius
    pts = pts[keep]
    # ring at chordal distance ~ cap_radius from the antipode
    e = np.array([1.0, 0.0, 0.0])
    if abs(axis @ e) > 0.9:
        e = np.array([0.0, 1.0, 0.0])
    u = np.cross(axis, e)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    theta = math.pi - 1.0000001 * cap_radius  # polar angle from +axis
    ring = []
    for k in range(boundary):
        phi = 2.0 * math.pi * k / boundary
        p = (
            math.cos(theta) * axis
            + math.sin(theta) * (math.cos(phi) * u + math.sin(phi) * v)
        )
        ring.append(p / np.linalg.norm(p))
    return np.vstack([pts, ring])


@dataclass(frozen=True)
class ConditionResult:
    name: str
    max_residual: float
    passed: bool


@dataclass(frozen=True)
class InvarianceReport:
    """Per-criterion residuals for one model/manifold pair."""

    model_name: str
    interpretation: str
    field_name: str
    tol: float
    n_samples: int
    conditions: tuple
    verdict: bool
    notes: str = ""

    def to_text(self) -> str:
        lines = [
            f"model: {self.model_name}",
            f"interpretation: {self.interpretation}",
            f"manifold: {self.field_name}",
            f"tolerance: {self.tol:.17g}",
            f"samples: {self.n_samples}",
        ]
        for c in self.conditions:
            lines.append(
                f"condition {c.name}: max_residual={c.max_residual:.17g} "
                f"{'pass' if c.passed else 'fail'}"
            )
        if self.notes:
            lines.append(f"notes: {self.notes}")
        lines.append(f"verdict: {'invariant' if self.verdict else 'not invariant'}")
        return "\n".join(lines)

    def rows(self):
        return [(c.name, c.max_residual, int(c.passed)) for c in self.conditions]


@dataclass(frozen=True)
class TermResult:
    name: str
    magnitude: float
    vanishes: bool


@dataclass(frozen=True)
class EquilibriumReport:
    """Per-term drift/diffusion magnitudes at a candidate equilibrium point."""

    drift_terms: tuple
    diffusion_columns: tuple
    verdict: bool

    def rows(self):
        out = [("drift:" + t.name, t.magnitude, int(t.vanishes)) for t in self.drift_terms]
        out += [
            ("diffusion:" + t.name, t.magnitude, int(t.vanishes))
            for t in self.diffusion_columns
        ]
        return out


def _eta_coverage(eta_samples) -> tuple[np.ndarray, str]:
    if eta_samples is None:
        raise ValueError("RODE invariance check needs eta samples")
    if isinstance(eta_samples, ParameterProcess):
        vals = np.asarray(eta_samples.values)
        # cover the observed range: evenly spaced order statistics + extremes
        flat = np.sort(vals, axis=0)
        idx = np.unique(np.linspace(0, flat.shape[0] - 1, 65).astype(int))
        vals = flat[idx]
    else:
        vals = np.asarray(eta_samples, dtype=float)
    lo, hi = float(np.min(vals)), float(np.max(vals))
    return vals, f"eta coverage: {vals.shape[0]} samples in [{lo:.17g}, {hi:.17g}]"


def check_invariance(
    model: ModelSpec,
    F: ScalarField,
    samples,
    tol: float,
    eta_samples=None,
) -> InvarianceReport:
    """Evaluate the invariance criteria for F's zero set under the model flow.

    Ito models: drift tangency grad F . f, diffusion tangency grad F . sigma
    column-wise, and the second-order residual
    1/2 sum_ij (d2 F / dx_i dx_j) (sigma sigma^T)_ij, the drift the Ito
    formula leaves on the manifold once tangency holds.  Stratonovich models:
    the two tangency conditions.  ODE/RODE: drift tangency, the latter over
    sampled eta values covering the process range; eta_samples on any other
    model raises ValueError.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != model.n or len(pts) < 1:
        raise ValueError(f"samples must have shape (m, {model.n}), m >= 1, got {pts.shape}")
    fvals = np.abs(np.asarray(F.value(pts)))
    if np.max(fvals) > OFF_MANIFOLD_TOL:
        raise ValueError(
            f"sampler off-manifold: max |F| = {np.max(fvals):.3g} > {OFF_MANIFOLD_TOL:g}"
        )
    grads = np.asarray(F.gradient(pts))
    notes = ""
    conditions = []

    calls = [(t,) for t in _TS]
    if model.interpretation == "rode":
        vals, notes = _eta_coverage(eta_samples)
        calls = [(t, eta) for t in _TS for eta in vals]
    elif eta_samples is not None:
        raise ValueError(f"{model.interpretation} models read samples only, not eta_samples=")
    worst = 0.0
    for t, *eta in calls:
        fx = np.asarray(model.drift(t, pts, *eta))
        worst = max(worst, float(np.max(np.abs(np.sum(grads * fx, axis=-1)))))
    conditions.append(ConditionResult("drift_tangency", worst, worst <= tol))

    if model.interpretation in ("ito", "stratonovich"):
        sigs = [np.asarray(model.diffusion(t, pts)) for t in _TS]  # once per time
        worst = 0.0
        for sig in sigs:
            proj = np.einsum("...i,...il->...l", grads, sig)
            worst = max(worst, float(np.max(np.abs(proj))))
        conditions.append(ConditionResult("diffusion_tangency", worst, worst <= tol))

    if model.interpretation == "ito":
        hess = np.asarray(F.hessian(pts))
        worst = 0.0
        for sig in sigs:
            a = np.einsum("...il,...jl->...ij", sig, sig)
            worst = max(worst, float(np.max(np.abs(0.5 * np.sum(hess * a, axis=(-2, -1))))))
        conditions.append(ConditionResult("second_order_trace", worst, worst <= tol))

    verdict = all(c.passed for c in conditions)
    return InvarianceReport(
        model_name=model.name,
        interpretation=model.interpretation,
        field_name=F.name,
        tol=tol,
        n_samples=pts.shape[0],
        conditions=tuple(conditions),
        verdict=verdict,
        notes=notes,
    )


def check_equilibrium(
    model: ModelSpec,
    point,
    tol: float,
) -> EquilibriumReport:
    """Report the magnitude of every drift summand and diffusion column at a point."""
    _check_state(model, point, "point")
    x = np.asarray(point, dtype=float)
    terms = model.drift_terms if model.drift_terms else (("drift", model.drift),)
    calls = [(t,) for t in _TS]
    if model.interpretation == "rode":
        calls = [(t, np.full(model.eta_dim, s) if model.eta_dim > 1 else s)
                 for t in _TS for s in _ETA_SAMPLES]
    drift_results = []
    for name, term in terms:
        worst = 0.0
        for t, *eta in calls:
            worst = max(worst, float(norm(np.asarray(term(t, x, *eta)))))
        drift_results.append(TermResult(name, worst, worst <= tol))
    diff_results = []
    if model.diffusion is not None:
        sigs = [np.asarray(model.diffusion(t, x)) for t in _TS]  # once per time
        for k in range(model.noise_dim):
            worst = 0.0
            for sig in sigs:
                worst = max(worst, float(np.linalg.norm(sig[:, k])))
            diff_results.append(TermResult(f"column_{k + 1}", worst, worst <= tol))
    verdict = all(t.vanishes for t in drift_results) and all(
        t.vanishes for t in diff_results
    )
    return EquilibriumReport(
        drift_terms=tuple(drift_results),
        diffusion_columns=tuple(diff_results),
        verdict=verdict,
    )


@dataclass(frozen=True)
class FirstIntegralDrift:
    max_drift: float
    terminal_drift: float


def first_integral_drift(traj: Trajectory, F: ScalarField) -> FirstIntegralDrift:
    """Max and terminal |F(x_t) - F(x_0)| along one trajectory."""
    vals = np.asarray(F.value(traj.states))
    dev = np.abs(vals - vals[0])
    return FirstIntegralDrift(float(np.max(dev)), float(dev[-1]))


@dataclass(frozen=True)
class MonotonicityStats:
    n_violations: int
    max_increase: float
    n_steps: int


def lyapunov_monotonicity(traj: Trajectory, V: ScalarField, step_tol: float) -> MonotonicityStats:
    """Count the steps where V increases by more than step_tol."""
    vals = np.asarray(V.value(traj.states))
    diffs = np.diff(vals)
    increases = diffs[diffs > 0]
    n_bad = int(np.sum(diffs > step_tol))
    max_inc = float(np.max(increases)) if increases.size else 0.0
    return MonotonicityStats(n_bad, max_inc, len(diffs))


@dataclass(frozen=True)
class OrderEstimate:
    step_sizes: np.ndarray
    errors: np.ndarray
    slope: float
    half_width: float


class EstimateError(ValueError):
    """An estimate that its Monte Carlo data cannot give, such as a log-log
    fit to a non-finite error; the CLI reports it with exit code 1."""


def _fit_order(hs, errors) -> tuple[float, float]:
    """Slope of log errors against log hs and its 95% half-width; raises
    EstimateError, naming the first such level, unless every error is
    positive and finite."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(errors) & (errors > 0)))
    if bad.size:
        i = int(bad[0])
        raise EstimateError(f"errors must be positive and finite for a log-log fit; "
                            f"level {i} (h={hs[i]:g}) has {errors[i]:g}")
    coef, cov = np.polyfit(np.log(hs), np.log(errors), 1, cov=True)
    return float(coef[0]), float(1.96 * math.sqrt(max(cov[0][0], 0.0)))


def _coupled_paths(seeds, T: float, h0: float, dims: int, levels: int):
    """The noise pieces (_noise_pieces) of levels dyadic refinements of the
    coupled paths of seeds: path p of level j is sample_brownian(seeds[p], T,
    h0, dims) refined j times, bit for bit."""
    keys = [philox_keys(seeds, DOMAIN_BASE, 0)]
    keys += [philox_keys(seeds, DOMAIN_REFINE, level) for level in range(1, levels)]
    return _noise_pieces(keys, _grid_steps(T, h0), h0, dims)


def _check_study(model, scheme, levels, n_paths, T, h0, extra=0, min_levels=3):
    """Raise ValueError unless a refinement study of levels >= min_levels
    levels can run n_paths paths of scheme on model, coarsest step h0
    (_check_ensemble), and its finest level, extra levels below the last,
    holds no more values than an array can index.  The study streams that
    level in time, but the rule stops one that could never finish before
    any path is drawn."""
    n_steps = _check_ensemble(model, scheme, n_paths, T, h0)
    if levels < min_levels:
        raise ValueError(f"need at least {min_levels} levels, got {levels}")
    # by bit lengths, so that a huge level count forms no huge power of 2
    halvings, dims = levels + extra - 1, max(model.noise_dim, 1)
    if (n_steps * int(n_paths) * dims).bit_length() + halvings > np.iinfo(np.intp).max.bit_length():
        raise ValueError(f"the finest refinement, {n_steps} x 2**{halvings} steps of "
                         f"{n_paths} paths x {dims} noise dimensions, "
                         "holds more values than an array can index")


def _check_convergence(model, scheme, oracle, levels, n_paths, T, h0, closed_form, oracle_gap):
    """_check_study, and the oracle rules of empirical_convergence_order."""
    _check_study(model, scheme, levels, n_paths, T, h0,
                 oracle_gap if oracle == "finest_refinement" else 0)
    if oracle not in ("closed_form", "finest_refinement"):
        raise ValueError(f"unknown oracle {oracle!r}")
    if oracle == "closed_form" and closed_form is None:
        raise ValueError(f"the closed_form oracle needs a closed form; none for {model.name!r}")
    if oracle_gap < 1:
        raise ValueError(f"oracle_gap must be >= 1, got {oracle_gap}")


def _coupled_terminals(runs, x0, seed, n_paths, T, h0, levels, w_level=None):
    """Terminal states (P, n) of each (level, model, scheme) of runs, in
    order, stepped from x0 piece by piece on the coupled paths of the
    n_paths seeds derived from seed (_coupled_paths): a run carries its
    states, step count and RODE W from one piece of its level to the next.
    Also returns the last grid time t of level w_level and W there (P, l),
    each path's increments of that level summed in order.  Raises
    ValueError, before any draw, unless x0 holds the models' n finite
    components."""
    x0, dims = _check_start(runs[0][1], x0), max(runs[0][1].noise_dim, 1)
    carried = [(np.broadcast_to(x0, (n_paths,) + x0.shape), np.zeros(n_paths), 0)] * len(runs)
    t, w = None, np.zeros((n_paths, dims))
    seeds = derive_seed(seed, DOMAIN_ENSEMBLE, np.arange(n_paths))
    for level, increments, times in _coupled_paths(seeds, T, h0, dims, levels):
        for i, (run_level, model, scheme) in enumerate(runs):
            if run_level == level:
                carried[i] = _step_piece(model, scheme, *carried[i], increments, times)
        if level == w_level:
            t = times[-1]
            for row in increments:
                w += row
    return [x for x, _, _ in carried], t, w


def empirical_convergence_order(
    model: ModelSpec,
    x0,
    scheme: str,
    oracle: str,
    levels: int,
    n_paths: int,
    seed: int,
    T: float = 1.0,
    h0: float = 2.0**-6,
    closed_form: Optional[Callable] = None,
    oracle_gap: int = 3,
) -> OrderEstimate:
    """Strong error per dyadic level on coupled refined paths, with a log-log fit.

    oracle 'closed_form' compares terminal states against closed_form(x0, t,
    w), the (P, n) exact terminal states of all paths from x0 at t, the
    finest level's last grid time, where w (P, l) holds each path's W there,
    its finest increments summed in order; 'finest_refinement' compares
    against the same scheme run oracle_gap halvings below the finest measured
    level (the gap keeps the reference error from contaminating the slope).
    Raises ValueError where _check_convergence does, and where x0 does not
    have the model's n finite components.
    """
    _check_convergence(model, scheme, oracle, levels, n_paths, T, h0, closed_form, oracle_gap)
    x0 = np.asarray(x0, dtype=float)
    extra = oracle_gap if oracle == "finest_refinement" else 0
    runs = [(level, model, scheme) for level in range(levels)]
    if extra:
        runs.append((levels + extra - 1, model, scheme))
    terminal, t, w = _coupled_terminals(runs, x0, seed, n_paths, T, h0, levels + extra,
                                        None if extra else levels - 1)
    ref = terminal.pop() if extra else np.asarray(closed_form(x0, t, w))
    errors = np.array([float(np.mean(np.linalg.norm(xT - ref, axis=-1))) for xT in terminal])
    hs = h0 / 2.0 ** np.arange(levels)
    slope, half = _fit_order(hs, errors)
    return OrderEstimate(step_sizes=hs, errors=errors, slope=slope, half_width=half)


def functional_drift_decay(
    model: ModelSpec,
    x0,
    F: ScalarField,
    scheme: str,
    levels: int,
    n_paths: int,
    seed: int,
    T: float = 1.0,
    h0: float = 2.0**-6,
) -> OrderEstimate:
    """Decay order of the terminal first-integral drift E|F(x_T) - F(x_0)|
    under dyadic refinement of coupled paths.  Raises ValueError where
    _check_study does, and where x0 does not have the model's n finite
    components."""
    _check_study(model, scheme, levels, n_paths, T, h0)
    terminal, _, _ = _coupled_terminals([(level, model, scheme) for level in range(levels)],
                                        x0, seed, n_paths, T, h0, levels)
    f0 = float(F.value(np.asarray(x0, dtype=float)))
    drifts = [float(np.mean(np.abs(np.asarray(F.value(xT)) - f0))) for xT in terminal]
    hs = h0 / 2.0 ** np.arange(levels)
    slope, half = _fit_order(hs, drifts)
    return OrderEstimate(step_sizes=hs, errors=np.asarray(drifts), slope=slope, half_width=half)


@dataclass(frozen=True)
class GeneratorCheck:
    mc_rate: float
    se_rate: float
    generator_value: float
    residual: float


def one_step_generator_check(
    model: ModelSpec, V: ScalarField, x, h: float, n_samples: int, seed: int, t: float = 0.0
) -> GeneratorCheck:
    """Monte Carlo (E[V(x_{t+h})] - V(x)) / h against the generator value LV.

    One Euler-Maruyama step from a fixed state; the standard error of the
    rate and the exact generator value let callers form the 4 s.e. + O(h)
    acceptance band.  Raises ValueError unless the model is Ito, h > 0 and
    n_samples >= 2 (the standard error needs two).
    """
    _check_scheme(model, "euler_maruyama")
    if not (h > 0 and n_samples >= 2):
        raise ValueError(f"need h > 0 and n_samples >= 2, got h={h}, n_samples={n_samples}")
    x = np.asarray(x, dtype=float)
    rng = stream(seed, DOMAIN_ENSEMBLE, 0)
    dw = rng.normal(0.0, math.sqrt(h), size=(1, n_samples, model.noise_dim))
    x1 = _scheme_states(model, "euler_maruyama", np.broadcast_to(x, (n_samples,) + x.shape),
                        np.array([t, t + h]), dw, record=False)
    vals = np.asarray(V.value(x1))
    v0 = float(V.value(x))
    rate = float((vals.mean() - v0) / h)
    se = float(vals.std(ddof=1) / math.sqrt(n_samples) / h)
    lv = apply_generator(model, V, t, x)
    return GeneratorCheck(mc_rate=rate, se_rate=se, generator_value=lv,
                          residual=abs(rate - lv))


@dataclass(frozen=True)
class GapDecay:
    step_sizes: np.ndarray
    gaps: np.ndarray
    ratios: np.ndarray


def conversion_gap_decay(
    model_strat: ModelSpec,
    model_ito: ModelSpec,
    x0,
    levels: int,
    n_paths: int,
    seed: int,
    T: float = 1.0,
    h0: float = 2.0**-6,
) -> GapDecay:
    """Terminal strong gap between Heun on the Stratonovich model and EM on its
    Ito conversion, on the same coupled dyadic paths, one gap per level.
    Raises ValueError where _check_study does for heun on model_strat, with
    at least 2 levels (one ratio needs two gaps), unless model_ito is Ito
    with the same dimensions, and where x0 does not have their n finite
    components."""
    _check_study(model_strat, "heun", levels, n_paths, T, h0, min_levels=2)
    _check_scheme(model_ito, "euler_maruyama")
    if (model_strat.n, model_strat.noise_dim) != (model_ito.n, model_ito.noise_dim):
        raise ValueError(f"{model_strat.name} and {model_ito.name} differ in state or noise "
                         "dimension")
    runs = [(level, model, scheme) for level in range(levels)
            for model, scheme in ((model_strat, "heun"), (model_ito, "euler_maruyama"))]
    terminal, _, _ = _coupled_terminals(runs, x0, seed, n_paths, T, h0, levels)
    gaps = np.array([float(np.mean(np.linalg.norm(x_heun - x_em, axis=-1)))
                     for x_heun, x_em in zip(terminal[0::2], terminal[1::2])])
    return GapDecay(
        step_sizes=h0 / 2.0 ** np.arange(levels),
        gaps=gaps,
        ratios=gaps[:-1] / gaps[1:],
    )


@dataclass(frozen=True)
class StabilityEstimate:
    probability: float
    half_width: float
    n_paths: int
    n_exceed: int


def stability_probability(
    model: ModelSpec,
    x0_radius: float,
    delta: float,
    T: float,
    n_paths: int,
    seed: int,
    h: float = 1e-2,
    scheme: str | None = None,
) -> StabilityEstimate:
    """Monte Carlo estimate of P(sup_{t<=T} |x_t| > delta) from |x_0| = x0_radius.

    Each path's sup-norm is a running maximum over the streamed time blocks,
    so memory does not grow with T.  scheme defaults to default_scheme(model).
    Raises ValueError unless delta > x0_radius > 0, and where
    _check_ensemble does.
    """
    scheme = default_scheme(model) if scheme is None else scheme
    (est,) = _estimates([_stability_estimator(model, scheme, n_paths, T, h, x0_radius, delta)],
                        model, scheme, n_paths, T, h, seed)
    return est


def _check_stability(x0_radius, delta):
    if not (delta > x0_radius > 0):
        raise ValueError(f"need delta > x0_radius > 0, got delta={delta}, x0_radius={x0_radius}")


def _stability_estimator(model, scheme, n_paths, T, h, x0_radius, delta):
    """(start, observer, finish) of stability_probability, after its checks."""
    _check_stability(x0_radius, delta)
    _check_ensemble(model, scheme, n_paths, T, h)
    x0 = np.zeros(model.n)
    x0[0] = x0_radius
    sup = np.zeros(n_paths)

    def running_sup(k, block):
        # sqrt is monotone, so the root of the largest squared norm (by components)
        # is the largest np.linalg.norm(block, axis=-1) bit for bit, one root a path
        sq = dot(block, block).max(axis=0)
        np.maximum(sup, np.sqrt(sq), out=sup)

    def finish():
        n_exceed = int(np.sum(sup > delta))
        p = n_exceed / n_paths
        half = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n_paths)
        return StabilityEstimate(p, half, n_paths, n_exceed)

    return x0, running_sup, finish


@dataclass(frozen=True)
class AttractionEstimate:
    fraction: float
    half_width: float
    n_paths: int
    n_attracted: int


def equilibrium_attraction(
    model: ModelSpec,
    target,
    eps: float,
    T: float,
    n_paths: int,
    x0,
    seed: int,
    h: float = 1e-3,
    scheme: str | None = None,
) -> AttractionEstimate:
    """Fraction of paths with ||x_T - target|| <= eps; x0 a point or sampler.

    Only the terminal states are kept.  scheme defaults to
    default_scheme(model).  Raises ValueError unless eps > 0, where target
    does not have the model's n components, and where _check_ensemble does.
    """
    scheme = default_scheme(model) if scheme is None else scheme
    (est,) = _estimates([_attraction_estimator(model, scheme, n_paths, T, h, x0, target, eps)],
                        model, scheme, n_paths, T, h, seed)
    return est


def _check_attraction(eps):
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")


def _attraction_estimator(model, scheme, n_paths, T, h, x0, target, eps):
    """(start, observer, finish) of equilibrium_attraction, after its checks."""
    _check_attraction(eps)
    _check_state(model, target, "target")
    _check_ensemble(model, scheme, n_paths, T, h)
    target = np.asarray(target, dtype=float)
    terminal = np.empty((n_paths, model.n))

    def keep_last(k, block):
        terminal[:] = block[-1]

    def finish():
        dist = np.linalg.norm(terminal - target, axis=-1)
        n_good = int(np.sum(dist <= eps))
        frac = n_good / n_paths
        half = 1.96 * math.sqrt(max(frac * (1.0 - frac), 0.0) / n_paths)
        return AttractionEstimate(frac, half, n_paths, n_good)

    return x0, keep_last, finish


def _start_key(start):
    """What two estimators must share to share a pass: a sampler itself
    (compared by identity), a state its float64 bytes, so 0.0 and -0.0 do
    not share."""
    return start if callable(start) else np.asarray(start, dtype=float).tobytes()


def _estimates(estimators, model, scheme, n_paths, T, h, seed, threads=1):
    """Yield the estimate of each (start, observer, finish) estimator in order.

    Estimators with the same _start_key share one run_ensemble pass, run
    when the first of them is reached.  Every observer sees the states it
    would see in a pass of its own, so each estimate is the same bit for bit,
    and an IntegrationError aborts where the first of them would.
    """
    keys = [_start_key(start) for start, _, _ in estimators]
    done = {}
    for i, (start, _, _) in enumerate(estimators):
        if i not in done:
            group = [j for j in range(i, len(estimators)) if keys[j] == keys[i]]
            run_ensemble(model, start, scheme, n_paths, seed, functionals=(), T=T, h=h,
                         observers=[estimators[j][1] for j in group], threads=threads)
            done.update((j, estimators[j][2]()) for j in group)
        yield done.pop(i)


_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def check_symplecticity(
    model: ModelSpec,
    scheme: str,
    x0,
    h: float,
    T: float,
    path: Optional[NoisePath] = None,
) -> float:
    """Frobenius defect ||DPhi^T J DPhi - J|| of the pathwise flow map on R^2.

    DPhi is the Jacobian of x0 -> x_T along one fixed noise realization,
    column j the complex step vecalg.derivative along e_j (nested for a model
    from strat_to_ito), so the model's fields must keep complex states
    complex.  A stochastic model needs a path, of _grid_steps(T, h) steps.
    Raises ValueError, before any step, unless x0 holds 2 finite components.
    """
    _check_symplectic(model, scheme)
    x0 = _check_start(model, x0)
    n_steps = _grid_steps(T, h) if T else 0
    times, noise = np.arange(n_steps + 1) * h, np.empty((n_steps, model.noise_dim))
    if path is not None:
        if path.n_steps != n_steps or (n_steps and path.h != h):
            raise ValueError(f"path has {path.n_steps} steps up to t={path.times[-1]:g}, "
                             f"not {n_steps} of h={h:g} up to T={T:g}")
        _check_path(model, path)
        times, noise = path.times, path.increments
    elif model.noise_dim and n_steps:
        raise ValueError("stochastic symplecticity check needs a NoisePath")
    flow = partial(_scheme_states, model, scheme, times=times, noise=noise, record=False)
    dphi = np.stack([derivative(flow, x0, e) for e in np.eye(2)], axis=-1)
    return float(np.linalg.norm(dphi.T @ _J2 @ dphi - _J2))


def _check_symplectic(model, scheme):
    """Raise ValueError unless check_symplecticity can run scheme on model."""
    _check_scheme(model, scheme)
    if model.n != 2 or model.interpretation == "rode":
        raise ValueError("symplecticity check needs a planar ode, ito or stratonovich model")


def ll_decomposition_residual(z, b, alpha: float) -> float:
    """Relative gap between the bracket decomposition and the damped precession drift.

    With H(z) = z.b, the sign=+1 bracket makes the precession -z^b Hamiltonian,
    and the damping -alpha z^(z^b) is the double-bracket flow of the same H, so
    X_H + X_dd must equal the full drift -z^b - alpha z^(z^b).
    """
    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    H = linear_field(b)
    total = hamiltonian_vf(H, z, PoissonStructure(+1)) + double_bracket_vf(
        H, z, DoubleBracketStructure(alpha)
    )
    rhs = -cross(z, b) - alpha * cross(z, cross(z, b))
    scale = max(float(norm(rhs)), np.finfo(float).tiny)
    return float(norm(total - rhs)) / scale
