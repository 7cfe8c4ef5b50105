"""Model catalog: named builders for the Larmor / Landau-Lifshitz family,
the Kubo oscillator, the scalar linear SDE and the isochronous oscillators.

Every builder returns a validated ModelSpec.  Drift terms are written once,
in component form (functions of the state components xs and, for RODE
models, of the eta components ws, see ModelSpec.kernel); the drift terms
and the kernel are derived from them.  Stochastic entries write their noise
once, as the component-form action sigma(t, x) dW that the schemes step on.
ModelSpec derives the array drift and the sigma matrix, which the checkers
and the generator use, from the kernel; the Wong-Zakai conversion
(integrate.strat_to_ito) works on the action itself.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .integrate import ModelSpec, _stacked, validate_model
from .noise import NoisePath, iterated_log_eta

REQUIRED = object()

_SCHEMAS = {
    "larmor": {"b": (0.0, 0.0, 1.0)},
    "larmor_external": {"b": (0.0, 0.0, 1.0), "eps": 0.1, "sigma_mat": None},
    "larmor_preserving": {"b": (0.0, 0.0, 1.0), "gamma": 1.0},
    "ll": {"b": (0.0, 0.0, 1.0), "alpha": 1.0},
    "ell": {"b": (0.0, 0.0, 1.0), "alpha": 1.0, "eps": 0.1, "interpretation": REQUIRED},
    "etore_invariantized": {"b": (0.0, 0.0, 1.0), "alpha": 1.0, "eps": 0.1},
    "modified_etore": {"b": (0.0, 0.0, 1.0), "alpha": 1.0, "eps": 0.1},
    "rode_ll": {"b": (0.0, 0.0, 1.0), "alpha": 1.0, "scalar_eta": True, "t_min": 3.0},
    "kubo": {"a": 1.0, "sigma": 0.5},
    "scalar_linear": {"a": REQUIRED, "b_scalar": REQUIRED},
    "isochronous": {"omega": REQUIRED, "eps": 0.1},
}

CATALOG = tuple(sorted(_SCHEMAS))


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog model name with its parameter values."""

    name: str
    params: dict = field(default_factory=dict)
    interpretation: Optional[str] = None


def build_model(entry, **overrides) -> ModelSpec:
    """Build a validated ModelSpec from a CatalogEntry or a catalog name."""
    if isinstance(entry, CatalogEntry):
        name = entry.name
        params = dict(entry.params)
        if entry.interpretation is not None:
            params.setdefault("interpretation", entry.interpretation)
    else:
        name = str(entry)
        params = {}
    params.update(overrides)
    if name not in _SCHEMAS:
        raise ValueError(f"unknown catalog model {name!r}; known: {', '.join(CATALOG)}")
    schema = _SCHEMAS[name]
    unknown = set(params) - set(schema)
    if unknown:
        raise ValueError(f"{name}: unknown parameters {sorted(unknown)}")
    resolved = {}
    for key, default in schema.items():
        if key in params:
            resolved[key] = params[key]
        elif default is REQUIRED:
            raise ValueError(f"{name}: missing required parameter {key!r}")
        else:
            resolved[key] = default
        if key != "scalar_eta" and _bad_number(resolved[key]):
            raise ValueError(f"{name}: {key} must hold finite numbers, got {resolved[key]!r}")
    model = _BUILDERS[name](**resolved)
    validate_model(model)
    return model


def _bad_number(value):
    """Whether value, a number or a nested sequence of them, holds a bool or
    a number that is not a finite float (nan, inf, or an int beyond range)."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return any(map(_bad_number, np.asarray(value, dtype=object).flat))
    if isinstance(value, np.generic):
        value = value.item()
    return isinstance(value, bool) or (
        isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max)


def _field_vector(b, who):
    """The effective field as a tuple of three floats (component constants)."""
    b = np.asarray(b, dtype=float).reshape(3)
    if np.all(b == 0.0):
        raise ValueError(f"{who}: effective field b must be nonzero")
    return tuple(b.tolist())


def _check_nonneg(who, **vals):
    for key, v in vals.items():
        if v < 0:
            raise ValueError(f"{who}: {key} must be >= 0, got {v}")


def _cross_c(u, v):
    """u ^ v on component sequences, in the operation order of vecalg.cross."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)


def _ll_c(x, v, alpha):
    """-x ^ v - alpha x ^ (x ^ v) by components: the Landau-Lifshitz drift for
    v = b, and sigma_etore(x) v, i.e. the noise action, for v = dW."""
    c0, c1, c2 = _cross_c(x, v)
    d0, d1, d2 = _cross_c(x, (c0, c1, c2))
    return (-c0 - alpha * d0, -c1 - alpha * d1, -c2 - alpha * d2)


def _scaled(s, v):
    return (s * v[0], s * v[1], s * v[2])


def _summed(fns):
    """Componentwise sum of component-form terms."""
    first, rest = fns[0], fns[1:]
    if not rest:
        return first

    def total(t, x, *ws):
        out = first(t, x, *ws)
        for fn in rest:
            out = [a + b for a, b in zip(out, fn(t, x, *ws))]
        return out

    return total


def _spec(n, noise_dim, interpretation, terms, action=None, total=None, **fields) -> ModelSpec:
    """ModelSpec from named component-form drift terms (t, xs, *ws) -> f,
    and the noise action (t, xs, ws) -> sigma(t, x) dW of a stochastic model;
    kernel and drift terms derived (ModelSpec derives drift and diffusion
    from the kernel).  ws holds the eta components of a RODE model; ODE terms
    ignore it.  total, if given, is the sum of the terms in one pass, equal
    to their sum bit for bit."""
    drift_c = total or _summed([fn for _, fn in terms])
    if action is None:
        def kernel(t, xs, ws):
            return drift_c(t, xs, ws), ()
    else:
        def kernel(t, xs, ws):
            return drift_c(t, xs), action(t, xs, ws)
    eta_dim = fields.get("eta_dim", 0)

    return ModelSpec(
        n=n, noise_dim=noise_dim, interpretation=interpretation, kernel=kernel,
        drift_terms=tuple((name, _stacked(fn, eta_dim)) for name, fn in terms), **fields,
    )


def _ll_drift(field, alpha):
    """Precession -x ^ b and damping -alpha x ^ (x ^ b) for b = field(*ws),
    and their total, which forms x ^ b once: -c + (-alpha) d and
    -c - alpha d round alike."""

    def precession(t, x, *ws):
        c0, c1, c2 = _cross_c(x, field(*ws))
        return (-c0, -c1, -c2)

    def damping(t, x, *ws):
        return _scaled(-alpha, _cross_c(x, _cross_c(x, field(*ws))))

    def total(t, x, *ws):
        return _ll_c(x, field(*ws), alpha)

    return {"terms": (("precession", precession), ("damping", damping)), "total": total}


def _larmor_terms(b):
    return (("precession", lambda t, x, *ws: _cross_c(x, b)),)


def _build_larmor(b):
    b = _field_vector(b, "larmor")
    return _spec(3, 0, "ode", _larmor_terms(b), name="larmor", params={"b": b})


def _build_larmor_external(b, eps, sigma_mat):
    b = _field_vector(b, "larmor_external")
    _check_nonneg("larmor_external", eps=eps)
    sm = np.eye(3) if sigma_mat is None else np.asarray(sigma_mat, dtype=float).reshape(3, 3)
    if np.all(sm == 0.0):
        raise ValueError("larmor_external: sigma_mat must be nonzero")
    rows = sm.tolist()

    def action(t, x, w):
        v = [r0 * w[0] + r1 * w[1] + r2 * w[2] for r0, r1, r2 in rows]
        return _scaled(eps, _cross_c(x, v))

    return _spec(
        3, 3, "stratonovich", _larmor_terms(b), action,
        name="larmor_external", params={"b": b, "eps": eps},
    )


def _build_larmor_preserving(b, gamma):
    b = _field_vector(b, "larmor_preserving")
    if gamma == 0:
        raise ValueError("larmor_preserving: gamma must be nonzero")

    def action(t, x, w):
        return _scaled(gamma * w[0], _cross_c(x, b))

    return _spec(
        3, 1, "stratonovich", _larmor_terms(b), action,
        name="larmor_preserving", params={"b": b, "gamma": gamma},
    )


def _build_ll(b, alpha):
    b = _field_vector(b, "ll")
    _check_nonneg("ll", alpha=alpha)
    return _spec(3, 0, "ode", **_ll_drift(lambda *ws: b, alpha),
                 name="ll", params={"b": b, "alpha": alpha})


def _build_ell(b, alpha, eps, interpretation):
    b = _field_vector(b, "ell")
    _check_nonneg("ell", alpha=alpha, eps=eps)
    if interpretation not in ("ito", "stratonovich"):
        raise ValueError(f"ell: interpretation must be ito or stratonovich, got {interpretation!r}")

    def action(t, x, w):
        return _scaled(eps, _ll_c(x, w, alpha))

    return _spec(
        3, 3, interpretation, action=action, **_ll_drift(lambda *ws: b, alpha),
        name=f"ell_{interpretation}",
        params={"b": b, "alpha": alpha, "eps": eps},
    )


def _rescale_rate(t, eps, alpha):
    d = 2.0 * eps**2 * (alpha**2 + 1.0)
    return d, d * t + 1.0


def _etore_terms(b, alpha, eps):
    """Time rescaling and the rescaled Landau-Lifshitz drift of both Etore variants."""

    def rescaling(t, x):
        d, den = _rescale_rate(t, eps, alpha)
        return _scaled(-0.5 * d / den, x)

    def ll_part(t, x):
        s = math.sqrt(_rescale_rate(t, eps, alpha)[1])
        l0, l1, l2 = _ll_c(x, b, alpha)
        return (l0 / s, l1 / s, l2 / s)

    return (("rescaling", rescaling), ("landau-lifshitz", ll_part))


def _build_etore_invariantized(b, alpha, eps):
    b = _field_vector(b, "etore_invariantized")
    _check_nonneg("etore_invariantized", alpha=alpha, eps=eps)

    # The noise keeps the eps amplitude of the unrescaled equation: the rate
    # 2 eps^2 (alpha^2+1) in the rescaling is tuned to cancel exactly the
    # norm drift tr(eps^2 sigma sigma^T) = 2 eps^2 (alpha^2+1) on the sphere,
    # so L ||x||^2 = 0 there and the flow stays on S^2 almost surely.
    def action(t, x, w):
        s = math.sqrt(_rescale_rate(t, eps, alpha)[1])
        return _scaled(eps / s, _ll_c(x, w, alpha))

    return _spec(
        3, 3, "ito", _etore_terms(b, alpha, eps), action, name="etore_invariantized",
        params={"b": b, "alpha": alpha, "eps": eps},
    )


def _build_modified_etore(b, alpha, eps):
    b = _field_vector(b, "modified_etore")
    _check_nonneg("modified_etore", alpha=alpha, eps=eps)

    # single noise channel eps sigma(t, x) b with a 1-dim Brownian motion
    def action(t, x, w):
        s = math.sqrt(_rescale_rate(t, eps, alpha)[1])
        return _scaled(eps / s * w[0], _ll_c(x, b, alpha))

    return _spec(
        3, 1, "ito", _etore_terms(b, alpha, eps), action, name="modified_etore",
        params={"b": b, "alpha": alpha, "eps": eps},
    )


def _build_rode_ll(b, alpha, scalar_eta, t_min):
    b = _field_vector(b, "rode_ll")
    _check_nonneg("rode_ll", alpha=alpha)
    if scalar_eta and not t_min > math.e:  # iterated_log_eta's normalizer needs it
        raise ValueError(f"rode_ll: t_min must exceed e ~ 2.718, got {t_min}")

    if scalar_eta:
        # equilibrium-preserving subfamily b_t = b0 eta_t with scalar eta
        def effective_field(ws):
            return _scaled(ws[0], b)
    else:
        def effective_field(ws):
            return tuple(ws)

    eta_builder = partial(iterated_log_eta, t_min=t_min) if scalar_eta else None
    return _spec(
        3, 0, "rode", **_ll_drift(effective_field, alpha),
        eta_dim=1 if scalar_eta else 3,
        eta_builder=eta_builder,
        name="rode_ll",
        params={"b": b, "alpha": alpha, "scalar_eta": scalar_eta, "t_min": t_min},
    )


def _build_kubo(a, sigma):
    def rotation(t, x):
        return (-a * x[1], a * x[0])

    def action(t, x, w):
        return (-sigma * x[1] * w[0], sigma * x[0] * w[0])

    return _spec(
        2, 1, "stratonovich", (("rotation", rotation),), action,
        name="kubo", params={"a": a, "sigma": sigma},
    )


def kubo_exact(a, sigma, x0, path: NoisePath) -> np.ndarray:
    """Closed-form Kubo solution on the path grid: rotation by a t + sigma W_t.

    The drift and diffusion generators commute, so the Stratonovich flow is
    the planar rotation through the random angle.
    """
    theta = a * path.times + sigma * path.cumulative()[:, 0]
    c, s = np.cos(theta), np.sin(theta)
    x0 = np.asarray(x0, dtype=float)
    return np.stack([c * x0[0] - s * x0[1], s * x0[0] + c * x0[1]], axis=-1)


def _build_scalar_linear(a, b_scalar):
    def linear(t, x):
        return (a * x[0],)

    def action(t, x, w):
        return (b_scalar * x[0] * w[0],)

    return _spec(
        1, 1, "ito", (("linear", linear),), action,
        name="scalar_linear", params={"a": a, "b_scalar": b_scalar},
    )


def scalar_linear_exact(a, b_scalar, x0, path: NoisePath) -> np.ndarray:
    """Closed-form solution x0 exp((a - b^2/2) t + b W_t) on the path grid."""
    w = path.cumulative()[:, 0]
    return x0 * np.exp((a - 0.5 * b_scalar**2) * path.times + b_scalar * w)


def _build_isochronous(omega, eps):
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    m = omega.shape[0]
    if m == 0:
        raise ValueError("isochronous: omega must be a nonempty frequency list")
    amps = np.broadcast_to(np.asarray(eps, dtype=float), (m,)).astype(float)
    if np.any(amps < 0):
        raise ValueError("isochronous: noise amplitudes must be >= 0")
    # state is (I_1..I_m, theta_1..theta_m); dI = 0, d theta_i = omega_i dt + eps_i o dB
    rate = tuple(np.concatenate([np.zeros(m), omega]).tolist())
    still, amp_list = (0.0,) * m, amps.tolist()

    def frequency(t, x):
        return rate

    def action(t, x, w):
        return still + tuple(amp * w[0] for amp in amp_list)

    return _spec(
        2 * m, 1, "stratonovich", (("frequency", frequency),), action, name="isochronous",
        params={"omega": tuple(omega), "eps": tuple(amps)},
    )


def wrap_angles(model: ModelSpec, states: np.ndarray) -> np.ndarray:
    """Reduce isochronous angle coordinates mod 2 pi (output-time only)."""
    if model.name != "isochronous":
        return states
    m = model.n // 2
    out = np.array(states, dtype=float)
    out[..., m:] = np.mod(out[..., m:], 2.0 * np.pi)
    return out


_BUILDERS = {
    "larmor": _build_larmor,
    "larmor_external": _build_larmor_external,
    "larmor_preserving": _build_larmor_preserving,
    "ll": _build_ll,
    "ell": _build_ell,
    "etore_invariantized": _build_etore_invariantized,
    "modified_etore": _build_modified_etore,
    "rode_ll": _build_rode_ll,
    "kubo": _build_kubo,
    "scalar_linear": _build_scalar_linear,
    "isochronous": _build_isochronous,
}
