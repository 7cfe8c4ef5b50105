"""Time-stepping for ODE / Ito / Stratonovich / RODE models.

Provides Euler-Maruyama (Ito), predictor-corrector stochastic Heun
(Stratonovich), classical RK4 (deterministic), pathwise RODE integration on
sampled parameter processes, the Stratonovich-to-Ito drift conversion, the
infinitesimal generator, and reproducible ensemble execution.

All steppers take states with the components on the last axis and broadcast
over leading batch axes; ensembles step path batches at once, a range per process.
Every scheme is an advance function on the model's component-form kernel,
compiled into a loop on Python floats for a single path and one of ufunc
calls on float64 component arrays of a batch (_fused).  Per-path arithmetic is
elementwise, so a path stepped alone equals it inside a batch, bit for bit.
"""
from __future__ import annotations

import errno
import io
import math
import mmap
import numbers
import os
import pickle
import sys
import warnings
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial, reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .noise import (
    DOMAIN_BASE,
    DOMAIN_ENSEMBLE,
    DOMAIN_REFINE,
    DOMAIN_SAMPLER,
    NoisePath,
    ParameterProcess,
    _fresh_streams,
    _grid_steps,
    _noise_pieces,
    derive_seed,
    philox_keys,
)
from .vecalg import ScalarField, _Derived, derivative

INTERPRETATIONS = ("ode", "ito", "stratonovich", "rode")

# scheme id -> model interpretation it integrates
SCHEMES = {
    "euler_maruyama": "ito",
    "heun": "stratonovich",
    "rk4": "ode",
    "rode_heun": "rode",
    "rode_euler": "rode",
}


class IntegrationError(RuntimeError):
    """Non-finite state encountered; carries the step index and partial data."""

    def __init__(self, message, step=None, time=None, states=None, path_index=None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.states = states
        self.path_index = path_index


@dataclass(frozen=True)
class ModelSpec:
    """A model under a fixed interpretation, stated once by its kernel.

    kernel is the component form (t, xs, ws) -> (f, g) that every scheme
    steps on: xs holds the n state components, f the drift's.  ws holds the
    noise_dim components of dW and g those of sigma(t, x) dW for
    ito/stratonovich models, the eta components for rode models (g unused);
    ode models ignore ws and g.  Each component is a Python float (one path;
    complex under a complex step) or a (B,) array (a batch); a kernel of +,
    -, * and constants is bitwise equal on both, lets inf/nan propagate, and
    keeps complex components complex (strat_to_ito and check_symplecticity
    raise ValueError on one that casts them to float).  Each scheme traces
    it once, reading its constants then, into compiled loops of the same
    operations (_fused); a kernel that branches on a value steps as written.

    drift and diffusion, the array forms that the checkers and the generator
    use, are derived from the kernel: drift(t, x) (drift(t, x, eta) for rode
    models) is its f, and column k of the (n, l) matrix diffusion(t, x) of an
    ito/stratonovich model is its g on dW = e_k.  Both broadcast over leading
    batch axes of x.  A value passed for either is kept as given; a derived
    one is derived again whenever a ModelSpec is made, so
    dataclasses.replace(model, kernel=k) derives both from k.

    eta_builder, which RODE ensembles and studies need, maps times (rows,)
    and the driving Brownian values W (rows, P) of P paths at those times,
    one time block at a time, to their eta, (rows, P) or (rows, P, eta_dim).
    """

    n: int
    noise_dim: int
    interpretation: str
    kernel: Callable
    drift: Optional[Callable] = None
    diffusion: Optional[Callable] = None
    drift_terms: tuple = ()
    eta_dim: int = 0
    eta_builder: Optional[Callable] = None
    name: str = "model"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.interpretation not in INTERPRETATIONS:
            raise ValueError(f"unknown interpretation {self.interpretation!r}")
        stochastic = self.interpretation in ("ito", "stratonovich")
        if self.diffusion is None or isinstance(self.diffusion, _Derived):
            object.__setattr__(self, "diffusion", _kernel_sigma(self) if stochastic else None)
        elif not stochastic:
            raise ValueError(f"{self.interpretation} model must not carry a state diffusion")
        if self.drift is None or isinstance(self.drift, _Derived):
            object.__setattr__(self, "drift", _kernel_drift(self))


def _kernel_drift(model):
    """drift(t, x[, eta]) of model: the kernel's f, at dW = 0 for a stochastic model."""
    kernel, zero = model.kernel, [0.0] * model.noise_dim

    def f(t, xs, ws=zero):
        return kernel(t, xs, ws)[0]

    return _Derived(_stacked(f, model.eta_dim))


def _kernel_sigma(model):
    """sigma(t, x) of model, as an (..., n, l) array: the kernel's g is linear
    in dW, so column k of sigma is g on the unit vector e_k, exactly."""
    kernel = model.kernel
    columns = [_stacked(lambda t, xs, w=w: kernel(t, xs, w)[1])
               for w in np.eye(model.noise_dim).tolist()]
    return _Derived(lambda t, x: np.stack([column(t, x) for column in columns], axis=-1))


def validate_model(model: ModelSpec, x=None) -> None:
    """Probe the kernel at x (ones by default), t = 0 and every noise or eta
    component 1; raise ValueError unless it returns the model's n drift
    components (and n noise components for ito/stratonovich)."""
    x = np.ones(model.n) if x is None else np.asarray(x, dtype=float)
    _check_state(model, x, "x")
    ws = [1.0] * (max(model.eta_dim, 1) if model.interpretation == "rode" else model.noise_dim)
    f, g = model.kernel(0.0, [x[..., i] for i in range(model.n)], ws)
    if len(f) != model.n or (model.diffusion is not None and len(g) != model.n):
        raise ValueError(f"kernel returned {len(f)} drift and {len(g)} noise "
                         f"components, expected {model.n}")


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed states of one integrated path."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("states must carry one row per grid time")


@dataclass(frozen=True)
class EnsembleStats:
    """Per-time mean/variance of functionals over independent paths."""

    times: np.ndarray
    functional_names: tuple
    mean: np.ndarray      # shape (n_functionals, N+1)
    variance: np.ndarray  # population variance, same shape
    n_paths: int


def _check_finite(x, k, t, states, last):
    """Raise IntegrationError unless x, the state after step k, is finite;
    last is the state before that step.  The message names the failing
    path's last state, and its index on the first batch axis."""
    if np.isfinite(x).all():
        return
    where = tuple(np.argwhere(~np.isfinite(x).all(axis=-1))[0])
    bad = int(where[0]) if where else None
    raise IntegrationError(
        f"non-finite state at step {k} (t={t:g}), "
        + ("" if bad is None else f"path index {bad}, ") + _last_finite(last[where]),
        step=k, time=t, states=states, path_index=bad,
    )


def _check_real(xs, dtype):
    """Raise TypeError where rows of dtype are real and a component in xs is complex."""
    if dtype.kind == "f":
        for c in xs:
            if not isinstance(c, float) and (isinstance(c, complex) or c.dtype.kind == "c"):
                raise TypeError("a real x0 takes complex states; start from a complex x0")


def _last_finite(x):
    return "last finite state [" + ", ".join(f"{v:.17g}" for v in np.ravel(x)) + "]"


def _stacked(fn, eta_dim=0):
    """The (..., n)-array form (t, x[, eta]) of a component-form fn(t, xs[, ws]);
    an eta of eta_dim > 1 components is split on its last axis like x."""

    def field(t, x, *eta):
        x = np.asarray(x, dtype=float)
        ws = [[e] if eta_dim <= 1 else list(np.moveaxis(np.asarray(e, dtype=float), -1, 0))
              for e in eta]
        comps = fn(t, [x[..., i] for i in range(x.shape[-1])], *ws)
        shape = np.broadcast_shapes(x.shape[:-1], *(np.shape(c) for c in comps))
        out = np.empty(shape + (len(comps),))
        for i, c in enumerate(comps):
            out[..., i] = c
        return out

    return field


def _em_advance(kernel, t, h, xs, w, k):
    f, g = kernel(t, xs, w(k))
    return [x + a * h + b for x, a, b in zip(xs, f, g)]


def _heun_advance(kernel, t, h, xs, w, k):
    ws = w(k)
    f0, g0 = kernel(t, xs, ws)
    xp = [x + a * h + b for x, a, b in zip(xs, f0, g0)]
    f1, g1 = kernel(t + h, xp, ws)
    hh = 0.5 * h
    return [x + hh * (a + c) + 0.5 * (b + d) for x, a, b, c, d in zip(xs, f0, g0, f1, g1)]


def _rk4_advance(kernel, t, h, xs, w, k):
    hh = 0.5 * h
    k1 = kernel(t, xs, ())[0]
    k2 = kernel(t + hh, [x + hh * a for x, a in zip(xs, k1)], ())[0]
    k3 = kernel(t + hh, [x + hh * a for x, a in zip(xs, k2)], ())[0]
    k4 = kernel(t + h, [x + h * a for x, a in zip(xs, k3)], ())[0]
    h6 = h / 6.0
    return [x + h6 * (a + 2.0 * b + 2.0 * c + d) for x, a, b, c, d in zip(xs, k1, k2, k3, k4)]


def _rode_heun_advance(kernel, t, h, xs, w, k):
    f0 = kernel(t, xs, w(k))[0]
    f1 = kernel(t + h, [x + h * a for x, a in zip(xs, f0)], w(k + 1))[0]
    hh = 0.5 * h
    return [x + hh * (a + b) for x, a, b in zip(xs, f0, f1)]


def _rode_euler_advance(kernel, t, h, xs, w, k):
    f = kernel(t, xs, w(k))[0]
    return [x + h * a for x, a in zip(xs, f)]


def strat_to_ito(model: ModelSpec) -> ModelSpec:
    """Wong-Zakai conversion: add the correction drift, flip the interpretation.

    f_cor[i] = f[i] + 1/2 sum_k sum_j sigma[j,k] d sigma[i,k] / d x[j], where
    the inner sum, the derivative of column k along itself, is one complex
    step s D g(t, x, e_k)[sigma_k / s] (vecalg.derivative) of the noise
    action g (sigma_k = g(t, x, e_k), s = _scale(sigma_k)): exact to rounding
    for a kernel of +, -, * and constants.  An action that drops the
    imaginary part raises ValueError.  The Ito model's kernel adds the
    correction to f, and its drift is derived from that kernel, even where
    model was given an explicit drift.  On complex states the correction
    steps along the second unit, so check_symplecticity checks the model.
    """
    _require(model, "stratonovich")
    kernel = model.kernel
    units = np.eye(model.noise_dim).tolist()

    def correction(t, xs):
        total = [0.0] * len(xs)
        for w in units:
            sigma = kernel(t, xs, w)[1]
            s = _scale(sigma)
            dg = derivative(lambda ys: kernel(t, ys, w)[1], xs, [c / s for c in sigma])
            total = [a + d * s for a, d in zip(total, dg)]
        return [0.5 * a for a in total]

    correction(0.0, [1.0] * model.n)  # raises ValueError if the action drops imaginary parts

    def ito_kernel(t, xs, ws):
        f, g = kernel(t, xs, ws)
        return [a + c for a, c in zip(f, correction(t, xs))], g

    return replace(model, interpretation="ito", kernel=ito_kernel, drift=None,
                   drift_terms=tuple(model.drift_terms) + (("wong-zakai", _stacked(correction)),),
                   name=model.name + "_ito", params=dict(model.params))


def _scale(comps):
    """Per path, the power of two s with s <= max_i |Re comps[i]| < 2 s (1/2
    where all vanish).  A complex step along comps / s, scaled back by s,
    rounds like one along comps, but its step delta * comps / s underflows
    only where a component is tiny against the largest."""
    if all(isinstance(c, (float, complex)) for c in comps):
        return math.ldexp(0.5, math.frexp(max(abs(c.real) for c in comps))[1])
    return np.ldexp(0.5, np.frexp(reduce(np.maximum, (np.abs(np.real(c)) for c in comps)))[1])


def apply_generator(model: ModelSpec, V: ScalarField, t: float, x) -> float:
    """Generator L V = grad V . f + 1/2 sum_ij (d2 V / dx_i dx_j) (sigma sigma^T)_ij.

    Fields here are time-independent, so the dV/dt term vanishes.  Raises
    ValueError unless x has the model's n components and the model is Ito.
    """
    _check_state(model, x, "x")
    _require(model, "ito")
    x = np.asarray(x, dtype=float)
    sig = np.asarray(model.diffusion(t, x))
    first = float(np.sum(V.gradient(x) * model.drift(t, x)))
    second = 0.5 * float(np.sum(V.hessian(x) * (sig @ sig.T)))
    return first + second


def integrate_path(model: ModelSpec, x0, scheme: str, path: NoisePath | None = None,
                   grid=None, eta: ParameterProcess | None = None) -> Trajectory:
    """Integrate one path under the named scheme: on a noise path for
    euler_maruyama and heun, on a time grid for rk4, and on a parameter
    process eta for the RODE schemes.  x0 must be finite.  A keyword the
    scheme does not read, such as path= for rk4, raises ValueError."""
    _check_scheme(model, scheme)
    reads = {"ode": "grid", "rode": "eta"}.get(model.interpretation, "path")
    for key, value in (("path", path), ("grid", grid), ("eta", eta)):
        if value is not None and key != reads:
            raise ValueError(f"scheme {scheme!r} reads {reads}=, not {key}=")
    if model.interpretation in ("ito", "stratonovich"):
        if path is None:
            raise ValueError(f"scheme {scheme!r} needs a noise path")
        _check_path(model, path)
        times, noise = path.times, path.increments
    elif model.interpretation == "ode":
        if grid is None:
            raise ValueError("scheme 'rk4' needs a time grid")
        times = np.asarray(grid, dtype=float)
        noise = np.empty((len(times) - 1, 0))
    else:
        if eta is None:
            raise ValueError(f"scheme {scheme!r} needs a parameter process eta")
        _check_eta(model, eta.dim)
        times, noise = eta.times, np.asarray(eta.values).reshape(len(eta.times), eta.dim)
    states = _scheme_states(model, scheme, _check_start(model, x0), times, noise)
    return Trajectory(times=times.copy(), states=states)


def default_scheme(model: ModelSpec) -> str:
    for scheme, interp in SCHEMES.items():
        if interp == model.interpretation:
            return scheme
    raise ValueError(f"no scheme for interpretation {model.interpretation!r}")


def _check_scheme(model: ModelSpec, scheme: str) -> None:
    """Raise ValueError unless scheme is known and integrates the model's interpretation."""
    if not isinstance(scheme, str) or scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; known: {sorted(SCHEMES)}")
    if SCHEMES[scheme] != model.interpretation:
        raise ValueError(
            f"scheme {scheme!r} integrates {SCHEMES[scheme]} models, "
            f"not {model.interpretation}"
        )


def _check_ensemble(model: ModelSpec, scheme: str, n_paths: int, T: float, h: float,
                    threads: int = 1) -> int:
    """Raise ValueError unless n_paths paths of scheme can step model by h to
    T, in threads processes at most; return N."""
    _check_scheme(model, scheme)
    if model.interpretation == "rode" and model.eta_builder is None:
        raise ValueError(f"RODE runs need a model with an eta_builder; {model.name} has none")
    for name, count in (("n_paths", n_paths), ("threads", threads)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    return _grid_steps(T, h)


def _check_state(model: ModelSpec, x, what: str = "x0") -> None:
    """Raise ValueError unless the last axis of x holds the model's n components."""
    k = np.shape(x)[-1:] or (0,)
    if k != (model.n,):
        raise ValueError(f"{what} has {k[0]} components, {model.name} needs {model.n}")


def _check_start(model: ModelSpec, x0) -> np.ndarray:
    """x0 as floats; raises ValueError unless it holds model.n finite components."""
    _check_state(model, x0)
    x0 = np.asarray(x0, dtype=float)
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    return x0


# scheme id -> its advance function on the component form
_ADVANCE = {"euler_maruyama": _em_advance, "heun": _heun_advance, "rk4": _rk4_advance,
            "rode_heun": _rode_heun_advance, "rode_euler": _rode_euler_advance}

# traced operation ("neg" the unary minus) -> the ufunc a batch step calls
_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide, "neg": np.negative}


class _Traced:
    """What a fusing trace steps on in place of t, h, a state or a noise
    component: +, -, * and / with numbers or traced values, and unary minus,
    append one operation to ops, in operand order.  bool(), a comparison,
    float(), abs() or a numpy function on one raises TypeError."""

    __array_ufunc__ = __bool__ = __eq__ = __ne__ = None  # numpy defers; the rest raise

    def __init__(self, ops, name):
        self.ops, self.name = ops, name

    def _op(self, symbol, *args):
        if not all(isinstance(a, (_Traced, numbers.Number)) for a in args):
            return NotImplemented
        self.ops.append((f"v{len(self.ops)}", symbol, args))
        return _Traced(self.ops, self.ops[-1][0])

    __neg__ = lambda a: a._op("-", a)  # noqa: E731
    __add__, __sub__, __mul__, __truediv__ = ((lambda a, b, s=s: a._op(s, a, b)) for s in "+-*/")
    __radd__, __rsub__, __rmul__, __rtruediv__ = (
        (lambda a, b, s=s: a._op(s, b, a)) for s in "+-*/")


@lru_cache(maxsize=64)
def _fused(scheme, kernel, n, l):
    """The scheme's advance on kernel, traced once on _Traced operands and
    compiled into loops of its operations, the same on the same operands in
    the same order, so the same states bit for bit; an operation that no
    output reads is dead and never runs there, so it neither raises nor
    warns, where the advance as written does.  Returns that advance where
    the trace cannot follow the kernel, else a copy of it (for steps one at
    a time) carrying path(tl, wl, xs, out), which steps one path on Python
    numbers from the state components xs over the times tl, reading w(k + j)
    at row k + j of the flat noise rows wl, extends out by each state and
    returns the last, and, with int and float constants only, block(), which
    compiles the loop of a float64 batch at its first call."""
    advance, ops, rows, consts = _ADVANCE[scheme], [], {}, {}
    xs = [_Traced(ops, f"x{i}") for i in range(n)]

    def name(v):  # a constant is bound by name, never formatted into the source
        if isinstance(v, _Traced):
            return v.name
        return consts.setdefault(id(v), (f"c{len(consts)}", v))[0]
    try:  # an output the trace lost (no _Traced) raises AttributeError
        returned = [v.name for v in advance(
            kernel, _Traced(ops, "t"), _Traced(ops, "h"), xs,
            lambda j: rows.setdefault(j, [_Traced(ops, f"w{j}_{i}") for i in range(l)]), 0)]
    except Exception:  # whatever stops the trace, stepping as written decides
        return advance
    uses = Counter(returned)
    for target, _, args in reversed(ops):  # reads by the outputs and by what they read
        uses.update(name(a) for a in args if uses[target])
    live = [(target, symbol, [*map(name, args)]) for target, symbol, args in ops if uses[target]]
    xnames, wnames = [*map(name, xs)], [name(w) for row in rows.values() for w in row]
    bound = {c: np.asarray(v) if isinstance(v, float) else v for c, v in consts.values()}
    namespace = dict(consts.values(), array=np.array, empty_like=np.empty_like,
                     **{u.__name__: u for u in _UFUNCS.values()},
                     **{f"{c}_": v for c, v in bound.items()})
    expr = {v: "- " * (not args[1:]) + f" {s} ".join(args) for v, s, args in live}  # on floats
    state, iters = ", ".join(xnames), "".join(f", i{j}" * l for j in rows)
    exec("\n".join([  # constants are locals, as default arguments
        f"def path(tl, wl, xs, out, {''.join(f'{c}={c}, ' for c in bound)}):",
        f"    [{state}] = xs", "    extend = out.extend"] + [
        f"    i{j} = iter(wl[{j * l}:])" for j in rows] + [
        f"    for t, t1{''.join(', ' + w for w in wnames)} in zip(tl, tl[1:]{iters}):",
        "        h = t1 - t"] + [f"        {v} = {e}" for v, e in expr.items()] + [
        f"        {state} = {', '.join(returned)}", f"        extend(({state},))",
        f"    return [{state}]"]), namespace)

    @lru_cache(maxsize=None)
    def block():
        """block(tl, ws, out), the loop of float64 states on float64 noise:
        step k reads row k % R of each component view (R, ...) in out and row
        k + j of each noise view in ws for w(k + j), and writes row (k + 1) % R,
        operations of t, h and constants on Python numbers, each other one a
        ufunc call into its state row or a buffer reused after its last read."""
        scalar, bufs, free = {"t", "h", *bound}, {}, []
        scalar.update(op[0] for op in live if scalar.issuperset(op[2]))
        read = {a: i for i, op in enumerate(live) for a in op[2] if a not in scalar}  # last reader
        zero_d = {a for op in live if op[0] not in scalar for a in op[2] if a in scalar}
        loop = [("t", "tl[k]"), ("h", "tl[k + 1] - t"), ("k1", "(k + 1) % R")] + [
            (x, f"X{i}[k % R]") for i, x in enumerate(xnames)] + [
            (name(c), f"W{i}[k + {j}]") for j, row in rows.items() for i, c in enumerate(row)
            if uses[name(c)]]
        for i, (target, symbol, args) in enumerate(live):
            if target in scalar:
                loop.append((target, expr[target]))
                continue
            free += sorted({bufs.get(a) for a in args if read.get(a) == i} - {None})
            if target in returned:
                dest = f"X{returned.index(target)}[k1]"
            else:
                dest = bufs[target] = free.pop() if free else f"B{len(set(bufs.values()))}"
            loop.append((target, f"{_UFUNCS[symbol if args[1:] else 'neg'].__name__}(" + "".join(
                a + "_" * (a in scalar) + ", " for a in args) + f"out={dest})"))
        exec("\n".join([
            "def block(tl, ws, out):", f"    [{', '.join(f'W{i}' for i in range(l))}] = ws",
            f"    [{', '.join(f'X{i}' for i in range(n))}] = out", "    R = len(X0)"] + [
            f"    {b} = empty_like(X0[0])" for b in dict.fromkeys(bufs.values())] + [
            "    for k in range(len(tl) - 1):"] + [
            f"        {v} = {e}" + f"; {v}_ = array({v})" * (v in zero_d) for v, e in loop]),
            namespace)
        return namespace["block"]
    fused = partial(advance)
    fused.path = namespace["path"]
    if all(isinstance(v, (int, float)) for _, v in consts.values()):
        fused.block = block
    return fused


_PATH_STEPS = 256  # one path's steps per sub-block of its loop: few Python floats held


def _scheme_states(model, scheme, x0, times, noise, record=True, out=None, first=0):
    """Integrate a batch under a checked scheme: step its advance on the
    state components over the grid, in the loops that _fused compiled.

    noise is the (N, ..., l) increment stack of a stochastic scheme, the
    (N+1, ..., l) eta rows of a RODE scheme (step k reads rows k and k+1),
    and unused by rk4.  Its batch axes match those of x0, or it is (rows, l)
    for noise shared by the whole batch.  Every loop steps into one buffer,
    the recorded rows or, with record off, two ping-pong rows (n, 2, ...):
    one path on Python floats (complex for a complex x0) in the path loop,
    _PATH_STEPS steps at a time, and a float64 batch on float64 noise in the
    block loop where the caller ignores underflow, both with floating-point
    errors trapped and only the last state checked: each advance returns
    x + ..., so a component that turns non-finite or complex stays so.  An
    ArithmeticError or a non-finite last state steps again from x0 on the
    advance as written, each state checked under the caller's errstate, as
    any other batch and a kernel that the trace cannot follow step
    throughout.  So states, warnings and aborts are those of the advance as
    written, for a kernel with no dead operation (_fused).  Returns the
    states (N+1,) + x0.shape, recorded into out (an array, or a view, of
    that shape and x0's dtype; x0 may be out[0]) where given, or the
    terminal state when record is off.  Raises ValueError unless x0 holds
    model.n components on its last axis, TypeError before writing a complex
    state into the rows of a real x0, and IntegrationError at a non-finite
    state, naming its step on a grid where times[0] is row first.
    """
    _check_state(model, x0)
    x0 = np.asarray(x0, dtype=np.result_type(x0, float))
    n, l = model.n, noise.shape[-1]
    kernel, advance = model.kernel, _fused(scheme, model.kernel, n, l)
    n_steps = len(times) - 1
    tl = np.asarray(times, dtype=float).tolist()
    states = out if out is not None else (
        np.empty((n_steps + 1,) + x0.shape, dtype=x0.dtype) if record
        else np.moveaxis(np.empty((n, 2) + x0.shape[:-1], dtype=x0.dtype), 0, -1))
    R, end = len(states), n_steps % len(states)
    states[0] = x0
    one = x0.size == n and noise.size == len(noise) * l
    flat = noise.reshape(len(noise), l) if one else None
    if hasattr(advance, "path" if one else "block") and (one or x0.dtype == noise.dtype == float
                                                         and np.geterr()["under"] == "ignore"):
        with suppress(ArithmeticError), np.errstate(over="raise", divide="raise", invalid="raise"):
            if one:  # RODE steps read row k + 1 too
                xs = x0.reshape(n).tolist()
                for c in range(0, n_steps, _PATH_STEPS):
                    d, rows = min(c + _PATH_STEPS, n_steps), []
                    xs = advance.path(tl[c:d + 1], flat[c:d + 1].ravel().tolist(), xs, rows)
                    _check_real(xs, x0.dtype)
                    if record:
                        states[c + 1:d + 1] = np.reshape(rows, (d - c,) + x0.shape)
                states[end] = xs
            else:
                rows = list(np.moveaxis(states, -1, 0))
                advance.block()(tl, [noise[..., j] for j in range(l)], rows)
            if np.isfinite(states[end]).all():
                return states if record else states[end]

    def w(k):
        return flat[k].tolist() if one else [noise[k][..., j] for j in range(l)]
    states[0] = x0  # a compiled ping-pong may have stepped over it
    row, xs = states[0], x0.reshape(n).tolist() if one else [x0[..., i] for i in range(n)]
    for k in range(n_steps):
        t = tl[k]
        xs = advance(kernel, t, tl[k + 1] - t, xs, w, k)
        _check_real(xs, x0.dtype)
        last, row = row, states[(k + 1) % R]
        for i, c in enumerate(xs):
            row[..., i] = c
        _check_finite(row, first + k, t, states[: k + 2] if record else None, last)
    return states if record else states[end]


# State values an ensemble steps per sub-block of a noise piece: 2**17
# float64 values (1 MiB), so the one reused state buffer and what the
# observers read of it stay in a 2 MiB L2.  Stepping is elementwise per path
# and per step, so no result depends on it.
_STEP_VALUES = 2**17


def run_ensemble(
    model: ModelSpec,
    x0,
    scheme: str,
    n_paths: int,
    seed: int,
    functionals: Sequence[ScalarField],
    T: float,
    h: float,
    return_states: bool = False,
    observers: Sequence[Callable] = (),
    threads: int = 1,
):
    """Integrate n_paths independent paths and reduce functional statistics.

    x0 is either one state shared by all paths or a sampler
    (index, Generator) -> state drawing path-specific initial conditions from
    the derived sampler stream.  The sampler calls share one re-keyed
    Generator, so the one a call receives is valid only during that call.
    Each path k uses its own derived noise stream, so the output is a pure
    function of (model, x0, scheme, n_paths, seed, functionals, T, h).

    All paths step together in time blocks, a range of them in each of up to
    threads processes.  Every observer observe(k, block) sees each block in
    time order: the states of all paths at grid rows k, k+1, ..., shaped
    (rows, n_paths, n), row 0 included.  block is a view of a buffer the run
    reuses, valid only during the call: an observer copies what it keeps.

    Returns EnsembleStats, or (EnsembleStats, states) with states of shape
    (n_paths, N+1, n) when return_states is set.  Raises ValueError where
    _check_ensemble does, and where a start (x0, or a sampler's draw) does
    not have model.n finite components.  A non-finite state raises
    IntegrationError for the earliest failing step, lowest path index at
    that step, carrying that path's states up to the failure and naming its
    last finite state: the path steps again alone for them, bit for bit, as
    its noise and start depend on (seed, path index) only.  MemoryError
    names a state buffer that cannot be mapped, and ChildProcessError the
    paths and the signal or exit status of a worker that ended early.
    """
    n_steps = _check_ensemble(model, scheme, n_paths, T, h, threads)
    times = np.arange(n_steps + 1) * h
    observers = list(observers)
    # each row reduces only its own paths, so per-block reductions equal
    # whole-array ones bit for bit
    mean = np.empty((len(functionals), n_steps + 1))
    var = np.empty_like(mean)
    if functionals:
        def reduce(k, block):
            for i, f in enumerate(functionals):
                values = np.asarray(f.value(block))
                mean[i, k:k + len(block)] = values.mean(axis=1)
                var[i, k:k + len(block)] = values.var(axis=1)
        observers.append(reduce)
    if return_states:
        states = np.empty((n_steps + 1, n_paths, model.n))

        def record(k, block):
            states[k:k + len(block)] = block
        observers.append(record)
    abort = _run_ranges(model, x0, scheme, seed, times, range(n_paths), threads, observers)
    if abort is not None:
        step, p = abort
        trace = np.empty((step + 2, 1, model.n))

        def record_failing(k, block):
            trace[k:k + len(block)] = block
        _run_ranges(model, x0, scheme, seed, times, range(p, p + 1), 1, [record_failing])
        raise IntegrationError(
            f"ensemble path aborted: non-finite state at step {step} "
            f"(t={times[step]:g}), path index {p}, {_last_finite(trace[-2])}",
            step=step, time=times[step], states=trace[:, 0], path_index=p,
        )

    stats = EnsembleStats(times=times, functional_names=tuple(f.name for f in functionals),
                          mean=mean, variance=var, n_paths=n_paths)
    if return_states:
        return stats, np.swapaxes(states, 0, 1)
    return stats


def _run_ranges(model, x0, scheme, seed, times, ks, threads, observers):
    """Step the paths ks (a range) in lockstep in R = min(threads, len(ks),
    usable CPUs) contiguous ranges (1 without os.fork), the first here, each
    other in a worker forked after the shared set-up (_work), into its own
    columns of one shared buffer; hand the observers each block, all paths
    wide.  Returns the earliest step's abort, lowest index first, or None."""
    n_steps, width, n = len(times) - 1, len(ks), model.n
    rows = min(max(1, _STEP_VALUES // (width * n)), n_steps) + 1
    size = rows * width * n * 8
    try:
        buffer = mmap.mmap(-1, size)
    except OSError as exc:  # as numpy reports a failed allocation
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"Unable to map {size} bytes for the states of {width} paths") from None
    shared = np.frombuffer(buffer).reshape(rows, width, n)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    r = min(threads, width, cpus or 1) if hasattr(os, "fork") else 1
    cut, workers = [width * i // r for i in range(r + 1)], []
    if len(cut) > 2:  # set up here what every worker would, then fork
        import numpy.random  # noqa: F401  (numpy imports it lazily)
        l = {"ode": 0, "rode": max(model.eta_dim, 1)}.get(model.interpretation, model.noise_dim)
        getattr(_fused(scheme, model.kernel, n, l), "block", lambda: None)()
        _flush()  # so that no worker writes out again what is pending here
    try:
        for a, b in zip(cut[1:], cut[2:]):
            (up, post), (go, wake) = os.pipe(), os.pipe()
            chunk = _run_chunk(model, x0, scheme, seed, times, ks[a:b], shared[:, a:b], width)
            workers.append(worker := [None, os.fdopen(up, "rb"), wake, ks[a:b]])
            try:
                worker[0] = os.fork()
                if not worker[0]:
                    _work(chunk, post, go, wake)
            finally:  # the worker sends its pid first: a fork that raises here loses it
                os.close(post)
                os.close(go)
                with suppress(EOFError):  # no worker started, or it ended at once
                    [worker[0]] = pickle.load(worker[1])
        for k, block, abort in _run_chunk(model, x0, scheme, seed, times, ks[:cut[1]],
                                          shared[:, :cut[1]], width):
            sent = [_receive(worker) for worker in workers]
            m = min([len(block)] + [m for m, _ in sent])
            abort = min([a for a in [abort] + [a for _, a in sent] if a], default=None)
            for observe in observers:  # a sub-block's rows start at row 1
                observe(k, shared[min(k, 1):min(k, 1) + m])
            if abort:
                return abort
            for _, _, wake, _ in workers:
                os.write(wake, b"\0")
    finally:  # a worker ends at the end of file of its go pipe
        for _, up, wake, _ in workers:
            up.close()
            os.close(wake)
        for pid, *_ in workers:
            if pid:  # not reaped by _receive
                os.waitpid(pid, 0)


def _work(chunk, post, go, wake):
    """Post the parent each (rows, abort) of chunk, then wait for its go, up to
    an abort or end of file, and what warns or raises; then flush sys.stdout
    and sys.stderr and end the process."""
    def send(*message):
        data = io.BytesIO()
        _ByValue(data).dump(message)
        pickle.loads(data.getvalue())  # what does not load here would not load in the parent
        post.write(data.getvalue())
        post.flush()

    def show(message, category, filename, lineno, file=None, line=None):
        frame = sys._getframe(1)  # the frame that warned names its module
        while frame and (frame.f_code.co_filename, frame.f_lineno) != (filename, lineno):
            frame = frame.f_back
        module = frame and frame.f_globals.get("__name__")
        with suppress(Exception):
            return send("warn", message, filename, lineno, module)
        for base in category.__mro__:  # else its text, under the nearest category that crosses
            with suppress(Exception):
                return send("warn", _rebuilt(base, (str(message),), {}), filename, lineno, module)
    try:
        os.close(wake)
        post = os.fdopen(post, "wb")
        send(os.getpid())
        warnings.showwarning = show
        for _, block, abort in chunk:
            send("rows", len(block), abort)
            if abort or not os.read(go, 1):
                break
    except BaseException as exc:  # the parent raises it, or its text where it cannot cross
        for error in (exc, RuntimeError(f"{type(exc).__name__}: {exc}")):
            with suppress(Exception):  # it does not cross, or the pipe is closed
                return send("raise", error)
    finally:
        try:
            _flush()  # os._exit flushes no buffer
        finally:
            os._exit(0)


def _flush():
    """Write out what sys.stdout and sys.stderr hold, where they can."""
    for out in (sys.stdout, sys.stderr):
        with suppress(AttributeError, OSError, ValueError):  # None, a broken pipe, closed
            out.flush()


class _ByValue(pickle.Pickler):
    """A pickler that sends each exception (a warning too) that would not
    come back from pickle.loads(pickle.dumps(...)) by value: its class by
    reference, its args and its instance dict (_rebuilt)."""

    def reducer_override(self, obj):
        if isinstance(obj, BaseException):
            with suppress(Exception):
                pickle.loads(pickle.dumps(obj))
                return NotImplemented
            return _rebuilt, (type(obj), obj.args, vars(obj))
        return NotImplemented


def _rebuilt(cls, args, state):
    """An exception of class cls with args and instance dict state, made
    without calling its __init__, which may take other arguments."""
    exc = BaseException.__new__(cls, *args)
    vars(exc).update(state)
    return exc


def _receive(worker):
    """A worker's next (rows, abort), after issuing each warning it showed
    against the registry of the module that warned; raises what it raised,
    and, once it is reaped, ChildProcessError where it ended early."""
    pid, up, _, paths = worker
    while True:
        try:
            kind, *body = pickle.load(up)
        except (EOFError, pickle.UnpicklingError):  # cut off, or mid-message
            code, worker[0] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), None
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ChildProcessError(
                f"the worker stepping paths {paths[0]} to {paths[-1]} {how}") from None
        if kind == "rows":
            return body
        if kind == "raise":
            raise body[0]
        message, filename, lineno, module = body
        registry = vars(sys.modules[module]).setdefault("__warningregistry__", {}) \
            if module in sys.modules else None
        warnings.warn_explicit(message, type(message), filename, lineno, module, registry)


def _run_chunk(model, x0, scheme, seed, times, ks, states, width):
    """Step the paths with global indices ks (a range) over the one-level
    noise pieces (_noise_pieces) of their ensemble streams, sized for width
    paths and empty for an ODE, in sub-blocks through states, a reused
    (sub + 1, len(ks), n) buffer or a column slice of one.  Yields (k, rows
    k, k + 1, ... of states, abort) for the start (k = 0) and each sub-block;
    the last ends at a non-finite state with abort (step, global path index)."""
    n_steps, h = len(times) - 1, times[1]
    if callable(x0):
        # re-keying one Philox, not building a Generator a path, took 16-24
        # instead of 25-41 ms for 4000 sphere starts (best of 9; 2-vCPU Xeon VM)
        samplers = _fresh_streams(philox_keys(seed, DOMAIN_SAMPLER, ks))
        x = np.stack([np.asarray(x0(k, rng), dtype=float) for k, rng in zip(ks, samplers)])
    else:
        x = np.broadcast_to(np.asarray(x0, dtype=float), (len(ks),) + np.shape(x0)).copy()
    _check_state(model, x)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=-1))
    if bad.size:
        raise ValueError(f"start of path index {ks[bad[0]]} is not finite: {x[bad[0]].tolist()}")
    states[0] = x
    yield 0, states[:1], None
    pieces = _noise_pieces([philox_keys(seed, DOMAIN_ENSEMBLE, ks)], n_steps, h,
                           _draw_width(model), width)
    sub, w, k = len(states) - 1, np.zeros(len(ks)), 0
    for _, increments, piece_times in pieces:
        for c in range(0, len(increments), sub):
            d = min(c + sub, len(increments))
            out, start = states[:d - c + 1], k
            out[0] = x
            try:
                x, w, k = _step_piece(model, scheme, out[0], w, k, increments[c:d],
                                      piece_times[c:d + 1], out)
            except IntegrationError as err:
                yield start + 1, err.states[1:], (err.step, ks[err.path_index])
                return
            yield start + 1, out[1:], None


def _coupled_terminals(runs, x0, seed, n_paths, T, h0, levels, w_level=None):
    """Terminal states (P, n) of each (level, model, scheme) of runs, in
    order, stepped from x0 piece by piece on the coupled paths of the
    n_paths seeds derived from seed (_coupled_paths), as wide as a path of
    the first model draws: a run carries its states, step count and RODE W
    from one piece of its level to the next.  Also returns the last grid
    time t of level w_level and W there (P, l), each path's increments of
    that level summed in order.  Raises ValueError, before any draw, unless
    x0 holds the models' n finite components."""
    x0, dims = _check_start(runs[0][1], x0), _draw_width(runs[0][1])
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


def _coupled_paths(seeds, T: float, h0: float, dims: int, levels: int):
    """The noise pieces (_noise_pieces) of levels dyadic refinements of the
    coupled paths of seeds: path p of level j is sample_brownian(seeds[p], T,
    h0, dims) refined j times, bit for bit."""
    keys = [philox_keys(seeds, DOMAIN_BASE, 0)]
    keys += [philox_keys(seeds, DOMAIN_REFINE, level) for level in range(1, levels)]
    return _noise_pieces(keys, _grid_steps(T, h0), h0, dims)


def _draw_width(model):  # Brownian dimensions a path draws: for a RODE model, its driving W
    return {"ode": 0, "rode": 1}.get(model.interpretation, model.noise_dim)


def _step_piece(model, scheme, x, w, k, increments, times, out=None):
    """Step the states x (P, n) of P paths, k steps into their grid, over
    the increments (rows, P, l) of their next noise piece at times (rows +
    1,), a RODE model on the eta of its driving W (P,), which moves along.
    Records into out where given (x may be out[0]).  Returns (x, w, k) after
    the piece; an IntegrationError names its step on the whole grid."""
    noise = increments
    if model.interpretation == "rode":
        noise, w = _eta_block(model, times, w, increments)
    x = _scheme_states(model, scheme, x, times, noise, out is not None, out, k)
    return (x if out is None else x[-1]), w, k + len(increments)


def _eta_block(model, times, w0, increments):
    """Eta rows (rows, P, eta_dim) of P RODE paths at times (rows,), and W at
    times[-1]: W is w0 (P,) at times[0] and moves by the stacked increments
    (rows - 1, P, 1).  W is summed in order, so any blocking of a path gives
    its whole-path values bit for bit."""
    w = np.empty((len(times), len(w0)))
    w[0] = w0
    w[1:] = increments[..., 0]
    np.cumsum(w, axis=0, out=w)
    eta = np.asarray(model.eta_builder(times, w), dtype=float)
    eta = eta.reshape(w.shape + (-1,))
    _check_eta(model, eta.shape[-1])
    return eta, w[-1]


def _require(model: ModelSpec, interpretation: str):
    if model.interpretation != interpretation:
        raise ValueError(
            f"scheme expects a {interpretation} model, got {model.interpretation}"
        )


def _check_path(model: ModelSpec, path: NoisePath):
    if path.dims != model.noise_dim:
        raise ValueError(
            f"path has {path.dims} noise dimensions, model needs {model.noise_dim}"
        )


def _check_eta(model: ModelSpec, dim: int):
    if model.eta_dim and dim != model.eta_dim:
        raise ValueError(
            f"parameter process has dimension {dim}, model needs {model.eta_dim}"
        )
