"""Vector algebra on R^3 and the rigid-body Poisson / double-bracket structures.

Vectors are numpy arrays with the components on the last axis, so every
operation broadcasts over leading batch axes.  A scalar field is stated by
its value; its gradient and Hessian are derived by nesting complex steps
(derivative), exact to rounding for a value built of +, -, *, / and constants.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

# complex-step sizes, powers of two so dividing by them is exact: the square
# of the step along 1j underflows to zero, the product of both steps does not
_DELTA, _DELTA_J = 2.0**-600, 2.0**-300


class _Bicomplex:
    """a + J b, with a and b complex and J a second imaginary unit (J*J = -1,
    J commutes with 1j): a complex number stepped along J (Lantoine, Russell
    & Dargent, ACM TOMS 38(3), 2012).  Arrays hold it elementwise, as objects;
    an operation with an array is left to numpy, which maps it elementwise."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0.0):
        self.a, self.b = a, b

    def __add__(self, other):
        if isinstance(other, _Bicomplex):
            return _Bicomplex(self.a + other.a, self.b + other.b)
        return (NotImplemented if isinstance(other, np.ndarray)
                else _Bicomplex(self.a + other, self.b))

    def __mul__(self, other):
        if isinstance(other, _Bicomplex):
            return _Bicomplex(self.a * other.a - self.b * other.b,
                              self.a * other.b + self.b * other.a)
        return (NotImplemented if isinstance(other, np.ndarray)
                else _Bicomplex(self.a * other, self.b * other))

    def __truediv__(self, other):
        if isinstance(other, _Bicomplex):  # (a + J b)(a - J b) = a*a + b*b
            return self * _Bicomplex(other.a, -other.b) / (other.a * other.a + other.b * other.b)
        return (NotImplemented if isinstance(other, np.ndarray)
                else _Bicomplex(self.a / other, self.b / other))

    def __rtruediv__(self, other):
        return _Bicomplex(other) / self

    def __neg__(self):
        return _Bicomplex(-self.a, -self.b)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    __radd__, __rmul__ = __add__, __mul__


_along_j = np.frompyfunc(_Bicomplex, 2, 1)
_j_part = np.frompyfunc(lambda y: y.b if isinstance(y, _Bicomplex) else 0j, 1, 1)


def _level(x):
    """How many imaginary units x carries: 0 (real), 1 (1j) or 2 (1j and J)."""
    if isinstance(x, (list, tuple)):
        return max(map(_level, x), default=0)
    return {"c": 1, "O": 2}.get(np.asarray(x).dtype.kind, 0)


def derivative(fn, x, v):
    """D fn(x)[v] by one complex step along an imaginary unit that x does not
    carry yet: 1j, step _DELTA, on a real x; J, step _DELTA_J, on a complex
    x, so that fn may itself take a derivative.  x, v and fn's value are
    numbers, arrays, or lists of them (the components of a state).  The step
    is exact to rounding (Squire & Trapp, SIAM Review 40(1), 1998) where fn
    keeps the unit; the unit is chosen by x alone, so fn may hold numbers that
    carry 1j only where x does too.  Raises ValueError on an x that carries
    both units, where fn casts stepped states to float (numpy warns when it
    casts a complex array; float() raises TypeError), and, with numpy's
    TypeError as the cause, where a nested step meets a numpy function other
    than +, -, * and / (np.sqrt, say), which has no method on _Bicomplex.
    """
    level = _level(x)
    if level == 2:
        raise ValueError("derivative: complex steps nest only two deep")
    step = (_DELTA, _DELTA_J)[level]
    if level == 0:
        along, part = (lambda a, b: a + 1j * (step * b)), (lambda y: y.imag / step)
    else:
        along = (lambda a, b: _along_j(a, step * b))
        part = (lambda y: np.asarray(_j_part(y), dtype=complex)[()] / step)
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        try:
            y = fn([along(a, b) for a, b in zip(x, v)] if isinstance(x, (list, tuple))
                   else along(x, v))
        except (np.exceptions.ComplexWarning, TypeError) as err:
            # numpy maps a ufunc on objects to their method of its name and
            # chains the AttributeError where there is none
            if isinstance(err.__cause__, AttributeError):
                raise ValueError(f"derivative: fn applies {err.__cause__.name}, which has no "
                                 "nested complex step (only +, -, * and / do)") from err
            raise ValueError("derivative: fn drops imaginary parts of states") from err
    return [part(c) for c in y] if isinstance(y, (list, tuple)) else part(y)


class _Derived(partial):
    """A dataclass field derived from the others, marked by its type alone:
    __post_init__ derives it again, so dataclasses.replace keeps it in step."""


def _jacobian(fn, x):
    """fn's derivatives at x along the unit vectors of x's last axis, stacked last."""
    x = np.asarray(x)
    return np.stack([derivative(fn, x, e) for e in np.eye(x.shape[-1])], axis=-1)


def cross(u, v):
    """Cross product u ^ v, broadcasting over leading axes."""
    u, v = np.asarray(u), np.asarray(v)
    out = np.empty(np.broadcast_shapes(u.shape, v.shape), dtype=np.result_type(u, v, float))
    out[..., 0] = u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1]
    out[..., 1] = u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2]
    out[..., 2] = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    return out


def cross_matrix(x):
    """Matrix [x]_ with [x]_ v = x ^ v, shape (..., 3, 3)."""
    x = np.asarray(x)
    m = np.zeros(x.shape[:-1] + (3, 3), dtype=np.result_type(x, float))
    m[..., 0, 1] = -x[..., 2]
    m[..., 0, 2] = x[..., 1]
    m[..., 1, 0] = x[..., 2]
    m[..., 1, 2] = -x[..., 0]
    m[..., 2, 0] = -x[..., 1]
    m[..., 2, 1] = x[..., 0]
    return m


def dot(u, v):
    """Euclidean inner product over the last axis, np.sum(u * v, axis=-1) bit for bit:
    equal last axes under 8, which numpy sums in sequence, by components from 0.0."""
    u, v = np.asarray(u), np.asarray(v)
    if not 0 < u.shape[-1] == v.shape[-1] < 8:
        return np.sum(u * v, axis=-1)
    return sum((u[..., i] * v[..., i] for i in range(u.shape[-1])), 0.0)


def norm(u):
    return np.sqrt(dot(u, u))


@dataclass(frozen=True)
class ScalarField:
    """Scalar function of the state, stated by its value.

    value    : (state) -> scalar, broadcasting over leading axes; it must keep
               complex states complex, as derivative requires
    gradient : optional, (state) -> state-shaped array
    hessian  : optional, (state) -> (..., n, n) array
    name     : label used in reports

    A gradient not given is derived by n complex steps on value, a Hessian
    not given as the gradient's Jacobian, whenever a ScalarField is made (by
    dataclasses.replace too).  Give them only for a value not holomorphic.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "field"

    def __post_init__(self):
        if self.gradient is None or isinstance(self.gradient, _Derived):
            object.__setattr__(self, "gradient", _Derived(_jacobian, self.value))
        if self.hessian is None or isinstance(self.hessian, _Derived):
            object.__setattr__(self, "hessian", _Derived(_jacobian, self.gradient))

    def __call__(self, x):
        return self.value(np.asarray(x, dtype=float))


def constant_field(c: float) -> ScalarField:
    return ScalarField(lambda x: np.full(x.shape[:-1], float(c)), name=f"const({c})")


def linear_field(b, name: str | None = None) -> ScalarField:
    """F(z) = z . b for a fixed vector b."""
    b = np.asarray(b, dtype=float)
    return ScalarField(lambda x: dot(x, b), name=name or "z.b")


def quadratic_field(A, b=None, c: float = 0.0, name: str | None = None) -> ScalarField:
    """F(z) = z^T A z / 2 + b . z + c with A symmetric."""
    A = np.asarray(A, dtype=float)
    A = 0.5 * (A + A.T)
    b = np.zeros(A.shape[0]) if b is None else np.asarray(b, dtype=float)
    return ScalarField(lambda x: 0.5 * dot(x, x @ A.T) + dot(x, b) + c, name=name or "quadratic")


def norm_squared_field() -> ScalarField:
    """F(z) = ||z||^2."""
    return ScalarField(lambda x: dot(x, x), name="norm2")


def sphere_field() -> ScalarField:
    """F(z) = ||z||^2 - 1, the unit-sphere level function."""
    return ScalarField(lambda x: dot(x, x) - 1.0, name="norm2-1")


def casimir_field() -> ScalarField:
    """F(z) = ||z||^2 / 2, Casimir of the rigid-body bracket."""
    return ScalarField(lambda x: 0.5 * dot(x, x), name="norm2/2")


def field_product(F: ScalarField, G: ScalarField) -> ScalarField:
    """Pointwise product F*G."""
    return ScalarField(lambda x: F.value(x) * G.value(x), name=f"{F.name}*{G.name}")


@dataclass(frozen=True)
class PoissonStructure:
    """Rigid-body bracket {F,G}(z) = sign * z . (grad F ^ grad G)."""

    sign: int = -1

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError(f"Poisson sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class DoubleBracketStructure:
    """Double bracket {{F,G}}(z) = alpha * (z ^ grad F) . (z ^ grad G)."""

    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"damping alpha must be >= 0, got {self.alpha}")


def rigid_body_bracket(F: ScalarField, G: ScalarField, z, s: PoissonStructure) -> float:
    """{F,G}_s(z) = s.sign * z . (grad F(z) ^ grad G(z))."""
    return s.sign * dot(z, cross(F.gradient(z), G.gradient(z)))


def bracket_field(F: ScalarField, G: ScalarField, s: PoissonStructure) -> ScalarField:
    """{F,G}_s as a ScalarField; its gradient nests a step on those of F and G."""
    return ScalarField(lambda z: rigid_body_bracket(F, G, z, s), name=f"{{{F.name},{G.name}}}")


def hamiltonian_vf(H: ScalarField, z, s: PoissonStructure):
    """The vector field X_H with X_H[G] = {G,H}_s; closed form -sign * z ^ grad H."""
    z = np.asarray(z, dtype=float)
    return -s.sign * cross(z, H.gradient(z))


def double_bracket(F: ScalarField, G: ScalarField, z, d: DoubleBracketStructure) -> float:
    """{{F,G}}(z) = alpha * (z ^ grad F(z)) . (z ^ grad G(z))."""
    z = np.asarray(z, dtype=float)
    return d.alpha * dot(cross(z, F.gradient(z)), cross(z, G.gradient(z)))


def double_bracket_vf(H: ScalarField, z, d: DoubleBracketStructure):
    """The vector field X with grad F . X = {{F,H}}; closed form -alpha * z ^ (z ^ grad H)."""
    z = np.asarray(z, dtype=float)
    return -d.alpha * cross(z, cross(z, H.gradient(z)))


def casimir_residual(
    F: ScalarField,
    s: PoissonStructure,
    samples: Sequence,
    probes: Sequence[ScalarField],
) -> float:
    """Max |{F,G}(z)| over samples x probes; 0 certifies F Casimir on the set."""
    samples = list(samples)
    probes = list(probes)
    if not samples or not probes:
        raise ValueError("casimir_residual needs nonempty samples and probes")
    worst = 0.0
    for z in samples:
        for G in probes:
            worst = max(worst, abs(float(rigid_body_bracket(F, G, z, s))))
    return worst
