"""Vector algebra and bracket structure unit tests."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stochlab.vecalg import (
    DoubleBracketStructure,
    PoissonStructure,
    ScalarField,
    bracket_field,
    casimir_field,
    casimir_residual,
    cross,
    derivative,
    dot,
    double_bracket_vf,
    field_product,
    hamiltonian_vf,
    linear_field,
    norm,
    norm_squared_field,
    quadratic_field,
    rigid_body_bracket,
    sphere_field,
)

vec3 = arrays(np.float64, (3,), elements=st.floats(-2.0, 2.0))
mat3 = arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0))
scalars = st.floats(-2.0, 2.0)


@given(vec3, vec3)
def test_cross_matches_numpy(u, v):
    assert np.allclose(cross(u, v), np.cross(u, v), atol=1e-12)


def test_cross_broadcasts_over_batch():
    u = np.random.default_rng(0).normal(size=(5, 4, 3))
    v = np.array([0.0, 0.0, 1.0])
    assert np.allclose(cross(u, v), np.cross(u, np.broadcast_to(v, u.shape)))


@given(vec3, vec3, vec3)
def test_triple_product_cyclic(a, b, c):
    t1 = dot(a, cross(b, c))
    t2 = dot(b, cross(c, a))
    t3 = dot(c, cross(a, b))
    assert abs(t1 - t2) < 1e-10 and abs(t2 - t3) < 1e-10


def test_norm_and_dot():
    assert norm([3.0, 4.0, 0.0]) == pytest.approx(5.0)
    assert dot([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == pytest.approx(32.0)


@given(mat3, vec3, scalars, vec3)
def test_quadratic_field_derivatives_match_closed_forms(A, b, c, x):
    F = quadratic_field(A, b, c)
    A = 0.5 * (A + A.T)
    assert np.allclose(F.gradient(x), x @ A.T + b, rtol=0, atol=1e-14)
    assert np.allclose(F.hessian(x), A, rtol=0, atol=1e-14)
    batch = np.stack([x, 2.0 * x])
    assert np.allclose(F.hessian(batch), np.stack([A, A]), rtol=0, atol=1e-14)


@given(mat3, vec3, vec3)
def test_quadratic_field_hessian_symmetric(A, b, x):
    F = quadratic_field(A, b)
    H = F.hessian(x)
    assert np.allclose(H, H.T)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@st.composite
def _dot_pairs(draw):
    """(u, v) with an equal last axis of 1 to 3, each 1-D or a batch, over
    every float: +-0.0, subnormals, +-inf and nan included."""
    n = draw(st.integers(1, 3))
    batch = draw(st.sampled_from([(), (1,), (4,), (2, 3)]))
    shapes = draw(st.sampled_from([(batch, batch), ((), batch), (batch, ())]))
    every = st.floats(allow_nan=True, allow_infinity=True)
    return tuple(draw(arrays(np.float64, shape + (n,), elements=every)) for shape in shapes)


@given(_dot_pairs())
def test_dot_by_components_equals_numpy_sum_bit_for_bit(pair):
    u, v = pair
    with np.errstate(all="ignore"):
        assert np.array_equal(_bits(dot(u, v)), _bits(np.sum(u * v, axis=-1)))


@pytest.mark.parametrize("u, v", [
    ([-0.0], [1.0]), ([-0.0, -0.0, -0.0], [1.0, 1.0, 1.0]), ([-0.0, 2.0], [3.0, -0.0]),
    ([np.inf, 1.0], [1.0, 0.0]), ([np.inf, -np.inf], [1.0, 1.0]),
    ([np.nan, 1.0, 2.0], [0.0, 1.0, 1.0]),
    # empty, long (summed pairwise by numpy) and broadcast last axes
    (np.zeros((4, 0)), np.zeros((4, 0))), (np.zeros(0), np.zeros((4, 0))),
    (np.ones((2, 9)), np.arange(9.0)), (np.ones((2, 3)), np.ones((2, 1))),
])
def test_dot_keeps_signed_zeros_non_finite_values_and_odd_shapes(u, v):
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    with np.errstate(all="ignore"):
        out, expected = dot(u, v), np.sum(u * v, axis=-1)
    assert np.shape(out) == np.shape(expected)
    assert np.array_equal(_bits(out), _bits(expected))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("batch", [(), (7,), (4, 5)])
def test_norm_fields_equal_their_quadratic_forms_bit_for_bit(n, batch):
    x = np.random.default_rng(n + len(batch)).normal(size=batch + (n,))
    pairs = [(norm_squared_field(), quadratic_field(2.0 * np.eye(n))),
             (sphere_field(), quadratic_field(2.0 * np.eye(n), c=-1.0)),
             (casimir_field(), quadratic_field(np.eye(n)))]
    for new, old in pairs:
        for form in ("value", "gradient", "hessian"):
            assert np.array_equal(_bits(getattr(new, form)(x)), _bits(getattr(old, form)(x)))


def test_named_fields_values():
    x = np.array([1.0, 2.0, 2.0])
    assert norm_squared_field()(x) == pytest.approx(9.0)
    assert sphere_field()(x) == pytest.approx(8.0)
    assert casimir_field()(x) == pytest.approx(4.5)
    assert linear_field([1.0, 0.0, -1.0])(x) == pytest.approx(-1.0)
    assert sphere_field().name == "norm2-1"


def test_field_product_rule():
    rng = np.random.default_rng(1)
    F = quadratic_field(rng.normal(size=(3, 3)), rng.normal(size=3))
    G = linear_field(rng.normal(size=3))
    FG = field_product(F, G)
    x = rng.normal(size=3)
    assert FG(x) == pytest.approx(F(x) * G(x))
    expect = F(x) * G.gradient(x) + G(x) * F.gradient(x)
    assert np.allclose(FG.gradient(x), expect, rtol=1e-14, atol=1e-14)


def test_derived_forms_follow_a_replaced_value():
    F = dataclasses.replace(norm_squared_field(), value=lambda x: 3.0 * dot(x, x))
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(F.gradient(x), 6.0 * x)
    assert np.array_equal(F.hessian(x), 6.0 * np.eye(3))


def test_derivative_nests_two_steps_deep():
    # second derivatives at y = 2, the outer step along 1j, the inner along J:
    # 6 y of y^3, (6 y^2 - 2) / (y^2 + 1)^3 of 1 / (y^2 + 1) and
    # (2 y^3 - 6 y) / (y^2 + 1)^3 of y / (y^2 + 1)
    def second(fn, y):
        return derivative(lambda x: derivative(fn, x, 1.0), y, 1.0)

    assert second(lambda y: y * y * y, 2.0) == 12.0
    assert second(lambda y: 1.0 / (y * y + 1.0), 2.0) == pytest.approx(22.0 / 125.0, rel=1e-15)
    assert second(lambda y: y / (y * y + 1.0) - 1.0, 2.0) == pytest.approx(0.032, rel=1e-14)


def test_derivative_rejects_a_third_nested_step():
    def third(x):
        return derivative(lambda y: derivative(lambda z: z * z, y, 1.0), x, 1.0)

    with pytest.raises(ValueError, match="nest only two deep"):
        derivative(third, 1.0, 1.0)


@pytest.mark.parametrize("cast", [float, lambda y: np.asarray(y, dtype=float)],
                         ids=["float", "asarray"])
@pytest.mark.parametrize("nested", [False, True])
def test_derivative_names_a_cast_to_float(cast, nested):
    def fn(y):
        return cast(y) * 2.0

    def outer(x):
        return derivative(fn, x, 1.0)

    with pytest.raises(ValueError, match="fn drops imaginary parts of states"):
        derivative(outer, 1.0, 1.0) if nested else derivative(fn, 1.0, 1.0)


def test_derivative_names_an_operation_with_no_nested_step():
    # the norm's sqrt has a complex step but no bicomplex one, so its
    # gradient is derived and its Hessian is not
    F = ScalarField(norm)
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(F.gradient(x), x / np.sqrt(14.0), rtol=1e-15)
    with pytest.raises(ValueError, match="fn applies sqrt, which has no nested complex step") \
            as info:
        F.hessian(x)
    assert isinstance(info.value.__cause__, TypeError)
    assert "sqrt" in str(info.value.__cause__)


def test_poisson_structure_validates_sign():
    PoissonStructure(+1)
    PoissonStructure(-1)
    with pytest.raises(ValueError):
        PoissonStructure(0)


def test_double_bracket_structure_validates_alpha():
    DoubleBracketStructure(0.0)
    with pytest.raises(ValueError):
        DoubleBracketStructure(-0.5)


def _random_quadratics(rng, k=3):
    out = []
    for _ in range(k):
        out.append(quadratic_field(rng.normal(size=(3, 3)), rng.normal(size=3),
                                   rng.normal()))
    return out


@pytest.mark.parametrize("sign", [-1, +1])
def test_bracket_antisymmetry_and_leibniz(sign):
    rng = np.random.default_rng(7)
    s = PoissonStructure(sign)
    F, G, H = _random_quadratics(rng)
    for _ in range(25):
        z = rng.normal(size=3)
        fg = rigid_body_bracket(F, G, z, s)
        assert abs(fg + rigid_body_bracket(G, F, z, s)) < 1e-10
        lhs = rigid_body_bracket(field_product(F, G), H, z, s)
        rhs = F(z) * rigid_body_bracket(G, H, z, s) + G(z) * rigid_body_bracket(F, H, z, s)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


@pytest.mark.parametrize("sign", [-1, +1])
def test_bracket_jacobi_identity(sign):
    rng = np.random.default_rng(11)
    s = PoissonStructure(sign)
    F, G, H = _random_quadratics(rng)
    GH = bracket_field(G, H, s)
    HF = bracket_field(H, F, s)
    FG = bracket_field(F, G, s)
    for _ in range(25):
        z = rng.normal(size=3)
        total = (
            rigid_body_bracket(F, GH, z, s)
            + rigid_body_bracket(G, HF, z, s)
            + rigid_body_bracket(H, FG, z, s)
        )
        assert abs(total) < 1e-10 * max(1.0, abs(rigid_body_bracket(F, GH, z, s)))


def test_bracket_field_gradient_matches_fd():
    rng = np.random.default_rng(3)
    F, G, _ = _random_quadratics(rng)
    BF = bracket_field(F, G, PoissonStructure(-1))
    z = rng.normal(size=3)
    step = 1e-6
    fd = [(BF(z + step * e) - BF(z - step * e)) / (2.0 * step) for e in np.eye(3)]
    assert np.allclose(BF.gradient(z), fd, atol=1e-8)


@pytest.mark.parametrize("sign", [-1, +1])
def test_hamiltonian_vf_generates_bracket(sign):
    # directional derivative identity grad G . X_H = {G, H}
    rng = np.random.default_rng(5)
    s = PoissonStructure(sign)
    G, H, _ = _random_quadratics(rng)
    for _ in range(25):
        z = rng.normal(size=3)
        lhs = dot(G.gradient(z), hamiltonian_vf(H, z, s))
        rhs = rigid_body_bracket(G, H, z, s)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_double_bracket_vf_generates_double_bracket():
    # grad F . X = {{F, H}} for the dissipative field X
    rng = np.random.default_rng(6)
    d = DoubleBracketStructure(0.7)
    F, H, _ = _random_quadratics(rng)
    for _ in range(25):
        z = rng.normal(size=3)
        lhs = dot(F.gradient(z), double_bracket_vf(H, z, d))
        rhs = d.alpha * dot(cross(z, F.gradient(z)), cross(z, H.gradient(z)))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_double_bracket_increases_its_hamiltonian():
    # the flow -alpha z^(z^grad H) increases H and kills nothing tangent
    rng = np.random.default_rng(8)
    H = linear_field(np.array([0.0, 0.0, 1.0]))
    d = DoubleBracketStructure(1.0)
    for _ in range(10):
        z = rng.normal(size=3)
        rate = dot(H.gradient(z), double_bracket_vf(H, z, d))
        assert rate >= -1e-12


def test_casimir_commutes_with_probes():
    rng = np.random.default_rng(9)
    samples = [rng.normal(size=3) for _ in range(50)]
    probes = _random_quadratics(rng, k=4)
    res = casimir_residual(casimir_field(), PoissonStructure(-1), samples, probes)
    assert res < 1e-12


def test_casimir_residual_detects_non_casimir():
    rng = np.random.default_rng(10)
    samples = [rng.normal(size=3) for _ in range(10)]
    probes = _random_quadratics(rng, k=2)
    res = casimir_residual(linear_field([1.0, 0.0, 0.0]), PoissonStructure(-1),
                           samples, probes)
    assert res > 1e-3


def test_casimir_residual_rejects_empty():
    with pytest.raises(ValueError):
        casimir_residual(casimir_field(), PoissonStructure(-1), [], [casimir_field()])
