import warnings

import mpmath
import numpy as np
import pytest

from gncoder.activations import (
    Activation,
    DISCONTINUOUS,
    PIECEWISE_C0,
    SMOOTH_C2,
    logistic,
    parse_activation,
)
from gncoder.exceptions import SmoothnessError

C2_KINDS = [Activation.sigmoid(1.0), Activation.sigmoid(0.25), Activation.tanh()]


def central_diff(f, t, h):
    return (f(t + h) - f(t - h)) / (2.0 * h)


def test_sigmoid_value_at_zero():
    assert Activation.sigmoid(1.0).value(0.0) == 0.5


def test_step_value_at_zero():
    step = Activation.step()
    assert step.value(0.0) == 0.5
    assert step.value(-1e-12) == 0.0
    assert step.value(1e-12) == 1.0


def test_tanh_value_against_high_precision_oracle():
    expected = float(mpmath.tanh(1))
    assert Activation.tanh().value(1.0) == pytest.approx(expected, abs=1e-15)


def test_relu_value():
    relu = Activation.relu()
    assert relu.value(-2.0) == 0.0
    assert relu.value(3.5) == 3.5


def test_sigmoid_d1_at_zero_matches_finite_difference():
    a = Activation.sigmoid(1.0)
    fd = central_diff(a.value, 0.0, 1e-6)
    assert a.d1(0.0) == pytest.approx(0.25, abs=1e-12)
    assert a.d1(0.0) == pytest.approx(fd, abs=1e-10)


def test_tanh_derivatives_at_zero():
    a = Activation.tanh()
    assert a.d1(0.0) == 1.0
    assert a.d2(0.0) == 0.0


def test_step_rejects_derivatives():
    step = Activation.step()
    with pytest.raises(SmoothnessError):
        step.d1(0.0)
    with pytest.raises(SmoothnessError):
        step.d2(0.0)


def test_relu_subgradient_convention_and_no_d2():
    relu = Activation.relu()
    assert relu.d1(0.0) == 0.0
    assert relu.d1(-1.0) == 0.0
    assert relu.d1(1.0) == 1.0
    with pytest.raises(SmoothnessError):
        relu.d2(1.0)


@pytest.mark.parametrize("a", C2_KINDS, ids=lambda a: a.descriptor)
def test_finite_difference_consistency(a):
    h = 1e-4
    ts = np.linspace(-10.0, 10.0, 81)
    for t in ts:
        assert a.d1(t) == pytest.approx(central_diff(a.value, t, h), abs=20 * h * h)
        assert a.d2(t) == pytest.approx(central_diff(a.d1, t, h), abs=20 * h * h)


def test_sigmoid_derivative_is_even():
    a = Activation.sigmoid(0.7)
    ts = np.linspace(-8.0, 8.0, 33)
    assert np.allclose(a.d1(ts), a.d1(-ts), rtol=1e-12, atol=1e-300)


def test_boundedness():
    # strict bounds below the float saturation threshold, closed above it
    ts = np.linspace(-30.0, 30.0, 201)
    s = Activation.sigmoid(1.0).value(ts)
    assert np.all((s > 0.0) & (s < 1.0))
    wide = np.linspace(-500.0, 500.0, 201)
    s = Activation.sigmoid(1.0).value(wide)
    assert np.all((s >= 0.0) & (s <= 1.0))
    th = Activation.tanh().value(np.linspace(-15.0, 15.0, 201))
    assert np.all((th > -1.0) & (th < 1.0))
    th = Activation.tanh().value(wide)
    assert np.all((th >= -1.0) & (th <= 1.0))


def test_smoothness_metadata():
    assert Activation.sigmoid(2.0).smoothness == SMOOTH_C2
    assert Activation.tanh().smoothness == SMOOTH_C2
    assert Activation.relu().smoothness == PIECEWISE_C0
    assert Activation.step().smoothness == DISCONTINUOUS


def test_epsilon_must_be_positive():
    with pytest.raises(ValueError):
        Activation.sigmoid(0.0)
    with pytest.raises(ValueError):
        Activation.sigmoid(-1.0)
    for text in ("sigmoid:inf", "sigmoid:nan", "sigmoid:-inf"):
        with pytest.raises(ValueError, match="finite and positive"):
            parse_activation(text)
    # finite extremes stay accepted
    assert parse_activation("sigmoid:1e-300").epsilon == 1e-300
    assert parse_activation("sigmoid:1e300").epsilon == 1e300


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Activation("softplus")


def test_descriptor_round_trip():
    for a in [Activation.sigmoid(0.5), Activation.tanh(), Activation.relu(),
              Activation.step()]:
        assert parse_activation(a.descriptor) == a
    assert parse_activation("sigmoid") == Activation.sigmoid(1.0)
    with pytest.raises(ValueError):
        parse_activation("linear")


def test_vectorized_evaluation_shapes():
    a = Activation.sigmoid(1.0)
    ts = np.zeros((4, 3))
    assert a.value(ts).shape == (4, 3)
    assert isinstance(a.value(0.0), float)


def one_pass_inputs(a):
    """Signed zeros, infinities, the edges of the logistic's range at the
    activation's scale, subnormals, and random arrays of the shapes the
    Jacobian build passes: ``(K,)``, ``(K, N)`` and ``(rows, N, K)``."""
    eps = a.epsilon
    tiny = np.finfo(float).tiny
    special = np.array([0.0, -0.0, np.inf, -np.inf, 745 * eps, -745 * eps,
                        746 * eps, -746 * eps, 5e-324, -5e-324, tiny / 3,
                        -tiny / 3, 1e-300, 36 * eps, -36 * eps])
    rng = np.random.default_rng(11)
    return [special, rng.uniform(-40, 40, 64) * eps,
            rng.uniform(-40, 40, (64, 3)) * eps,
            rng.uniform(-40, 40, (2, 3, 64)) * eps,
            rng.uniform(-40, 40, (64, 3)).T]


@pytest.mark.parametrize(
    "a",
    [Activation.sigmoid(1.0), Activation.sigmoid(0.25), Activation.sigmoid(4.0),
     Activation.sigmoid(0.01), Activation.tanh(), Activation.relu()],
    ids=lambda a: a.descriptor,
)
def test_value_and_d1_equals_value_and_d1_by_bytes(a):
    def d1_formula(t):
        # the closed forms, each on its own, as the oracle of the one pass
        # that ``d1`` now shares
        x = np.asarray(t, dtype=float)
        if a.kind == "sigmoid":
            out = logistic(x / a.epsilon) * logistic(-x / a.epsilon) / a.epsilon
        elif a.kind == "tanh":
            th = np.tanh(x)
            out = 1.0 - th * th
        else:  # relu, with d1(0) = 0
            out = np.where(x > 0, 1.0, 0.0)
        return out if isinstance(t, np.ndarray) else float(out)

    for t in one_pass_inputs(a):
        value, slope = a.value(t), d1_formula(t)
        assert a.d1(t).tobytes() == slope.tobytes()
        got_value, got_slope = a.value_and_d1(t)
        assert got_value.tobytes() == value.tobytes()
        assert got_slope.tobytes() == slope.tobytes()
        out = np.empty(t.shape)
        into, got_slope = a.value_and_d1(t, out=out)
        assert into is out
        assert out.tobytes() == value.tobytes()
        assert got_slope.tobytes() == slope.tobytes()
    for t in (0.0, -0.0, 1.5, -745.0 * a.epsilon):
        got = a.value_and_d1(t)
        assert all(isinstance(x, float) for x in got)
        assert np.array([got]).tobytes() == np.array(
            [(a.value(t), d1_formula(t))]).tobytes()
        assert isinstance(a.d1(t), float) and a.d1(t) == got[1]


@pytest.mark.parametrize("a", [Activation.sigmoid(e) for e in (1.0, 0.25, 4.0)],
                         ids=lambda a: a.descriptor)
def test_sigmoid_is_accurate_against_mpmath(a):
    """Value and slope within 3 ulp of 40-digit mpmath on [-40, 40].  The
    second derivative cancels in ``sigma(-t) - sigma(t)`` near ``t = 0``, so
    its error is bounded against its largest magnitude ``1 / (6 sqrt(3)
    eps^2)`` instead: at most 4 ulp of it (2.6 measured, as with scipy's
    ``expit``)."""
    rng = np.random.default_rng(17)
    near_zero = np.logspace(-12, 0, 100)
    t = np.concatenate([np.linspace(-40, 40, 801), rng.uniform(-40, 40, 800),
                        near_zero, -near_zero, rng.uniform(-0.01, 0.01, 100)])
    eps = mpmath.mpf(a.epsilon)
    exact = []
    with mpmath.workdps(40):
        for x in t:
            q = mpmath.mpf(x) / eps
            plus, minus = 1 / (1 + mpmath.exp(-q)), 1 / (1 + mpmath.exp(q))
            exact.append([float(v) for v in (
                plus, plus * minus / eps, plus * minus * (minus - plus) / eps**2)])
    exact = np.array(exact).T
    value, slope = a.value_and_d1(t)
    for got, want in zip((value, slope), exact[:2]):
        assert np.all(np.abs(got - want) <= 3 * np.spacing(np.abs(want)))
    peak = 1 / (6 * np.sqrt(3) * a.epsilon**2)
    assert np.max(np.abs(a.d2(t) - exact[2])) <= 4 * np.finfo(float).eps * peak


@pytest.mark.parametrize("a", [Activation.sigmoid(e) for e in (1.0, 0.25, 4.0)],
                         ids=lambda a: a.descriptor)
def test_sigmoid_edges_raise_no_runtime_warning(a):
    """``exp`` overflows quietly at ``-746 eps`` and ``-inf``, where the
    value is 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in one_pass_inputs(a):
            value, slope = a.value_and_d1(t)
            assert np.array_equal(a.value(t), value)
            assert np.isfinite(a.d2(t)).all() and np.isfinite(slope).all()
        assert logistic(np.array([-746.0, -np.inf])).tolist() == [0.0, 0.0]
        assert logistic(np.array([746.0, np.inf])).tolist() == [1.0, 1.0]


def test_step_value_and_d1_raises_before_writing():
    out = np.full(5, 7.0)
    with pytest.raises(SmoothnessError):
        Activation.step().value_and_d1(np.linspace(-1, 1, 5), out=out)
    assert np.all(out == 7.0)
