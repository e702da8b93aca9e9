import mpmath
import numpy as np
import pytest

from gncoder.activations import (
    Activation,
    DISCONTINUOUS,
    PIECEWISE_C0,
    SMOOTH_C2,
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
