import numpy as np
import pytest

from gncoder.sampling import sample_in_ball, sample_params, unit_direction


def test_sample_params_respects_box_and_band():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = sample_params(rng, 4, 2, box=(-3, 3), alpha_band=0.5)
        flat = p.flatten()
        assert np.all((flat >= -3) & (flat <= 3))
        assert np.all(np.abs(p.alpha) >= 0.5)


def test_allow_zero_alpha_skips_redraw():
    # identical streams diverge only through the band redraws
    a = sample_params(np.random.default_rng(1), 3, 1, alpha_band=5.0,
                      allow_zero_alpha=True)
    assert np.any(np.abs(a.alpha) < 5.0)


def test_sampling_is_deterministic():
    p1 = sample_params(np.random.default_rng(42), 3, 2)
    p2 = sample_params(np.random.default_rng(42), 3, 2)
    assert np.array_equal(p1.flatten(), p2.flatten())


def test_unit_direction_has_unit_norm():
    rng = np.random.default_rng(2)
    for size in (1, 5, 40):
        d = unit_direction(rng, size)
        assert abs(np.linalg.norm(d) - 1.0) < 1e-12


def test_sample_in_ball_stays_inside():
    rng = np.random.default_rng(3)
    center = np.array([1.0, -2.0, 0.5])
    for _ in range(100):
        q = sample_in_ball(rng, center, 0.7)
        assert np.linalg.norm(q - center) <= 0.7 * (1 + 1e-12)


def test_band_outside_the_box_is_refused_instead_of_redrawn_forever():
    rng = np.random.default_rng(4)
    for box, band in (((-5, 5), 5.0), ((-5, 5), 6.0), ((1, 3), 3.0), ((-4, 2), 4)):
        with pytest.raises(ValueError, match="alpha_band"):
            sample_params(rng, 2, 1, box=box, alpha_band=band)
    p = sample_params(rng, 2, 1, box=(1, 3), alpha_band=2.9)
    assert np.all(p.alpha >= 2.9)


def reference_direction(rng, size):
    """The direction draw before it dropped ``np.linalg.norm``."""
    u = rng.standard_normal(size)
    return u / np.linalg.norm(u)


def reference_ball_point(rng, center, radius):
    """The per-point ball draw before it went lean: the normals, then one
    ``uniform()``."""
    u = reference_direction(rng, center.size)
    r = radius * rng.uniform() ** (1.0 / center.size)
    return center + r * u


@pytest.mark.parametrize("size", range(1, 13))
def test_draws_equal_the_reference_by_bytes(size):
    center = np.linspace(-3.0, 2.0, size)
    for seed in range(200):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert (unit_direction(ours, size).tobytes()
                    == reference_direction(theirs, size).tobytes())
            assert (sample_in_ball(ours, center, 0.4).tobytes()
                    == reference_ball_point(theirs, center, 0.4).tobytes())
        assert ours.random() == theirs.random()  # the streams stay in step
