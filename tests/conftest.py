"""Shared fixtures: canonical images and kernels used across the suite."""

import numpy as np
import pytest

from nfr import (Image, NoiseSpec, Rearrangement, add_gaussian_noise, eval_scaled,
                 make_kernel)
from nfr import synthetic
from nfr.filter1d import _guard_step_values

CANONICAL_SNR = 10.0
CANONICAL_SEED = 7
FIXTURE_SIZE = 48


def random_quantized(seed, size=16, levels=32, scale=8.0):
    """Random image with at most `levels` distinct values."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return Image.from_array(np.floor(rng.uniform(0, levels, (size, size))) * scale)


def dense_step(v_weights, v_values, k):
    """One filter step from the dense Q x Q weight matrix, the reference for
    the blocked pass of `nf_step`: `eval_scaled` on every pair difference of
    the weight levels (Q^2 evaluations), one product with [m*x, m] for the
    numerators and row sums together, then the step's guard."""
    w, x, m = v_weights.values, v_values.values, v_values.masses
    kmat = eval_scaled(k, w[:, None] - w[None, :])
    nd = kmat @ np.stack((m * x, m), axis=1)
    return Rearrangement(_guard_step_values(nd[:, 0] / nd[:, 1], x), m)


@pytest.fixture(scope="session")
def squares_clean():
    return synthetic.squares(FIXTURE_SIZE)


@pytest.fixture(scope="session")
def noisy_squares(squares_clean):
    return add_gaussian_noise(squares_clean, NoiseSpec(CANONICAL_SNR, CANONICAL_SEED))


@pytest.fixture(scope="session")
def noisy_gradient():
    return add_gaussian_noise(
        synthetic.gradient(FIXTURE_SIZE), NoiseSpec(CANONICAL_SNR, CANONICAL_SEED)
    )


@pytest.fixture(scope="session")
def noisy_texture():
    return add_gaussian_noise(
        synthetic.texture(FIXTURE_SIZE), NoiseSpec(CANONICAL_SNR, CANONICAL_SEED)
    )


@pytest.fixture(scope="session")
def canonical_images(squares_clean, noisy_squares, noisy_gradient, noisy_texture):
    """The fixture set 'all fixtures' assertions quantify over."""
    return {
        "squares": squares_clean,
        "noisy_squares": noisy_squares,
        "noisy_gradient": noisy_gradient,
        "noisy_texture": noisy_texture,
        "random16": random_quantized(3),
    }


@pytest.fixture
def gauss():
    return lambda h: make_kernel("gaussian", h)
