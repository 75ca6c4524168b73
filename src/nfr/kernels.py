"""Kernel profiles, their scaled forms K_h(xi) = K(xi/h), and validity checks.

Two profiles ship: the Gaussian K(s) = exp(-s^2) and the power-decay family
K(s) = 1/(1 + |s|^p) with p > 1.  A profile is a callable with an analytic
`derivative` and, optionally, `primitive(s, h)`; any such object is accepted
by the engine, but the order-preservation guarantees of the filter hold only
for kernels passing the symmetric-decay check below; of the built-ins, only
the Gaussian does.

Each kernel keeps a counter of evaluations on the filtering path, used by
the complexity benchmarks: `eval_scaled` adds one per value it returns, and
`filter1d.iterate`, which builds its weights block by block itself, adds Q^2
for each step it applies, in both schemes: the pair weights the step uses.
Its pass, for every profile, computes at most Q(Q + r)/2 of them for r-row
blocks and uses each for both orders of its pair; the Gaussian's computes
none for pairs more than 6.2 h apart (exact zeros).

The primitive g used by the stopping functional comes from the profile's own
`primitive`: a closed form for the Gaussian, and for the power family at
p = 2 (h^2 log1p(s/h^2)) and p = 4 (h^2 arctan(s/h^2)).  Other exponents,
and profiles without `primitive`, use one vectorised numpy rule: g(s) =
2 h^2 * integral of K(e^y) e^{2y} dy from below min(ln R, 0) - 20 to ln R,
R = sqrt(s)/h, in panels between multiples of 0.25 integrated once per call
with a 16-node Gauss-Legendre rule; each s adds it over its partial panel, so
equal s get equal g (to the ulp across calls).  For the power family it is
tested to relative error 1e-12 for p <= 20 (4e-15 measured; about 1e-9 at
p = 40, where K's poles come near the real axis).
"""

from __future__ import annotations

import math
import threading

import numpy as np


class GaussianProfile:
    """K(s) = exp(-s^2)."""

    name = "gaussian"

    def __call__(self, s):
        s = np.asarray(s, dtype=np.float64)
        return np.exp(-(s * s))

    def derivative(self, s):
        s = np.asarray(s, dtype=np.float64)
        return -2.0 * s * np.exp(-(s * s))

    def primitive(self, s, h):
        """g(s) = h^2 (1 - exp(-s/h^2)), taken through expm1."""
        return -(h * h) * np.expm1(-s / (h * h))


class PowerDecayProfile:
    """K(s) = 1/(1 + |s|^p), p > 1.

    Decays too slowly to be log-concave far from the origin, so it fails the
    symmetric-decay condition (see `check_decay_condition`); kept as the
    contrast case for the built-in Gaussian.
    """

    name = "power"

    def __init__(self, p: float = 2.0):
        p = float(p)
        if not p > 1.0:
            raise ValueError("power-decay exponent must satisfy p > 1")
        if math.isinf(p):
            raise ValueError("power-decay exponent must be finite")
        self.p = p

    def __call__(self, s):
        s = np.asarray(s, dtype=np.float64)
        return 1.0 / (1.0 + np.abs(s) ** self.p)

    def derivative(self, s):
        s = np.asarray(s, dtype=np.float64)
        a = np.abs(s) ** (self.p - 1.0)
        return -self.p * a * np.sign(s) / (1.0 + np.abs(s) ** self.p) ** 2

    def primitive(self, s, h):
        """Closed forms at p = 2 and p = 4; the log-panel rule otherwise."""
        if self.p == 2.0:
            return (h * h) * np.log1p(s / (h * h))
        if self.p == 4.0:
            return (h * h) * np.arctan(s / (h * h))
        return _log_panel_primitive(self, h, s)


class Kernel:
    """A profile together with its scale h.

    `evaluations` counts scalar evaluations of the filter weights: those
    made through `eval_scaled`, plus the Q^2 per applied step that
    `filter1d.iterate` reports through `add_evaluations` (the pair weights
    the step uses; a pass computes each unordered pair's weight once and
    uses it for both orders of the pair); the counter is
    lock-protected so concurrent filtering keeps it exact.
    Diagnostic paths (decay checks, the primitive) do not count.
    """

    def __init__(self, profile, h: float):
        h = float(h)
        if not h > 0.0:
            raise ValueError("kernel scale h must be positive")
        if not 0.0 < h * h < math.inf:  # g and J scale with h^2
            raise ValueError(f"kernel scale h must have a positive finite square, got {h!r}")
        k0 = float(np.asarray(profile(0.0)))
        if not k0 > 0.0:
            raise ValueError("kernel profile must be positive at 0")
        self.profile = profile
        self.h = h
        self.evaluations = 0
        self._lock = threading.Lock()

    def add_evaluations(self, n: int):
        with self._lock:
            self.evaluations += int(n)

    def reset_evaluations(self):
        with self._lock:
            self.evaluations = 0

    def __repr__(self):
        name = getattr(self.profile, "name", type(self.profile).__name__)
        return f"Kernel({name}, h={self.h})"


def make_kernel(name: str, h: float, p: float = 2.0) -> Kernel:
    """Build a kernel by profile name ('gaussian' or 'power')."""
    if name == "gaussian":
        return Kernel(GaussianProfile(), h)
    if name == "power":
        return Kernel(PowerDecayProfile(p), h)
    raise ValueError(f"unknown kernel profile {name!r}")


def eval_scaled(k: Kernel, xi):
    """K_h(xi) = K(xi/h), counting evaluations."""
    xi = np.asarray(xi, dtype=np.float64)
    k.add_evaluations(xi.size)
    return k.profile(xi / k.h)


_PANEL = 0.25            # panel width of the log-radius rule
_TAIL = 20.0             # the cut-off part is below e^-40 of the integral
_BLOCK = 1 << 16         # elements of s per block


def g_primitive(k: Kernel, s):
    """Primitive g(s) = integral of K_h(sqrt(t)) dt over [0, s], s >= 0.

    Calls `k.profile.primitive(s, h)`; a profile without one uses the
    log-radius rule of the module docstring (relative error 1e-12 for power
    kernels with p <= 20), whose g of equal s agree to the ulp across calls.
    Neither calls `eval_scaled`, so the primitive adds nothing to
    `k.evaluations`.  g is non-decreasing with g(0) = 0 and g(s) <= s * K(0).
    """
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s_arr = np.asarray(s, dtype=np.float64)
    if not np.all(s_arr >= 0.0):
        raise ValueError("g_primitive argument must be nonnegative")
    primitive = getattr(k.profile, "primitive", None)
    if primitive is None:
        out = _log_panel_primitive(k.profile, k.h, s_arr)
    else:
        out = primitive(s_arr, k.h)
    return float(out) if scalar else out


def _log_panel_primitive(profile, h: float, s: np.ndarray) -> np.ndarray:
    """g(s) = 2 h^2 * integral of K(e^y) e^{2y} dy over (-inf, ln R], R = sqrt(s)/h.

    One table per call: the P panels between multiples of _PANEL from below
    min(ln R, 0) - _TAIL to the largest ln R, integrated once and summed
    cumulatively; each positive s adds the 16-node rule from the multiple
    below its ln R.  16 (n + P) nodes for n of them, in blocks of _BLOCK (below
    about 64 MB).  Equal s get equal g; an infinite s raises ValueError.
    """
    x, w = np.polynomial.legendre.leggauss(16)
    t, w = 0.5 * (x + 1.0), 0.5 * w      # the rule on [0, 1]
    flat = s.ravel()
    out = np.zeros_like(flat)
    positive = flat > 0.0
    log_h = np.log(h)
    s_min = np.min(flat, where=positive, initial=h * h)  # table from below -_TAIL
    s_max = np.max(flat, where=positive, initial=s_min)
    if not np.isfinite(s_max):
        raise ValueError("the log-radius rule needs finite arguments")
    first = np.floor((0.5 * np.log(s_min) - log_h - _TAIL) / _PANEL)
    edges = _PANEL * np.arange(first, np.floor((0.5 * np.log(s_max) - log_h) / _PANEL) + 1)

    def rule(a, width):  # the 16-node rule over [a, a + width], row by row
        r = np.exp(a[:, None] + width[:, None] * t)
        return width * (profile(r) * (r * r) * w).sum(axis=1)
    table = np.concatenate(([0.0], np.cumsum(rule(edges[:-1], np.diff(edges)))))
    for b in range(0, flat.size, _BLOCK):
        pos = b + np.flatnonzero(positive[b:b + _BLOCK])
        y = 0.5 * np.log(flat[pos]) - log_h
        k = (np.floor(y / _PANEL) - first).astype(np.intp)  # edges[k] <= y
        out[pos] = (2.0 * h * h) * (table[k] + rule(edges[k], y - edges[k]))
    return out.reshape(s.shape)


def check_decay_condition(k: Kernel, samples: int = 100_000, seed: int = 0) -> bool:
    """Monte-Carlo check of the symmetric-decay condition.

    Draws (xi, xi1, xi2) uniformly from [-4h, 4h]^3 and verifies

        R1 = (xi1 - xi2) * (K_h'(xi - xi1) K_h(xi - xi2)
                            - K_h'(xi - xi2) K_h(xi - xi1)) >= 0

    on every triple (up to -1e-12 roundoff slack).  R1 >= 0 everywhere is
    equivalent to log-concavity of the profile and is the hypothesis behind
    the filter's order preservation.  Sampling is a proxy for the universal
    quantifier: deterministic under the seed, and cheap.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    h = k.h
    xi, xi1, xi2 = rng.uniform(-4.0 * h, 4.0 * h, size=(3, samples))

    def kv(x):
        return np.asarray(k.profile(x / h), dtype=np.float64)

    def kd(x):
        return np.asarray(k.profile.derivative(x / h), dtype=np.float64) / h

    r1 = (xi1 - xi2) * (kd(xi - xi1) * kv(xi - xi2) - kd(xi - xi2) * kv(xi - xi1))
    return bool(np.all(r1 >= -1e-12))
