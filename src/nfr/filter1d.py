"""One-dimensional neighborhood-filter iterations on rearrangements.

The engine iterates

    v_{n+1}(t) = (1/c(t)) * sum_j K_h(v_m(t_i) - v_m(t_j)) m_j v_n(t_j),

a mass-weighted kernel average over the grouped levels of a rearrangement.
Because rearrangements are step functions, the mass-weighted sum IS the
exact integral — there is no quadrature error, and one step costs exactly
Q^2 kernel evaluations for Q distinct levels, independent of the pixel
count.  Two weighting schemes exist: "varying" re-reads the weights from the
current iterate (m = n), "fixed" keeps the weights of the initial one
(m = 0).

For the Gaussian kernel, `iterate` makes one pass per iteration over a
single Q x Q float64 buffer that yields both J(v_n) and the weights of the
next step, so the varying scheme holds one Q^2 array and the fixed scheme
two (K(v_0) is kept); see `iterate` for what `k.evaluations` counts.

`functional_j` is the stopping functional: a double sum of the kernel
primitive over squared level differences.  Its gradient in each level value
reproduces the filter weights, which makes every varying-scheme step a
descent step and the relative-decrease stopping rule meaningful.

`expansion_residual` probes the small-h behaviour of one step against the
second-order model  v1 = v0 + a1*ktilde*v0'*h - a2*(v0''/v0'^2)*h^2
(a1 = 1/sqrt(pi), a2 = 1): an interior anti-diffusive sharpening term plus a
border contrast-loss term ktilde supported near the domain ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import GaussianProfile, Kernel, eval_scaled, g_primitive
from .rearrangement import Rearrangement

_EPS = float(np.finfo(np.float64).eps)


@dataclass
class FilterConfig:
    kernel: Kernel
    scheme: str = "varying"  # "varying" (m = n) or "fixed" (m = 0)
    stop_tolerance: float = 1e-5
    max_iterations: int = 100

    def __post_init__(self):
        if self.scheme not in ("varying", "fixed"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.stop_tolerance > 0.0:
            raise ValueError("stop_tolerance must be positive")
        if int(self.max_iterations) < 1:
            raise ValueError("max_iterations must be >= 1")
        self.max_iterations = int(self.max_iterations)


@dataclass
class FilterTrace:
    """Every iterate v_0 ... v_n plus per-iterate diagnostics."""

    iterates: list[Rearrangement] = field(default_factory=list)
    j_values: list[float] = field(default_factory=list)
    sup_norms: list[float] = field(default_factory=list)
    stop_reason: str = "max_iterations"  # "tolerance" | "max_iterations"

    @property
    def iterations(self) -> int:
        """Number of filter steps actually applied."""
        return len(self.iterates) - 1


def _guard_step_values(out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Restore invariants that hold in exact arithmetic but not in floats.

    Every output entry is a convex combination of the input values, so the
    exact result lies in [min x, max x] and — for decaying kernels on a
    non-increasing input — is itself non-increasing.  Floating point can
    overshoot the range and flip near-tied neighbours (the common case once
    iterates collapse toward a constant).  Clamp the range, and snap upward
    jumps back to the left neighbour when they are within accumulated
    roundoff: each output is a quotient of length-Q dot products, whose
    forward error is bounded by ~Q*eps*scale, so the snap threshold is
    4*Q*eps*scale.  Genuine order violations (non-decaying kernels) sit many
    orders of magnitude above that and pass through untouched.
    """
    lo = float(x.min())
    hi = float(x.max())
    out = np.clip(out, lo, hi)
    d = np.diff(out)
    if not np.any(d > 0.0):
        return out
    tol = 4.0 * out.size * _EPS * max(abs(lo), abs(hi))
    for i in range(1, out.size):
        gap = out[i] - out[i - 1]
        if 0.0 < gap <= tol:
            out[i] = out[i - 1]
    return out


def _weighted_average(kmat: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row i of kmat averages x with weights kmat_ij m_j, then the guard.

    One product K @ [m*x, m] gives the numerators and the row sums together.
    """
    num, den = (kmat @ np.stack((m * x, m), axis=1)).T
    return _guard_step_values(num / den, x)


def _gaussian_expm1(x: np.ndarray, h: float, out=None) -> np.ndarray:
    """E_ij = expm1(-((x_i - x_j)/h)^2), built in one Q x Q buffer.

    Pass the previous buffer as `out` to reuse it.  Every entry lies in
    (-1, 0], so -h^2 m^T E m is J without cancellation, and E + 1 is the
    Gaussian weight matrix.
    """
    e = np.subtract.outer(x, x, out=out)
    e /= h
    np.square(e, out=e)
    np.negative(e, out=e)
    return np.expm1(e, out=e)


def nf_step(v_weights: Rearrangement, v_values: Rearrangement, k: Kernel) -> Rearrangement:
    """One filter step: kernel-weighted mass averages of v_values.

    Weights are read from v_weights (pass the same object for the varying
    scheme, the initial rearrangement for the fixed one); both arguments must
    live on the same mass partition.  Performs exactly Q^2 kernel
    evaluations, all through `eval_scaled`.
    """
    if not np.array_equal(v_weights.masses, v_values.masses):
        raise ValueError("mass partitions of weights and values differ")
    w = v_weights.values
    m = v_values.masses
    kmat = eval_scaled(k, w[:, None] - w[None, :])
    return Rearrangement(_weighted_average(kmat, v_values.values, m), m.copy())


def functional_j(v: Rearrangement, k: Kernel) -> float:
    """Stopping functional: sum_ij m_i m_j g((v_i - v_j)^2).

    g is the kernel primitive (`g_primitive`), so dJ/dv_i recovers the
    filter's own weights K_h(v_i - v_j) — the varying-scheme iteration
    descends this functional.  Zero exactly when v is constant.  The sum is
    symmetric and g(0) = 0, so it is taken as twice the sum over i < j:
    g_primitive sees Q(Q-1)/2 squared differences, not Q^2.
    """
    x = v.values
    m = v.masses
    i, j = np.triu_indices(x.size, 1)
    g = g_primitive(k, (x[i] - x[j]) ** 2)
    return 2.0 * float((m[i] * m[j]) @ g)


def iterate(v0: Rearrangement, cfg: FilterConfig) -> FilterTrace:
    """Run the filter to convergence under the relative-J stopping rule.

    Stops once |J(v_{n+1}) - J(v_n)| / |J(v_n)| < stop_tolerance or after
    max_iterations steps.  A constant iterate has J = 0 (the relative rule
    is undefined there); it is a fixed point, so the loop stops immediately
    with reason "tolerance".

    Gaussian kernels take one pass per iteration over one Q x Q float64
    buffer: E = expm1(-((v_i - v_j)/h)^2) of the newest iterate gives
    J = -h^2 m^T E m, then becomes the weights K = E + 1 in place for the
    next step.  The varying scheme holds that one buffer; the fixed scheme
    keeps K(v0), formed by the first step, beside it.  `k.evaluations`
    grows by Q^2 for each set of weights formed: iterations * Q^2 for the
    varying scheme, Q^2 once for the fixed one.  Other profiles run
    `nf_step` and `functional_j` in the same loop.
    """
    k = cfg.kernel
    m = v0.masses
    fixed = cfg.scheme == "fixed"
    gaussian = isinstance(k.profile, GaussianProfile)
    e = None     # Gaussian: the expm1 buffer of the newest iterate
    kmat = None  # Gaussian: the weights of the last step

    def j_of(v: Rearrangement) -> float:
        nonlocal e
        if not gaussian:
            return functional_j(v, k)
        e = _gaussian_expm1(v.values, k.h, out=e)
        return -(k.h * k.h) * float(m @ (e @ m))

    trace = FilterTrace()
    trace.iterates.append(v0)
    trace.j_values.append(j_of(v0))
    trace.sup_norms.append(float(np.max(np.abs(v0.values))))

    for _ in range(cfg.max_iterations):
        if trace.j_values[-1] == 0.0:
            trace.stop_reason = "tolerance"
            break
        vn = trace.iterates[-1]
        if not gaussian:
            vn1 = nf_step(v0 if fixed else vn, vn, k)
        else:
            if kmat is None or not fixed:
                e += 1.0  # E(vn) -> K(vn) in place
                k.add_evaluations(e.size)
                kmat = e
                if fixed:
                    e = None  # keep K(v0); later J's get a buffer of their own
            vn1 = Rearrangement(_weighted_average(kmat, vn.values, m), m.copy())
        trace.iterates.append(vn1)
        trace.j_values.append(j_of(vn1))
        trace.sup_norms.append(float(np.max(np.abs(vn1.values))))
        j_prev, j_new = trace.j_values[-2], trace.j_values[-1]
        if abs(j_new - j_prev) / abs(j_prev) < cfg.stop_tolerance:
            trace.stop_reason = "tolerance"
            break
    return trace


def expansion_residual(v0, k: Kernel, domain_length: float = 1.0):
    """Residual of one filter step against its second-order small-h model.

    v0: samples of a strictly decreasing C^3 function on a uniform grid of
    M >= 256 points over [0, domain_length]; each sample carries mass L/M.
    Returns (residual, ktilde):

      residual — v1 - [v0 + a1*ktilde*v0'*h - a2*(v0''/v0'^2)*h^2] restricted
                 to the middle 50% of the grid (the border term dominates the
                 outer quarters), with a1 = 1/sqrt(pi) and a2 = 1;
      ktilde   — the border profile K_h(v0 - v0(L))/v0'(L)
                 - K_h(v0 - v0(0))/v0'(0) on the full grid.

    Requires a Gaussian kernel (the model's constants are Gaussian-specific)
    and a slope bounded away from zero, since the model divides by v0'^2.
    """
    if not isinstance(k.profile, GaussianProfile):
        raise ValueError("expansion residual is defined for Gaussian kernels")
    v = np.asarray(v0, dtype=np.float64).ravel()
    m = v.size
    if m < 256:
        raise ValueError("need at least 256 samples")
    if not np.all(np.diff(v) < 0.0):
        raise ValueError("samples must be strictly decreasing")

    length = float(domain_length)
    if length <= 0.0:
        raise ValueError("domain_length must be positive")
    dt = length / m

    vp = np.gradient(v, dt, edge_order=2)
    if np.min(np.abs(vp)) < 1e-8:
        raise ValueError("slope too close to zero for the second-order model")
    vpp = np.empty_like(v)
    vpp[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dt * dt)
    vpp[0] = vpp[1]
    vpp[-1] = vpp[-2]

    rearr = Rearrangement(v, np.full(m, dt))
    v1 = nf_step(rearr, rearr, k).values

    ktilde = eval_scaled(k, v - v[-1]) / vp[-1] - eval_scaled(k, v - v[0]) / vp[0]

    a1 = 1.0 / math.sqrt(math.pi)
    h = k.h
    predicted = v + a1 * ktilde * vp * h - (vpp / (vp * vp)) * h * h
    lo = m // 4
    hi = m - m // 4
    residual = (v1 - predicted)[lo:hi]
    return residual, ktilde
