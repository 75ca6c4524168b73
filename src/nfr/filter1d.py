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

`iterate` runs one loop over a dense engine (J of an iterate, one averaging
step).  The Gaussian engine makes one pass per iteration over one Q x Q
float64 buffer for J(v_n) and the next weights, and the fixed scheme keeps
K(v_0) beside it.  Engines check their buffers against available memory.

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


def _weighted_average(kmat: np.ndarray, v: Rearrangement, k: Kernel) -> Rearrangement:
    """Row i of kmat averages v with weights kmat_ij m_j, then the guard.

    One product K @ [m*x, m] gives the numerators and the row sums together.
    An upward jump the guard leaves is a genuine order violation: the kernel
    k does not preserve the level order, so the result is no rearrangement.
    """
    x, m = v.values, v.masses
    num, den = (kmat @ np.stack((m * x, m), axis=1)).T
    out = _guard_step_values(num / den, x)
    if np.any(np.diff(out) > 0.0):
        raise ValueError(
            f"{k!r} breaks the level order: the 1-D engine needs an "
            "order-preserving (log-concave) kernel; use direct_nf "
            "(--filter nf-direct) for this kernel")
    return Rearrangement(out, m.copy())


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
    return _weighted_average(eval_scaled(k, w[:, None] - w[None, :]), v_values, k)


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


def _mem_available(path="/proc/meminfo"):
    """MemAvailable of /proc/meminfo in bytes; None where unreadable."""
    try:
        with open(path) as fh:
            fields = dict(line.split(":", 1) for line in fh)
        return 1024 * int(fields["MemAvailable"].split()[0])
    except (OSError, KeyError, ValueError):
        return None


class _DenseEngine:
    """J through `functional_j`, weights through `eval_scaled`.  words[fixed]:
    the peak in Q x Q float64 arrays (tracemalloc, power kernel p = 2, 4)."""

    words = (4, 4)
    kmat = None  # the weights of v0, kept by the fixed scheme

    def __init__(self, k: Kernel, m: np.ndarray, fixed: bool):
        self.k, self.m, self.fixed = k, m, fixed
        need, avail = 8 * self.words[fixed] * m.size ** 2, _mem_available()
        if avail is not None and need > avail:
            raise MemoryError(f"Q = {m.size} levels need {need} bytes ({need / 2**30:.1f} "
                              f"GiB) of Q x Q buffers; {avail} bytes are available")

    def j(self, v: Rearrangement) -> float:
        return functional_j(v, self.k)

    def weights(self, x: np.ndarray) -> np.ndarray:
        return eval_scaled(self.k, np.subtract.outer(x, x))

    def step(self, v: Rearrangement) -> Rearrangement:
        kmat = self.kmat if self.kmat is not None else self.weights(v.values)
        self.kmat = kmat if self.fixed else None
        return _weighted_average(kmat, v, self.k)


class _GaussianEngine(_DenseEngine):
    """j(v) fills E = expm1(-((v_i - v_j)/h)^2) in (-1, 0]: J = -h^2 m^T E m
    without cancellation.  weights(v), which must follow j(v), makes E the
    weights E + 1 in place; later J's of the fixed scheme get a new buffer."""

    words = (1, 2)
    e = None

    def j(self, v: Rearrangement) -> float:
        h = self.k.h
        e = np.subtract.outer(v.values, v.values, out=self.e)
        e /= h
        np.square(e, out=e)
        np.negative(e, out=e)
        self.e = np.expm1(e, out=e)
        return -(h * h) * float(self.m @ (e @ self.m))

    def weights(self, x: np.ndarray) -> np.ndarray:
        kmat, self.e = self.e, None if self.fixed else self.e
        kmat += 1.0  # E -> K in place
        self.k.add_evaluations(kmat.size)
        return kmat


def iterate(v0: Rearrangement, cfg: FilterConfig) -> FilterTrace:
    """Run the filter to convergence under the relative-J stopping rule.

    Stops once |J(v_{n+1}) - J(v_n)| / |J(v_n)| < stop_tolerance, or at a
    constant iterate (J = 0, a fixed point), with reason "tolerance"; else
    after max_iterations steps.  `k.evaluations` grows by Q^2 per set of
    weights formed: iterations * Q^2 (varying scheme) or Q^2 once (fixed).
    Raises MemoryError, before allocating, for Q x Q buffers beyond the
    available memory, and ValueError for a kernel that breaks the level order.
    """
    k = cfg.kernel
    engine = (_GaussianEngine if isinstance(k.profile, GaussianProfile)
              else _DenseEngine)(k, v0.masses, cfg.scheme == "fixed")
    trace, v = FilterTrace(), v0
    for n in range(cfg.max_iterations + 1):
        if n:
            v = engine.step(v)
        trace.iterates.append(v)
        trace.j_values.append(engine.j(v))
        trace.sup_norms.append(float(np.max(np.abs(v.values))))
        j = trace.j_values
        if ((n and abs(j[-1] - j[-2]) / abs(j[-2]) < cfg.stop_tolerance)
                or (j[-1] == 0.0 and n < cfg.max_iterations)):
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
