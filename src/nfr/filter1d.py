"""One-dimensional neighborhood-filter iterations on rearrangements.

The engine iterates

    v_{n+1}(t) = (1/c(t)) * sum_j K_h(v_m(t_i) - v_m(t_j)) m_j v_n(t_j),

a mass-weighted kernel average over the grouped levels of a rearrangement.
Because rearrangements are step functions, the mass-weighted sum IS the
exact integral — there is no quadrature error, and one step applies exactly
Q^2 pair weights for Q distinct levels, independent of the pixel count.
Two weighting schemes exist: "varying" re-reads the weights from the
current iterate (m = n), "fixed" keeps the weights of the initial one
(m = 0).

`iterate` makes one pass per iteration over row blocks [a, b) of the Q x Q
pair matrix, and each block gives its share of J(v_n) and its rows of the
next step.  A block holds at most _BLOCK_BYTES of float64 pair values, so
memory is a few blocks plus O(Q) vectors, never Q x Q.  A profile with a
`minus_one` hook (the Gaussian) gives J and the weights from one expm1
block, and since K_h(v_i - v_j) is symmetric in (i, j) that block takes
only the columns [a, Q): each unordered pair's weight is computed once and
used for both (i, j) and (j, i), about Q(Q + r)/2 expm1 values per pass for
r-row blocks instead of Q^2.  Any other profile gives J from its primitive
over the block's i < j pairs and the weights from the profile on all Q
columns.  The fixed scheme recomputes the K(v_0) blocks each step.  In both
schemes a step applies Q^2 pair weights, and that is what `iterate` counts.

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
_BLOCK_BYTES = 1 << 20  # bytes of float64 pair values per row block (rows * Q * 8)


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

    Read left to right: a snapped entry takes its left neighbour's value s,
    and the entries after it snap to s for as long as they exceed s by at
    most the threshold.  Only the upward jumps of the clamped values and the
    snap chains they start are visited.
    """
    lo = float(x.min())
    hi = float(x.max())
    out = np.clip(out, lo, hi)
    tol = 4.0 * out.size * _EPS * max(abs(lo), abs(hi))
    for i in (np.flatnonzero(np.diff(out) > 0.0) + 1).tolist():
        s = out[i - 1]  # a jump inside an earlier chain meets out[i] == s
        while i < out.size and 0.0 < out[i] - s <= tol:
            out[i] = s
            i += 1
    return out


def _checked_step(nd: np.ndarray, v: Rearrangement, k: Kernel) -> Rearrangement:
    """The step num/den of v from the columns of nd, through the guard.

    An upward jump the guard leaves is a genuine order violation: the kernel
    k does not preserve the level order, so the result is no rearrangement.
    """
    out = _guard_step_values(nd[:, 0] / nd[:, 1], v.values)
    if np.any(np.diff(out) > 0.0):
        raise ValueError(
            f"{k!r} breaks the level order: the 1-D engine needs an "
            "order-preserving (log-concave) kernel; use direct_nf "
            "(--filter nf-direct) for this kernel")
    return Rearrangement(out, v.masses.copy())


def nf_step(v_weights: Rearrangement, v_values: Rearrangement, k: Kernel) -> Rearrangement:
    """One filter step: kernel-weighted mass averages of v_values.

    Weights are read from v_weights (pass the same object for the varying
    scheme, the initial rearrangement for the fixed one); both arguments must
    live on the same mass partition.  Performs exactly Q^2 kernel
    evaluations, all through `eval_scaled`, on one dense Q x Q matrix: the
    one-step reference for `iterate`'s blocked passes.  One product with
    [m*x, m] gives the numerators and the row sums together.
    """
    if not np.array_equal(v_weights.masses, v_values.masses):
        raise ValueError("mass partitions of weights and values differ")
    w, x, m = v_weights.values, v_values.values, v_values.masses
    kmat = eval_scaled(k, w[:, None] - w[None, :])
    return _checked_step(kmat @ np.stack((m * x, m), axis=1), v_values, k)


def _pass(k: Kernel, v: Rearrangement, w: np.ndarray | None):
    """One pass over the row blocks of v: J(v), and unless w is None the
    [numerator, row sum] of every row of v's next step under the weights
    K_h(w_i - w_j) (else None).  With the profile's `minus_one` hook, row
    block [a, b) takes the columns [a, Q) only: its block E = K - 1 of v
    gives the share -h^2 m[a:b]^T E c of J = -h^2 m^T E m, where c is m[a:]
    with the entries right of the diagonal block doubled, and, plus one in
    place, the weights, applied to rows [a, b) and, transposed, to the rows
    right of the block.  Each unordered pair's weight is thus computed once,
    about Q(Q + r)/2 values per pass for r-row blocks; a single block
    (r >= Q) is the full-row computation.  Without the hook, J sums
    m_i m_j g((v_i - v_j)^2) over the block's i < j pairs, and the weights
    are the profile on all Q columns.  Counts no evaluations: `iterate`
    counts the Q^2 pair weights of each step it applies.
    """
    x, m, h = v.values, v.masses, k.h
    minus_one = getattr(k.profile, "minus_one", None)
    rows = max(1, _BLOCK_BYTES // (8 * x.size))
    nd = None if w is None else np.zeros((x.size, 2))
    rhs = None if w is None else np.stack((m * x, m), axis=1)
    total = 0.0
    for a in range(0, x.size, rows):
        b = min(a + rows, x.size)
        if minus_one is None:
            d = np.subtract.outer(x[a:b], x)
            upper = np.arange(x.size) > np.arange(a, b)[:, None]
            g = g_primitive(k, np.square(d[upper]))
            total += float(np.outer(m[a:b], m)[upper] @ g)
            if w is not None:
                d = d if w is x else np.subtract.outer(w[a:b], w)
                nd[a:b] = k.profile(d / h) @ rhs
            continue
        # columns [a, Q): the diagonal block, then pairs that stand for
        # both (i, j) and (j, i), hence twice their mass in J
        d = np.subtract.outer(x[a:b], x[a:])
        d /= h
        e = minus_one(d)
        c = m[a:].copy()
        c[b - a:] *= 2.0
        total += float(m[a:b] @ (e @ c))
        if w is not None:
            if w is not x:
                e = np.subtract.outer(w[a:b], w[a:])
                e /= h
                e = minus_one(e)
            e += 1.0  # E -> K in place
            nd[a:b] += e @ rhs[a:]
            nd[b:] += e[:, b - a:].T @ rhs[a:b]
    return (2.0 * total if minus_one is None else -(h * h) * total), nd


def functional_j(v: Rearrangement, k: Kernel) -> float:
    """Stopping functional: sum_ij m_i m_j g((v_i - v_j)^2).

    g is the kernel primitive (`g_primitive`), so dJ/dv_i recovers the
    filter's own weights K_h(v_i - v_j) — the varying-scheme iteration
    descends this functional.  Zero exactly when v is constant.  Taken one
    row block at a time (see `_pass`): for a profile without the `minus_one`
    hook, as twice the sum over i < j, so g_primitive sees Q(Q-1)/2 squared
    differences, not Q^2.  Above one block (Q > 362 at _BLOCK_BYTES = 1 MiB)
    J can change at the ulp level with the block layout: the sum's order,
    and for the log-radius rule g's table, follow the blocks.
    """
    return _pass(k, v, None)[0]


def iterate(v0: Rearrangement, cfg: FilterConfig) -> FilterTrace:
    """Run the filter to convergence under the relative-J stopping rule.

    Stops once |J(v_{n+1}) - J(v_n)| / |J(v_n)| < stop_tolerance, or at a
    constant iterate (J = 0, a fixed point), with reason "tolerance"; else
    after max_iterations steps.  Pass n gives J(v_n) and the step to v_{n+1};
    the step is applied, and its Q^2 weights added to `k.evaluations`, only
    if the run goes on, so the count is iterations * Q^2 in both schemes.
    Raises ValueError for a kernel that breaks the level order.
    """
    k = cfg.kernel
    trace, v = FilterTrace(), v0
    for n in range(cfg.max_iterations + 1):
        more = n < cfg.max_iterations
        w = (v0 if cfg.scheme == "fixed" else v).values if more else None
        j, nd = _pass(k, v, w)
        trace.iterates.append(v)
        trace.j_values.append(j)
        trace.sup_norms.append(float(np.max(np.abs(v.values))))
        js = trace.j_values
        if ((n and abs(js[-1] - js[-2]) / abs(js[-2]) < cfg.stop_tolerance)
                or (j == 0.0 and more)):
            trace.stop_reason = "tolerance"
            break
        if more:
            k.add_evaluations(v.values.size ** 2)
            v = _checked_step(nd, v, k)
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
    if not length > 0.0:
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
