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

`iterate` makes one pass per iteration, one loop over row blocks [a, b) of
the Q x Q pair matrix for every profile, and each block gives its share of
J(v_n) and its rows of the next step.  A block holds at most _BLOCK_BYTES
of float64 pair values, so memory is a few blocks plus O(Q) vectors, never
Q x Q.  As K_h(v_i - v_j) is symmetric in (i, j), a block takes only the
columns right of its diagonal: each unordered pair's weight is computed
once for both (i, j) and (j, i), at most Q(Q + r)/2 weights per step for
r-row blocks.  The Gaussian (`GaussianProfile` and its subclasses) gives
J and the weights from one expm1 block, and drops the columns of levels
more than 6.2 h below the block's rows, whose float64 weights are exactly
0.0 (the cut is derived in `_pass`): its blocks cover a band of the pair
matrix, and the J terms of the dropped pairs, each exactly -2 m_i m_j, are
summed apart from the suffix sums of the masses.  Nothing is approximated;
the band computes a third of Q^2 on noisy squares at h = 25, whose
plateaus lie more than 6.2 h apart.  Any other profile gives J from its
primitive over the Q(Q - 1)/2 pairs i < j.  The fixed scheme recomputes
the K(v_0) blocks each step.  `nf_step` is one pass, its J dropped.  A step
applies Q^2 pair weights, zeros included, which `iterate` and `nf_step`
count in the kernel; the trace's `pairs_computed` counts the values the
passes computed, and only `expansion_residual`'s ktilde calls `eval_scaled`.

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
_CUT = 6.2  # in units of h: past it a Gaussian weight is exactly 0.0 (see _pass)


def _gauss_minus_one(d: np.ndarray) -> np.ndarray:
    """The Gaussian's K - 1 = expm1(-d^2), in place in the float64 array d:
    the sequence (square, negate, expm1) for which _CUT is derived."""
    np.square(d, out=d)
    np.negative(d, out=d)
    return np.expm1(d, out=d)


def _int_param(name: str, value, least: int) -> int:
    """value as an int >= least, else ValueError naming the parameter."""
    try:
        n = int(value)
    except (OverflowError, ValueError):  # inf, nan
        n = None
    if n is None or n != value or n < least:
        raise ValueError(f"{name} must be >= {least} and a finite integer, got {value!r}")
    return n


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
        if math.isinf(self.stop_tolerance):
            raise ValueError("stop_tolerance must be finite")
        self.max_iterations = _int_param("max_iterations", self.max_iterations, 1)


@dataclass
class FilterTrace:
    """Every iterate v_0 ... v_n, all on v_0's masses array (a step moves
    values, never level sets), plus per-iterate diagnostics."""

    iterates: list[Rearrangement] = field(default_factory=list)
    j_values: list[float] = field(default_factory=list)
    sup_norms: list[float] = field(default_factory=list)
    stop_reason: str = "max_iterations"  # "tolerance" | "max_iterations"
    pairs_computed: int = 0  # pair values the passes computed (see _pass)

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
    """The step num/den of v from the columns of nd, through the guard,
    with its Q^2 pair weights added to `k.evaluations`.

    An upward jump the guard leaves is a genuine order violation: the kernel
    k does not preserve the level order, so the result is no rearrangement.
    """
    k.add_evaluations(v.values.size ** 2)
    out = _guard_step_values(nd[:, 0] / nd[:, 1], v.values)
    if np.any(np.diff(out) > 0.0):
        raise ValueError(
            f"{k!r} breaks the level order: the 1-D engine needs an "
            "order-preserving (log-concave) kernel; use direct_nf "
            "(--filter nf-direct) for this kernel")
    return Rearrangement(out, v.masses)


def nf_step(v_weights: Rearrangement, v_values: Rearrangement, k: Kernel) -> Rearrangement:
    """One filter step: kernel-weighted mass averages of v_values.

    Weights are read from v_weights (pass the same object for the varying
    scheme, the initial rearrangement for the fixed one); both arguments must
    live on the same mass partition.  One pass of `iterate`'s block loop
    `_pass`, its J dropped, so never Q x Q; counts the step's Q^2 weights.
    """
    if not np.array_equal(v_weights.masses, v_values.masses):
        raise ValueError("mass partitions of weights and values differ")
    return _checked_step(_pass(k, v_values, v_weights.values)[1], v_values, k)


def _pass(k: Kernel, v: Rearrangement, w: np.ndarray | None):
    """One pass over the row blocks of v: J(v), unless w is None the
    [numerator, row sum] of every row of v's next step under the weights
    K_h(w_i - w_j) (else None), and the number of pair values computed.

    One loop serves every profile: row block [a, b) takes the columns
    [a, hi) only, and its weights are applied to rows [a, b) and,
    transposed, to the rows [b, hi), so each unordered pair's weight is
    computed once (K is even, and fl(x_i - x_j) = -fl(x_j - x_i)).  For
    the Gaussian (g(s) = -h^2 (K(sqrt(s)/h) - 1)), the block E = K - 1 of
    v, from _gauss_minus_one, gives the share -h^2 m[a:b]^T E c of
    J = -h^2 m^T E m, where c is m[a:hi] with the entries right of the
    diagonal block doubled, and, plus one in place, the weights.  The
    columns past hi are the exact zeros of the weights: with
    hi = max(b, reach[b - 1]), where reach[i] is the first level more than
    _CUT = 6.2 h below level i (of w too, in the fixed scheme), every such
    pair has E == -1.0 and K == 0.0 in float64, so it adds 0 to the step
    and -2 m_i m_j to the sum for J, taken as -2 sum(m[a:b]) S[hi] with S
    the suffix sums of m.

    The cut: for d >= sqrt(54 ln 2) = 6.118 the true exp(-d^2) is below
    2^-54, half the float spacing 2^-53 just above -1, so expm1(-d^2) rounds
    to -1.0 and K = E + 1 to 0.0.  Level j is cut when x_j < fl(x_i - fl(6.2
    h)), which for floats implies x_i - x_j > fl(6.2 h) exactly; the
    computed fl(fl(x_i - x_j) / h) is then at least 6.2 (1 - u)^3 and its
    square above 38.4 (u = 2^-53), where exp(-38.4) = 2.1e-17 is 0.38 of
    the 2^-54 rounding bound.  The 1.3 % margin over 6.118 leaves room for
    expm1's own error, which is below one ulp.

    Blocks take _BLOCK_BYTES / 8Q rows.  Once the band is narrower than Q
    (width = max(reach[i] - i) < Q) they take min(max(width, 64),
    _BLOCK_BYTES / 16 width) rows if that is more: a band block holds at
    most rows (rows + width) values, and few rows of a narrow band would
    spend the pass in the loop.  One buffer of that size holds each block
    in turn, so no block allocates.  A single block (rows >= Q) is the
    full-row computation.  For any other profile, whatever attributes it
    carries, hi = Q, and J is twice the sum of m_i m_j g((v_i - v_j)^2)
    over the pairs i < j of the blocks.  The count is of the values the
    blocks compute (expm1, or g and the profile); `_checked_step` counts
    the Q^2 pair weights of each step apart.
    """
    x, m, h = v.values, v.masses, k.h
    q = x.size
    gauss = isinstance(k.profile, GaussianProfile)
    rows = max(1, _BLOCK_BYTES // (8 * q))
    nd = None if w is None else np.zeros((q, 2))
    rhs = None if w is None else np.stack((m * x, m), axis=1)
    total, pairs = 0.0, 0
    # reach[i]: the first j with x_j < fl(x_i - cut), as -x_j > fl(cut - x_i);
    # for any other profile no weight is known to be 0.0: no cut, and reach = Q
    cut = _CUT * h if gauss else math.inf
    reach = np.searchsorted(-x, cut - x, side="right")
    if w is not None and w is not x:
        reach = np.maximum(reach, np.searchsorted(-w, cut - w, side="right"))
    width = int(np.max(reach - np.arange(q)))
    if width < q:
        rows = max(rows, min(max(width, 64), _BLOCK_BYTES // (16 * width)))
    suffix = np.append(np.cumsum(m[::-1])[::-1], 0.0).tolist()  # sum(m[i:])
    buf = np.empty(min(rows, q) * min(q, rows + width))  # holds any one block
    for a in range(0, q, rows):
        b = min(a + rows, q)
        r, hi = b - a, max(b, int(reach[b - 1]))
        d = buf[:r * (hi - a)].reshape(r, hi - a)
        d[...] = x[a:b, None]  # fill, subtract in place: subtract.outer's bits, 2/3 the time
        d -= x[a:hi]
        if not gauss:  # g of the pairs i < j: the diagonal block's triangle, then [b, Q)
            upper = np.arange(r)[:, None] < np.arange(r)
            g = g_primitive(k, np.square(d[:, :r][upper]))
            rest = g_primitive(k, np.square(d[:, r:]))
            total += float(np.outer(m[a:b], m[a:b])[upper] @ g) + float(m[a:b] @ (rest @ m[b:]))
            pairs += g.size + rest.size
        else:  # E = K - 1 gives J, with twice the mass right of the diagonal block
            d /= h
            e = _gauss_minus_one(d)
            c = m[a:hi].copy()
            c[r:] *= 2.0
            total += float(m[a:b] @ (e @ c)) - 2.0 * float(m[a:b].sum()) * suffix[hi]
            pairs += e.size
        if w is None:
            continue
        if w is not x:  # J is taken: the weights reuse the buffer
            d[...] = w[a:b, None]
            d -= w[a:hi]
            if gauss:
                d /= h
                e = _gauss_minus_one(d)
                pairs += e.size
        if not gauss:
            e = k.profile(d / h)
            pairs += e.size
        else:
            e += 1.0  # E -> K in place
        nd[a:b] += e @ rhs[a:hi]
        nd[b:hi] += e[:, r:].T @ rhs[a:b]
    return 0.0 + (-(h * h) if gauss else 2.0) * total, nd, pairs  # +0.0 at J = 0


def functional_j(v: Rearrangement, k: Kernel) -> float:
    """Stopping functional: sum_ij m_i m_j g((v_i - v_j)^2).

    g is the kernel primitive (`g_primitive`), so dJ/dv_i recovers the
    filter's own weights K_h(v_i - v_j) — the varying-scheme iteration
    descends this functional.  Zero exactly when v is constant.  Taken one
    row block at a time, each unordered pair once (see `_pass`): for a
    profile other than the Gaussian, as twice the sum over i < j, so
    g_primitive sees Q(Q-1)/2 squared differences, not Q^2.  Above one
    block (Q > 362 at _BLOCK_BYTES = 1 MiB) J can change at the ulp level
    with the block layout: the sum's order, and for the log-radius rule g's
    tables, follow the blocks.  For the Gaussian, the pairs more than 6.2 h
    apart, whose terms are exactly -2 m_i m_j, are summed apart, one term
    per block, so J can move by an ulp against a sum that takes them in
    the block's order.
    """
    return _pass(k, v, None)[0]


def iterate(v0: Rearrangement, cfg: FilterConfig) -> FilterTrace:
    """Run the filter to convergence under the relative-J stopping rule.

    Stops once |J(v_{n+1}) - J(v_n)| / |J(v_n)| < stop_tolerance, or at a
    constant iterate (J = 0, a fixed point), with reason "tolerance"; else
    after max_iterations steps.  Pass n gives J(v_n) and the step to v_{n+1};
    the step is applied, and its Q^2 weights added to `k.evaluations`, only
    if the run goes on, so the count is iterations * Q^2 in both schemes.
    Raises ValueError for a kernel that breaks the level order, or for a J
    that is not finite.
    """
    k = cfg.kernel
    trace, v = FilterTrace(), v0
    for n in range(cfg.max_iterations + 1):
        more = n < cfg.max_iterations
        w = (v0 if cfg.scheme == "fixed" else v).values if more else None
        j, nd, pairs = _pass(k, v, w)
        trace.pairs_computed += pairs
        if not math.isfinite(j):
            raise ValueError(f"the stopping functional J is {j} at iteration {n}")
        trace.iterates.append(v)
        trace.j_values.append(j)
        trace.sup_norms.append(float(np.max(np.abs(v.values))))
        js = trace.j_values
        if ((n and abs(js[-1] - js[-2]) / abs(js[-2]) < cfg.stop_tolerance)
                or (j == 0.0 and more)):
            trace.stop_reason = "tolerance"
            break
        if more:
            v = _checked_step(nd, v, k)
    return trace


def expansion_residual(v0, k: Kernel):
    """Residual of one filter step against its second-order small-h model.

    v0: samples of a strictly decreasing C^3 function on a uniform grid of
    M >= 256 points over [0, 1]; each sample carries mass 1/M.
    Returns (residual, ktilde):

      residual — v1 - [v0 + a1*ktilde*v0'*h - a2*(v0''/v0'^2)*h^2] restricted
                 to the middle 50% of the grid (the border term dominates the
                 outer quarters), with a1 = 1/sqrt(pi) and a2 = 1;
      ktilde   — the border profile K_h(v0 - v0(1))/v0'(1)
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
    dt = 1.0 / m

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
