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

`iterate` makes one pass per iteration, and each pass gives J(v_n) and
the next step; a pass runs one of two engines, chosen per pass by a cost
estimate (see `_pass`).

The band is one loop over row blocks [a, b) of the Q x Q pair matrix for
every profile, and each block gives its share of J(v_n) and its rows of
the next step.  A block holds at most _BLOCK_BYTES of float64 pair
values, so memory is a few blocks plus O(Q) vectors, never Q x Q.  As
K_h(v_i - v_j) is symmetric in (i, j), a block takes only the columns
right of its diagonal: each unordered pair's weight is computed once for
both (i, j) and (j, i), at most Q(Q + r)/2 weights per step for r-row
blocks.  The Gaussian (`GaussianProfile` and its subclasses) gives J and
the weights from one expm1 block, and drops the columns of levels more
than 6.2 h below the block's rows, whose float64 weights are exactly 0.0
(the cut is derived in `_pass`): its blocks cover a band of the pair
matrix, and the J terms of the dropped pairs, each exactly -2 m_i m_j,
are summed apart from the suffix sums of the masses.  Nothing is
approximated; the band computes a third of Q^2 on noisy squares at
h = 25, whose plateaus lie more than 6.2 h apart.  Any other profile
gives J from its primitive over the Q(Q - 1)/2 pairs i < j.  The fixed
scheme recomputes the K(v_0) blocks each step.

The box engine serves Gaussian passes only: a single-level black-box FMM
(Fong & Darve 2009).  The levels fall in boxes about h/8 wide, each with
10 Chebyshev nodes; every box offset up to 51 goes through one 10 x 10
transfer matrix, applied to all boxes at once, so a pass costs about
Q * 10 + 103 * 10^2 * 2 per box, whatever the pair count.  J takes the
transfers for boxes two or more apart, the exact -2 m_i m_j for pairs
past the last offset, and a 12-term series of expm1 in centred moments
for boxes zero or one apart (the series idea of the improved fast Gauss
transform, Yang, Duraiswami & Gumerov 2003), where K - 1 needs its
relative accuracy.  Its steps were within 6e-15 of the scale of the
band's (7e-14 on tight clusters of levels), and its J within 1e-14 of
the band's, relative (see `_box_pass`).

`nf_step` is one pass without J.  A step applies Q^2 pair weights, zeros
included, which `iterate` and `nf_step` count in the kernel; the trace's
`pairs_computed` counts the values the passes computed (for the box, its
interpolation and transfer entries), `engines` names each pass's engine,
and only `expansion_residual`'s ktilde calls `eval_scaled`.

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
_NODES = 10  # Chebyshev nodes per box of the box engine (see _box_pass)
_PER_H = 8  # boxes per h: a box is about h/8 wide
_OFFSETS = 51  # ceil(_CUT * _PER_H) + 1: box offsets through the transfers
_TERMS = 12  # terms of the expm1 series for J's pairs within one box or two
_BOX_FIXED = 100_000  # the box engine's cost, in band values (see _pass)
_BOX_PER_BASIS = 45  # per level and Lagrange basis
_BOX_PER_MOMENTS = 35  # per level, for J's moments
_BOX_PER_PRODUCT = 9  # per box and column of one offset's transfer
_BOX_PER_J_BOX = 250  # per box, for J's moments


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
    engines: list[str] = field(default_factory=list)  # "band" or "box", one per pass

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
    live on the same mass partition.  One pass of `iterate`'s `_pass`
    that takes no J, so never Q x Q; counts the step's Q^2 weights.
    """
    if not np.array_equal(v_weights.masses, v_values.masses):
        raise ValueError("mass partitions of weights and values differ")
    return _checked_step(_pass(k, v_values, v_weights.values, j=False)[1], v_values, k)


def _pass(k: Kernel, v: Rearrangement, w: np.ndarray | None, j: bool = True,
          _engine: str | None = None):
    """One pass over v: J(v) (None when j is False), unless w is None the
    [numerator, row sum] of every row of v's next step under the weights
    K_h(w_i - w_j) (else None), the number of values computed, and the
    engine that ran ("band" or "box").  _engine forces the engine for tests.

    The band.  One loop serves every profile: row block [a, b) takes the
    columns [a, hi) only, and its weights are applied to rows [a, b) and,
    transposed, to the rows [b, hi), so each unordered pair's weight is
    computed once (K is even, and fl(x_i - x_j) = -fl(x_j - x_i)).  For
    the Gaussian (g(s) = -h^2 (K(sqrt(s)/h) - 1)), the block E = K - 1 of
    v, from _gauss_minus_one, gives the share -h^2 m[a:b]^T E c of
    J = -h^2 m^T E m, where c is m[a:hi] with the entries right of the
    diagonal block doubled, and, plus one in place, the weights.  The
    columns past hi are the exact zeros of the weights: with
    hi = max(b, reach[b - 1]), where reach[i] is the first level more than
    _CUT = 6.2 h below level i (of w, and of v too when J is taken), every
    such pair has E == -1.0 and K == 0.0 in float64, so it adds 0 to the
    step and -2 m_i m_j to the sum for J, taken as -2 sum(m[a:b]) S[hi]
    with S the suffix sums of m.

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
    over the pairs i < j of the blocks.  The band's count is of the values
    its blocks compute (expm1, or g and the profile); `_checked_step`
    counts the Q^2 pair weights of each step apart.

    The choice.  A Gaussian pass runs the box engine (`_box_pass`) when its
    estimated cost is below the band's, both in units of one band value
    (about 4 ns on the 2-vCPU x86-64 host it was fitted on).  The band's
    cost is the count of values its blocks will compute, known from reach
    and the rows before the loop: the pairs of each block, twice for a
    fixed-scheme pass that takes J.  The box's, `_box_cost`, is

        100 000 + Q (45 per Lagrange basis + 35 for J's moments)
                + boxes (9 per column of each offset's transfer + 250 for J),

    with a basis per level set that gets boxes (w, and v for J if other)
    and 2 (2D + 1) transfer columns for the step, D / 2 for J.  The
    constants were fitted to 280 timed passes (Q = 300 to 16 000,
    range / h = 0.5 to 300, both schemes, J-only and step-only passes);
    the fit's median error was 10 %.  The fixed and per-level parts exceed
    the 2 * 256^2 values of any pass with Q <= 256, so every such pass
    stays on the band.  On uniform levels (one varying pass) the rule
    takes the box up to range / h = 2, 5, 13, 31, 50, 130 and 300 at
    Q = 500, 700, 1 000, 2 000, 4 000, 8 000 and 16 000, and at Q <= 300
    never; in the timed passes the box was faster in the same cells but
    two, each near a crossover.  On 64^2 float noisy squares at h = 25
    (Q = 4 096, range / h = 13) the box passes took 4 to 5 ms against the
    band's 25 to 29 (41 to 52 ms fixed).  The box's count is of its
    interpolation entries (Q x 10 per basis) and transfer entries (10^2
    per box and offset: 2D + 1 for the step, D - 1 for J).  _engine
    forces one engine, for tests; the box runs only where its box centres
    are floats (|x| / width < 2^44), else the band.
    """
    x, m, h = v.values, v.masses, k.h
    q = x.size
    gauss = isinstance(k.profile, GaussianProfile)
    rows = max(1, _BLOCK_BYTES // (8 * q))
    # reach[i]: the first j with x_j < fl(x_i - cut), as -x_j > fl(cut - x_i);
    # for any other profile no weight is known to be 0.0: no cut, and reach = Q
    cut = _CUT * h if gauss else math.inf
    reach = np.searchsorted(-x, cut - x, side="right") if j else 0
    if w is not None and (w is not x or not j):
        reach = np.maximum(reach, np.searchsorted(-w, cut - w, side="right"))
    width = int(np.max(reach - np.arange(q)))
    if width < q:
        rows = max(rows, min(max(width, 64), _BLOCK_BYTES // (16 * width)))
    if gauss and _engine != "band":
        starts = np.arange(0, q, rows)
        ends = np.minimum(starts + rows, q)
        band = int(np.sum((ends - starts) * (np.maximum(ends, reach[ends - 1]) - starts)))
        band *= 1 + (j and w is not None and w is not x)  # v's block and w's
        cost = _box_cost(x, h, w, j)
        if cost is not None and (_engine == "box" or cost < band):
            total, nd, pairs = _box_pass(x, m, h, w, j)
            return (0.0 - (h * h) * total if j else None), nd, pairs, "box"
    nd = None if w is None else np.zeros((q, 2))
    rhs = None if w is None else np.stack((m * x, m), axis=1)
    total, pairs = 0.0, 0
    suffix = np.append(np.cumsum(m[::-1])[::-1], 0.0).tolist()  # sum(m[i:])
    buf = np.empty(min(rows, q) * min(q, rows + width))  # holds any one block
    for a in range(0, q, rows):
        b = min(a + rows, q)
        r, hi = b - a, max(b, int(reach[b - 1]))
        d = buf[:r * (hi - a)].reshape(r, hi - a)
        if j:
            d[...] = x[a:b, None]  # fill, subtract in place: subtract.outer's bits, 2/3 the time
            d -= x[a:hi]
            if not gauss:  # g of the pairs i < j: the diagonal block's triangle, then [b, Q)
                upper = np.arange(r)[:, None] < np.arange(r)
                g = g_primitive(k, np.square(d[:, :r][upper]))
                rest = g_primitive(k, np.square(d[:, r:]))
                total += (float(np.outer(m[a:b], m[a:b])[upper] @ g)
                          + float(m[a:b] @ (rest @ m[b:])))
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
        if w is not x or not j:  # the weights of w, in the buffer J used
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
    j_value = 0.0 + (-(h * h) if gauss else 2.0) * total  # +0.0 at J = 0
    return (j_value if j else None), nd, pairs, "band"


def _box_width(h: float) -> float:
    """The box width: h/8 rounded down to 8 significant bits, so that every
    box centre (g + 1/2) width with |g| < 2^44 is a float."""
    frac, e = math.frexp(h / _PER_H)
    return math.ldexp(math.floor(frac * 256.0) / 256.0, e)


def _box_cost(x, h, w, j) -> float | None:
    """The box engine's estimated cost of a pass in band values (see
    _pass), or None where a box centre would not be a float."""
    width = _box_width(h)
    layouts = [] if w is None else [w]  # the level sets that get boxes
    if j and w is not x:
        layouts.append(x)
    boxes = 0
    for values in layouts:
        ends = (values[0] / width, values[-1] / width)
        if not (width > 0.0 and max(map(abs, ends)) < 2.0**44):
            return None
        boxes = max(boxes, math.floor(ends[0]) - math.floor(ends[1]) + 1)
    bases = len(layouts)
    offsets = min(2 * _OFFSETS + 1, 2 * boxes - 1)
    products = 2 * offsets * (w is not None) + offsets // 2 * j
    return (_BOX_FIXED + x.size * (_BOX_PER_BASIS * bases + _BOX_PER_MOMENTS * j)
            + boxes * (_BOX_PER_PRODUCT * products + _BOX_PER_J_BOX * j))


def _nodes() -> np.ndarray:
    """The _NODES first-kind Chebyshev nodes cos((2k + 1) pi / 2p) of [-1, 1]."""
    return np.cos((2 * np.arange(_NODES) + 1) * (math.pi / (2 * _NODES)))


def _lagrange(t: np.ndarray) -> np.ndarray:
    """L[k, i] = prod_{l != k} (t_i - xi_l) / (xi_k - xi_l), the Lagrange
    basis of the Chebyshev nodes xi at the points t, from prefix and suffix
    products, so a point on a node needs no case of its own."""
    xi = _nodes()
    d = t - xi[:, None]
    out = np.empty_like(d)
    out[0] = 1.0
    for k in range(1, _NODES):
        np.multiply(out[k - 1], d[k - 1], out=out[k])
    suffix = d[-1].copy()
    for k in range(_NODES - 2, -1, -1):
        out[k] *= suffix
        suffix *= d[k]
    gaps = xi[:, None] - xi
    np.fill_diagonal(gaps, 1.0)
    out /= gaps.prod(axis=1)[:, None]
    return out


def _add_box_sums(out: np.ndarray, box: np.ndarray, rows: np.ndarray):
    """out[..., A] += the sum of rows[..., i] over the levels i of box A, for
    one block of levels (box non-decreasing)."""
    starts = np.flatnonzero(np.diff(box, prepend=-1))
    out[..., box[starts]] += np.add.reduceat(rows, starts, axis=-1)


def _box_layout(values: np.ndarray, width: float):
    """(box, t, boxes): each level's box, 0 at the top, its coordinate
    t = (x - c) / (width / 2) in [-1, 1] about its box's centre c, and
    the box count.  Boxes lie on the grid of multiples of width, so each
    centre c = (g + 1/2) width is a float, x - c is rounded once, and the
    centres of boxes A and A + o are exactly o width apart."""
    g = np.floor(values / width)
    box = (g[0] - g).astype(np.intp)
    t = values - (g + 0.5) * width
    t *= 2.0 / width
    return box, t, int(box[-1]) + 1


def _lagrange_sums(layout, cols: np.ndarray, keep: bool):
    """S[c, k, A] = sum over the levels i of box A of cols[c, i] L[k, i], one
    block of levels at a time, and the basis L (p x levels) when keep."""
    box, t, n = layout
    sums = np.zeros((cols.shape[0], _NODES, n))
    basis = np.empty((_NODES, t.size)) if keep else None
    rows = max(1, _BLOCK_BYTES // (8 * _NODES * (cols.shape[0] + 3)))
    for a in range(0, t.size, rows):
        b = min(a + rows, t.size)
        part = _lagrange(t[a:b])
        if keep:
            basis[:, a:b] = part
        _add_box_sums(sums, box[a:b], cols[:, None, a:b] * part)
    return sums, basis


def _transfer(src: np.ndarray, rho: float, lo: int, hi: int) -> np.ndarray:
    """F[c, k, A] = sum_{o = lo..hi} sum_l T_o[k, l] src[c, l, A + o] for
    every box A, src being 0 outside the boxes, where T_o[k, l] =
    exp(-(rho (o + (xi_k - xi_l) / 2))^2) is the Gaussian between node k
    of box A and node l of box A + o, whose centres are rho h apart.  The
    rows of each product are the boxes' windows of src, one block of
    boxes at a time, summed by einsum: a BLAS product's sums follow its
    thread count."""
    c, p, n = src.shape
    xi = _nodes()
    s = rho * (np.arange(lo, hi + 1)[:, None, None] + 0.5 * (xi[:, None] - xi))
    tcat = np.exp(-(s * s)).transpose(1, 0, 2).reshape(p, -1)  # [k, (o, l)]
    before = max(0, -lo)
    pad = np.zeros((c, before + n + max(0, hi), p))  # box-major: a window is a slice
    pad[:, before:before + n] = src.transpose(0, 2, 1)
    out = np.empty((c, n, p))
    nb = max(1, _BLOCK_BYTES // (8 * tcat.shape[1]))  # rows per product
    for i in range(c):
        flat = pad[i, before + lo:].reshape(-1)
        windows = np.lib.stride_tricks.sliding_window_view(flat, tcat.shape[1])[::p]
        for a in range(0, n, nb):
            out[i, a:a + nb] = np.einsum("aj,kj->ak", windows[a:a + nb], tcat)
    return out.transpose(0, 2, 1)


def _series() -> np.ndarray:
    """W with mu(A) W mu(B) = sum_{i in A, j in B} m_i m_j expm1(-(a_i - b_j)^2)
    for the moments mu_r = sum m a^r, r <= 2 _TERMS: the first _TERMS terms
    of expm1(-u) = sum_n (-u)^n / n!, each (a - b)^2n expanded binomially
    as the sum over r of C(2n, r) a^r (-b)^(2n - r)."""
    r = np.arange(2 * _TERMS + 1)
    total = r[:, None] + r
    n = total // 2
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, 4 * _TERMS + 1))))
    coef = fact[total] / (fact[r][:, None] * fact[r] * fact[n]) * (-1.0) ** (n + r[:, None])
    return np.where((total % 2 == 0) & (n >= 1) & (n <= _TERMS), coef, 0.0)


def _near_j(x, m, h, box, n) -> float:
    """sum m_i m_j expm1(-((x_i - x_j) / h)^2) over the ordered pairs (i, j)
    in one box or in two adjacent ones, where |x_i - x_j| / h < 1/4: the
    _TERMS terms of the series (truncation below 1e-24 relative), in the
    moments of each box about its mass median level, and of each two
    adjacent boxes about theirs.  Taken about a median level, the moments
    stay as small as the pair differences, and a box of equal levels
    gives exactly 0."""
    first = np.searchsorted(box, np.arange(n + 1))  # levels [first[A], first[A + 1])
    cum = np.concatenate(([0.0], np.cumsum(m)))

    def median(lo, hi):  # the level holding the middle of the mass of [lo, hi)
        i = np.searchsorted(cum, 0.5 * (cum[lo] + cum[hi])) - 1
        return x[np.clip(i, lo, np.maximum(hi - 1, lo))]

    own = median(first[:-1], first[1:])
    pair = median(first[:-1], first[np.minimum(np.arange(2, n + 2), n)])  # boxes A, A + 1
    size = 2 * _TERMS + 1
    moments = np.zeros((size, 3, n))  # about own[A], pair[A] and pair[A - 1]
    rows = max(1, _BLOCK_BYTES // (8 * 3 * size))
    for a in range(0, x.size, rows):
        b = min(a + rows, x.size)
        bb = box[a:b]
        u = x[a:b] - np.stack((own[bb], pair[bb], pair[np.maximum(bb - 1, 0)]))
        u /= h
        powers = np.empty((size, 3, b - a))
        powers[0] = m[a:b]
        for r in range(1, size):  # m u^r
            np.multiply(powers[r - 1], u, out=powers[r])
        _add_box_sums(moments, bb, powers)
    series = _series()

    def cross(a, b):  # the sum over boxes of a W b
        return float(np.einsum("ra,ra->", a, np.einsum("rs,sa->ra", series, b)))

    own_box = cross(moments[:, 0], moments[:, 0])
    return own_box + 2.0 * cross(moments[:, 1, :-1], moments[:, 2, 1:])


def _box_pass(x, m, h, w, j):
    """The box engine's pass: (the sum of m_i m_j (K_ij - 1) over v's pairs
    when j, else 0.0; the step's [numerator, row sum] when w is not None,
    else None; the interpolation and transfer entries computed).

    Each level set (w for the step, v for J) falls in boxes of `_box_width`
    (h/8 rounded down to 8 bits) on the grid of its multiples, and each
    level has a coordinate t in [-1, 1] about its box's centre and the
    Lagrange basis L(t) of 10 first-kind Chebyshev nodes.  The step:
    each box sums L(t_j) [m_j x_j, m_j] over its levels, `_transfer`
    takes those sums to every box within D = _OFFSETS = 51 (6.5 h), and
    each level reads its row from its own box's field through L(t_i).
    Offsets 0 and 1 go through the transfers too: the Gaussian is entire,
    and 10 nodes on h/8 interpolate it to the rounding level (12 or 14
    nodes gave the same step errors against a long-double sum), so there
    is no exact near field.  Past D every weight is 0.0, as in the band.
    J is the sum of m_i m_j (K - 1) in three parts: boxes 2 to D apart
    through the transfers, where |K - 1| >= 0.015; the pairs past D, where
    K - 1 == -1.0, from the masses; and boxes 0 and 1 apart from the
    moments of `_near_j`.  Where all of w lies within 2^-28 h, every
    weight rounds to 1.0 and the step is the weighted mean, a constant,
    as in the band.  No sum goes through BLAS (reduceat and einsum), so
    the bits do not depend on the BLAS thread count.  Memory: the step's
    basis (Q x 10), O(Q) vectors and one block of _BLOCK_BYTES of
    temporaries at a time.
    """
    width = _box_width(h)
    rho = width / h
    total, nd, pairs, agg = 0.0, None, 0, None
    layout = _box_layout(x, width) if j or w is x else None
    if w is not None and w[0] - w[-1] < h * 2.0**-28:
        # every weight rounds to 1.0 (d^2 < 2^-54), as in the band: each
        # row is the weighted mean, and the step a constant
        nd = np.empty((x.size, 2))
        nd[:] = (float(np.sum(m * x)), float(np.sum(m)))
    elif w is not None:
        wl = layout if w is x else _box_layout(w, width)
        sums, basis = _lagrange_sums(wl, np.stack((m * x, m)), keep=True)
        at_nodes = _transfer(sums, rho, -_OFFSETS, _OFFSETS)
        nd = np.empty((x.size, 2))
        rows = max(1, _BLOCK_BYTES // (8 * 3 * _NODES))
        for a in range(0, x.size, rows):
            b = min(a + rows, x.size)
            nd[a:b] = np.einsum("ki,cki->ic", basis[:, a:b], at_nodes[:, :, wl[0][a:b]])
        pairs += basis.size + (2 * _OFFSETS + 1) * _NODES**2 * wl[2]
        agg = sums[1] if w is x else None
    if not j:
        return total, nd, pairs
    box, _, n = layout
    if agg is None:
        agg = _lagrange_sums(layout, m[None], keep=False)[0][0]
        pairs += x.size * _NODES
    # offsets 2..D through the transfers, where |K - 1| >= 1 - exp(-rho^2),
    # so no digits cancel; past D, K - 1 is -1.0.  Together the pairs in
    # boxes o >= 2 apart give (interpolated K) - (the products of masses)
    mids = _transfer(agg[None], rho, 2, _OFFSETS)[0]
    pairs += (_OFFSETS - 1) * _NODES**2 * n
    mass = np.bincount(box, weights=m, minlength=n)
    below = np.cumsum(mass[::-1])[::-1]  # the mass of boxes A, A + 1, ...
    total += 2.0 * (float(np.einsum("ka,ka->", agg, mids))
                    - float(np.einsum("a,a->", mass[:-2], below[2:])))
    return total + _near_j(x, m, h, box, n), nd, pairs


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
    the block's order; where `_pass` picks the box engine, J is within
    about 1e-14 relative of the band's.
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
        j, nd, pairs, engine = _pass(k, v, w)
        trace.pairs_computed += pairs
        trace.engines.append(engine)
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
