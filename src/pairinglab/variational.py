"""Semicontinuity, continuity and relaxation checks for the pairing.

The functionals

    F(u)    = int_A |(b(x,u), Du)|
    G(u)    = int_A  (b(x,u), Du)
    G+(u)   = int_A  (b(x,u), Du)^+
    G_phi(u)= int_A  phi d(b(x,u), Du)

are read from the pairing measure of a BV argument, which the caller passes
in (pairing_by_representation), and computed by direct quadrature for the
smooth elements of an approximating sequence.  Recovery sequences mollify
the singular parts of a BV function with a polynomial kernel whose
antiderivative is available in closed form, so every element carries an
exactly consistent (value, derivative) pair.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import AssumptionViolation
from .quadrature import adaptive_simpson, aitken, gauss_nodes
from .measures import DiscPatch, SingularLadder, _integrate_parts
from .bv import (BvFunction1D, Disc, JumpPoint, Piecewise1D,
                 PiecewiseConstantBv2D, gradient_measure)
from .fields import FieldB, sigma_k, truncate
from .pairing import PairingMeasure, pairing_by_representation


# ---------------------------------------------------------------------------
# Polynomial mollification kernel (quartic, compactly supported on [-1, 1])

_WINDOW_BLOCK = 1 << 16   # kernel terms per block in MollifiedBv1D sums


def _kernel_rho(t):
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    return np.where(inside, (15.0 / 16.0) * (1.0 - t * t) ** 2, 0.0)


def _kernel_cdf(t):
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    return 0.5 + (15.0 / 16.0) * (t - 2.0 * t ** 3 / 3.0 + t ** 5 / 5.0)


def _discrete_kernel(n=24):
    """Point-mass discretization of the kernel on [-1, 1], mass one."""
    y, w = gauss_nodes(-1.0, 1.0, n)
    c = w * _kernel_rho(y)
    return y, c / c.sum()


# ---------------------------------------------------------------------------
# Sequence elements


class MollifiedBv1D:
    """W^{1,1} recovery element for a 1D BV function.

    Jump steps and the Cantor part are smoothed with the quartic kernel at
    radius ``epsilon`` (the Cantor measure is first discretized into leaf
    point masses no wider than epsilon/4, at ladder depth at most 14), while
    the absolutely continuous part is convolved with a 24-point point-mass
    discretization of the same kernel.  Values and derivatives are
    consistent by construction.
    """

    def __init__(self, u: BvFunction1D, epsilon):
        self.base = u
        self.epsilon = float(epsilon)
        self.domain = u.domain
        self._ac = u.ac
        self._ac_nodes, self._ac_weights = _discrete_kernel()
        self._steps = tuple((j.location, j.right_value - j.left_value)
                            for j in u.jumps)
        self.jump_windows = tuple(
            (x - self.epsilon, x + self.epsilon) for x, _ in self._steps)
        if u.cantor is not None:
            lad = u.cantor.ladder
            width = lad.interval[1] - lad.interval[0]
            side = lad.side
            d = 1
            while width * side ** d > self.epsilon / 4.0 and d < 14:
                d += 1
            fine = SingularLadder(lad.interval, lad.removed, depth=d)
            self.leaf_mids = fine.midpoints()
            self.leaf_mass = fine.mass
            self.cantor_scale = u.cantor.scale
            self.carrier_window = (lad.interval[0] - self.epsilon,
                                   lad.interval[1] + self.epsilon)
        else:
            self.leaf_mids = None
            self.leaf_mass = 0.0
            self.cantor_scale = 0.0
            self.carrier_window = None

    # -- kernels at radius epsilon

    def _rho(self, y):
        return _kernel_rho(np.asarray(y, float) / self.epsilon) / self.epsilon

    def _cdf(self, y):
        return _kernel_cdf(np.asarray(y, float) / self.epsilon)

    # -- component sums

    def _ac_value(self, x):
        if self._ac is None:
            return np.zeros(np.shape(x))
        shifted = x[..., None] - self.epsilon * self._ac_nodes
        return np.asarray(self._ac.evaluate(shifted)) @ self._ac_weights

    def _ac_deriv(self, x):
        if self._ac is None:
            return np.zeros(np.shape(x))
        shifted = x[..., None] - self.epsilon * self._ac_nodes
        return np.asarray(self._ac.derivative(shifted)) @ self._ac_weights

    def _cantor_sum(self, x, kernel, cumulative=False):
        """leaf_mass * sum over the leaves of kernel(x - mid).

        The kernel is supported on [-eps, eps]: a leaf with mid >= x + eps
        adds nothing, one with mid <= x - eps adds nothing to the density
        and its full mass to the CDF (``cumulative``).  Only the window of
        leaves in between is evaluated, padded to the widest window and
        masked, in blocks of at most _WINDOW_BLOCK kernel terms.
        """
        out = np.zeros(x.shape)
        if self.leaf_mids is None:
            return out
        mids = self.leaf_mids
        first = np.searchsorted(mids, x - self.epsilon, side="right")
        width = np.searchsorted(mids, x + self.epsilon, side="left") - first
        if cumulative:
            out += first
        k = int(width.max(initial=0))
        offsets = np.arange(k)
        step = _WINDOW_BLOCK // max(k, 1)
        for i in range(0, x.size, step):
            blk = slice(i, i + step)
            idx = np.minimum(first[blk, None] + offsets, mids.size - 1)
            terms = kernel(x[blk, None] - mids[idx])
            out[blk] += np.where(offsets < width[blk, None], terms, 0.0).sum(
                axis=1)
        return self.leaf_mass * out

    def value(self, x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        out = self._ac_value(flat)
        for xj, step in self._steps:
            out = out + step * self._cdf(flat - xj)
        out = out + self.cantor_scale * self._cantor_sum(flat, self._cdf,
                                                         cumulative=True)
        return out.reshape(x.shape)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        out = self._ac_deriv(flat)
        for xj, step in self._steps:
            out = out + step * self._rho(flat - xj)
        out = out + self.cantor_scale * self._cantor_sum(flat, self._rho)
        return out.reshape(x.shape)

    def breakpoints(self):
        pts = []
        if self._ac is not None:
            for p in self._ac.breaks[1:-1]:
                pts.extend(p - self.epsilon * self._ac_nodes)
        for w0, w1 in self.jump_windows:
            pts.extend((w0, w1))
        if self.carrier_window is not None:
            pts.extend(self.carrier_window)
        return tuple(sorted(pts))

    def sup_norm(self):
        xs = self._monitor_grid()
        return float(np.max(np.abs(self.value(xs))))

    def _monitor_grid(self, n=2001):
        a, b = self.domain
        parts = [np.linspace(a, b, n)]
        for w0, w1 in self.jump_windows:
            parts.append(np.linspace(w0 - self.epsilon, w1 + self.epsilon, 129))
        if self.carrier_window is not None:
            parts.append(np.linspace(*self.carrier_window, 2001))
        return np.unique(np.clip(np.concatenate(parts), a, b))


@dataclass(frozen=True)
class SmoothClosedForm1D:
    """A closed-form smooth sequence element (value, derivative) pair."""

    domain: tuple
    f: object
    df: object

    def value(self, x):
        return np.asarray(self.f(np.asarray(x, float)), dtype=float)

    def derivative(self, x):
        return np.asarray(self.df(np.asarray(x, float)), dtype=float)

    def breakpoints(self):
        return ()

    def sup_norm(self):
        xs = np.linspace(*self.domain, 4001)
        return float(np.max(np.abs(self.value(xs))))


@dataclass(frozen=True)
class MollifiedRadial2D:
    """Smoothed radial step: value drops from ``inner`` to ``outer`` at r0."""

    center: tuple
    r0: float
    inner: float
    outer: float
    epsilon: float

    def profile(self, r):
        h = self.inner - self.outer
        return self.outer + h * (1.0 - _kernel_cdf(
            (np.asarray(r, float) - self.r0) / self.epsilon))

    def dprofile(self, r):
        h = self.inner - self.outer
        return -h * _kernel_rho(
            (np.asarray(r, float) - self.r0) / self.epsilon) / self.epsilon

    def value(self, pts):
        p = np.asarray(pts, dtype=float)
        r = np.linalg.norm(p - np.asarray(self.center), axis=-1)
        return self.profile(r)

    def sup_norm(self):
        return max(abs(self.inner), abs(self.outer))


# ---------------------------------------------------------------------------
# Direct quadrature of the functionals on sequence elements


def _element_integral_1d(field, elem, phi, window, weight, tol=1e-9):
    """int over the window of phi(x) w(b(x, u_eps) u_eps'(x)) dx."""
    lo, hi = window
    lo = max(lo, elem.domain[0])
    hi = min(hi, elem.domain[1])
    if phi is not None:
        lo = max(lo, phi.support[0])
        hi = min(hi, phi.support[1])
    if hi <= lo:
        return 0.0

    def integrand(x):
        q = field.eval(x, elem.value(x)) * elem.derivative(x)
        out = np.abs(q) if weight == "abs" else q
        if phi is not None:
            out = out * phi.evaluate(x)
        return out

    total = 0.0
    regions = [(lo, hi)]
    cw = getattr(elem, "carrier_window", None)
    if cw is not None and cw[1] > lo and cw[0] < hi:
        if cw[0] < lo or cw[1] > hi:
            raise AssumptionViolation(
                "carrier-window", "the smoothed Cantor carrier must lie "
                "entirely inside the integration window")
        total += _carrier_term(field, elem, phi, weight)
        regions = [(lo, cw[0]), (cw[1], hi)]
    bps = [p for p in elem.breakpoints() if lo < p < hi]
    if phi is not None:
        bps.extend(p for p in phi.breakpoints if lo < p < hi)
    for a, b in regions:
        if b > a:
            total += adaptive_simpson(
                integrand, a, b, tol=tol,
                breakpoints=tuple(p for p in bps if a < p < b))
    return total


def _carrier_term(field, elem, phi, weight, n=12):
    """Dual-form integral over the smoothed Cantor carrier.

    Requires a t-independent field there; the integrand is then linear in
    the derivative and the x-integral against each leaf kernel collapses to
    a short quadrature around the leaf midpoint.
    """
    if field.lipschitz_t != 0.0:
        raise AssumptionViolation(
            "t-independence", "Cantor recovery elements are integrated in "
            "dual form, which requires a field independent of t")
    cw = elem.carrier_window
    xs = np.linspace(cw[0], cw[1], 257)
    if np.max(np.abs(elem._ac_deriv(xs))) > 1e-10 * (1 + abs(elem.cantor_scale)):
        raise AssumptionViolation(
            "carrier-separation", "the absolutely continuous part must be "
            "flat across the Cantor carrier")
    for xj, _ in elem._steps:
        if cw[0] - elem.epsilon < xj < cw[1] + elem.epsilon:
            raise AssumptionViolation(
                "carrier-separation", "a smoothed jump overlaps the carrier")
    s = elem.cantor_scale
    y, w = gauss_nodes(-elem.epsilon, elem.epsilon, n)
    pts = elem.leaf_mids[:, None] + y[None, :]
    g = s * np.asarray(field.eval(pts, np.zeros(pts.shape)), dtype=float)
    if weight == "abs":
        g = np.abs(g)
    if phi is not None:
        g = g * phi.evaluate(pts)
    return float(elem.leaf_mass * np.sum((w * elem._rho(y)) * g))


def _element_integrals_radial(field, elem, phi, weights, tol=1e-10):
    """[int phi w(b(x, u_eps) . grad u_eps) dx for w in weights] over the
    mollified annulus of a MollifiedRadial2D element, each weight ("id" or
    "abs") the owner of one disc of a single batched call."""
    c = np.asarray(elem.center, dtype=float)
    absolute = np.array([w == "abs" for w in weights])

    def f(p, k):
        d = p - c
        r = np.linalg.norm(d, axis=-1)
        er = d / r[..., None]
        b = np.asarray(field.eval(p, elem.profile(r)), dtype=float)
        q = np.sum(b * er, axis=-1) * elem.dprofile(r)
        out = np.where(absolute[k], np.abs(q), q)
        if phi is not None:
            out = out * phi.evaluate(p)
        return out

    patch = DiscPatch(tuple(c), elem.r0 + elem.epsilon,
                      elem.r0 - elem.epsilon, (elem.r0,))
    return _integrate_parts(f, [patch] * len(weights), tol).tolist()


# ---------------------------------------------------------------------------
# Functionals


@dataclass(frozen=True)
class Functionals:
    """F, G, G+ and G_phi on an open window.

    A BV argument is passed as its pairing measure, the PairingMeasure of
    pairing_by_representation(field, u), and read through the pairing; a
    sequence element is integrated directly; a BV function passed as
    itself raises TypeError.  ``window`` is a 1D
    interval, a 2D box, or None for the full reference rectangle of a 2D
    function.
    """

    field: FieldB
    window: tuple = None

    def _integrals(self, u, weights, phi=None):
        """[int_A phi w((b(x, u), Du)) for w in weights], w "id" or "abs"
        and phi = 1 if None, for any supported argument."""
        if isinstance(u, PairingMeasure):
            mu = u.measure
            cut = (lambda m: m) if self.window is None \
                else (lambda m: m.restrict(self.window))
            value = (lambda m: m.total_mass()) if phi is None \
                else (lambda m: m.integrate(phi))
            return [value(cut(mu.variation() if w == "abs" else mu))
                    for w in weights]
        if isinstance(u, MollifiedRadial2D):
            return _element_integrals_radial(self.field, u, phi, weights)
        if not hasattr(u, "derivative"):
            raise TypeError(
                "Functionals takes a BV function as its pairing measure; "
                "pass pairing_by_representation(field, u), not "
                f"{type(u).__name__}")
        win = self.window if self.window is not None else u.domain
        return [_element_integral_1d(self.field, u, phi, win, w)
                for w in weights]

    def _pair(self, u):
        """(G, F) for any supported argument."""
        return tuple(self._integrals(u, ("id", "abs")))

    def F(self, u):
        return self._integrals(u, ("abs",))[0]

    def G(self, u):
        return self._integrals(u, ("id",))[0]

    def Gplus(self, u):
        g, f = self._pair(u)
        return 0.5 * (g + f)

    def G_phi(self, u, phi):
        return self._integrals(u, ("id",), phi)[0]


def order_relation_check(field, rep, window=None):
    """The values F, G and G+ of u, read from rep, which is
    pairing_by_representation(field, u); they satisfy F >= G+ >= max(G, 0)
    and F >= |G|, and the order_relations check measures how far they
    miss."""
    g, f = Functionals(field, window)._pair(rep)
    return {"F": f, "G": g, "Gplus": 0.5 * (g + f)}


# ---------------------------------------------------------------------------
# Approximating sequences


@dataclass
class ApproximatingSequence:
    """A finite prefix of an approximating sequence with a hypothesis mode.

    mode is one of "L1" (L^1 convergence with a uniform L^infty bound),
    "weak*" (a uniform BV bound), or "L1loc" (local L^1 with a locally
    bounded sigma).  :meth:`monitor` measures the uniform L^infty bound,
    the one premise the checks read, and stores it in ``premise``.
    """

    elements: tuple
    mode: str = "L1"
    premise: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("L1", "weak*", "L1loc"):
            raise ValueError(f"unknown sequence mode {self.mode!r}")

    @staticmethod
    def mollified(u, eps_schedule, mode="L1"):
        elems = tuple(MollifiedBv1D(u, e) for e in eps_schedule)
        return ApproximatingSequence(elems, mode=mode)

    @staticmethod
    def oscillation(u, n_values, mode="L1"):
        """u + sin(n x) / n for a smooth base u."""
        if u.jumps or u.cantor is not None:
            raise AssumptionViolation(
                "smooth-base", "oscillation sequences need a W^{1,1} base")
        elems = []
        for n in n_values:
            f = (lambda x, n=n: u.evaluate(x) + (1.0 / n) * np.sin(n * x))
            df = (lambda x, n=n: u.ac_derivative(x) + np.cos(n * x))
            elems.append(SmoothClosedForm1D(u.domain, f, df))
        return ApproximatingSequence(tuple(elems), mode=mode)

    @staticmethod
    def constant(u, count=6, mode="L1"):
        return ApproximatingSequence(tuple(u for _ in range(count)),
                                     mode=mode)

    def monitor(self, u):
        """Record the premise the checks read: the uniform sup bound."""
        self.premise = {"mode": self.mode,
                        "sup_linf": max(e.sup_norm() for e in self.elements)}
        if not math.isfinite(self.premise["sup_linf"]):
            raise AssumptionViolation(
                "uniform-bound", "sequence is not uniformly bounded")
        return self.premise


def _arguments(sequence, u, rep):
    """The elements of sequence as Functionals arguments: an element that
    is u itself, as in a constant sequence, is read as its measure rep."""
    return tuple(rep if e is u else e for e in sequence.elements)


def liminf_tail(values):
    """The least of the last five values: the liminf of a finite prefix."""
    return min(list(values)[-5:])


# ---------------------------------------------------------------------------
# Operations


@dataclass(frozen=True)
class ContinuityResult:
    target: float
    values: tuple
    gaps: tuple
    mode: str
    premise: dict


def continuity_check_Gphi(b, phi, sequence, u, rep, window=None):
    """G_phi(u_n) -> G_phi(u) along the declared sequence, G_phi(u) read
    from rep, pairing_by_representation(b, u)."""
    win = window
    if win is None:
        win = u.domain if isinstance(u, BvFunction1D) else None
    fun = Functionals(b, win)
    sequence.monitor(u)
    target = fun.G_phi(rep, phi)
    values = tuple(fun.G_phi(e, phi) for e in _arguments(sequence, u, rep))
    gaps = tuple(abs(v - target) for v in values)
    return ContinuityResult(target, values, gaps, sequence.mode,
                            dict(sequence.premise))


@dataclass(frozen=True)
class LscResult:
    liminf: float
    target: float
    margin: float
    values: tuple
    truncation_k: float
    truncation_residual: float


def lsc_check(b, functional, sequence, u, rep, window=None):
    """Lower semicontinuity of F or G+ along an L1-converging sequence, at
    u read from rep, pairing_by_representation(b, u)."""
    if functional not in ("F", "G+"):
        raise ValueError("functional must be 'F' or 'G+'")
    win = window
    if win is None:
        win = u.domain if isinstance(u, BvFunction1D) else None
    fun = Functionals(b, win)
    sequence.monitor(u)
    ev = (fun.F if functional == "F" else fun.Gplus)
    target = ev(rep)
    values = tuple(ev(e) for e in _arguments(sequence, u, rep))
    lim = liminf_tail(values)
    margin = lim - target
    # the proof truncates the field at a level k above every function in
    # sight; verify that doing so does not change the target value
    k = math.floor(max(sequence.premise["sup_linf"], u.sup_norm())) + 2.0
    bk = truncate(b, k)
    fun_k = Functionals(bk, win)
    target_k = (fun_k.F if functional == "F" else fun_k.Gplus)(
        pairing_by_representation(bk, u))
    k_res = abs(target_k - target)
    return LscResult(lim, target, margin, values, k, k_res)


@dataclass(frozen=True)
class RelaxationResult:
    target: float
    eps: tuple
    values: tuple
    liminf: float
    gap: float
    mode: str
    jump_report: tuple
    cantor_report: tuple


def relaxation_check(b, u, phi, A, eps_sequence, rep, mode="weak*"):
    """F^phi along a mollified recovery sequence against int_A phi d mu,
    mu the measure of rep, pairing_by_representation(b, u)."""
    eps_sequence = tuple(float(e) for e in eps_sequence)
    if len(eps_sequence) < 12:
        raise ValueError("the relaxation schedule needs at least 12 radii")
    if isinstance(u, BvFunction1D):
        seq = ApproximatingSequence.mollified(u, eps_sequence, mode=mode)
        fun = Functionals(b, A)
    elif isinstance(u, PiecewiseConstantBv2D) and len(u.regions) == 1 \
            and isinstance(u.regions[0][0], Disc):
        ((region, inner),) = u.regions
        elements = tuple(
            MollifiedRadial2D(region.center, region.radius, inner + u.background,
                              u.background, e) for e in eps_sequence)
        seq = ApproximatingSequence(elements, mode=mode)
        fun = Functionals(b, None)
    else:
        raise AssumptionViolation(
            "recovery sequence", "a 2D u must be one constant disc")
    seq.monitor(u)
    target = fun.G_phi(rep, phi)
    values = tuple(fun.G_phi(e, phi) for e in seq.elements)
    lim = liminf_tail(values)
    gap = abs(lim - target)
    jump_report, cantor_report = (), ()
    if isinstance(u, BvFunction1D):
        if u.jumps:
            jump_report = (blowup_density(u, *blowup_site(u, "jump"), rep),)
        if u.cantor is not None:
            cantor_report = (
                blowup_density(u, *blowup_site(u, "cantor"), rep),)
    return RelaxationResult(target, eps_sequence, values, lim, gap, mode,
                            jump_report, cantor_report)


@dataclass(frozen=True)
class BlowupResult:
    x0: object
    radii: tuple
    quotients: tuple
    extrapolated: float
    theta_reference: float
    mismatch: float
    converged: bool


JUMP_BLOWUP_RADII = tuple(0.02 * 0.5 ** i for i in range(6))


def blowup_site(u, point, index=0):
    """(x0, radii) of a default blow-up of u: at its jump number index with
    JUMP_BLOWUP_RADII (point "jump"), or at the left end a of its Cantor
    carrier [a, b] with (b - a) side**i, i = 2..7 (point "cantor")."""
    if point == "cantor":
        if getattr(u, "cantor", None) is None:
            raise AssumptionViolation("blowup", "u has no Cantor part")
        lad = u.cantor.ladder
        return lad.interval[0], tuple(
            (lad.interval[1] - lad.interval[0]) * lad.side ** i
            for i in range(2, 8))
    jumps = getattr(u, "jumps", ())
    if not 0 <= index < len(jumps):
        raise AssumptionViolation("blowup", f"u has no jump at index {index}")
    return jumps[index].location, JUMP_BLOWUP_RADII


def blowup_density(u, x0, radius_sequence, rep):
    """mu(B_r)/|Du|(B_r) around x0, extrapolated and compared with Theta,
    mu and Theta those of rep, pairing_by_representation(field, u)."""
    dv = gradient_measure(u).variation()
    quotients = []
    for r in radius_sequence:
        if np.ndim(x0) == 0:
            win = (float(x0) - r, float(x0) + r)
            num = rep.measure.restrict(win, closed_right=True).total_mass()
            den = dv.restrict(win, closed_right=True).total_mass()
        else:
            win = ((x0[0] - r, x0[0] + r), (x0[1] - r, x0[1] + r))
            num = rep.measure.restrict(win).total_mass()
            den = dv.restrict(win).total_mass()
        quotients.append(num / den if den > 0 else float("nan"))
    arr = [q for q in quotients if math.isfinite(q)]
    extrap = aitken(arr) if len(arr) >= 3 else (arr[-1] if arr else float("nan"))
    if np.ndim(x0) == 0:
        theta_ref = float(rep.theta(float(x0)))
    else:
        theta_ref = float(rep.theta(np.asarray(x0, dtype=float)))
    mismatch = abs(extrap - theta_ref)
    converged = (len(arr) == len(quotients) and len(arr) >= 3
                 and abs(arr[-1] - extrap) < 1e-2 * (1 + abs(extrap)))
    return BlowupResult(x0, tuple(radius_sequence), tuple(quotients),
                        float(extrap), theta_ref, mismatch, converged)


# ---------------------------------------------------------------------------
# Truncation identities


def truncate_bv(u: BvFunction1D, k):
    """T_k u = clamp(u, -k, k) for piecewise constant functions with jumps."""
    k = float(k)
    if u.cantor is not None:
        raise AssumptionViolation(
            "truncation-scope", "T_k is implemented for jump functions only")
    xs = np.linspace(*u.domain, 801)
    if np.max(np.abs(u.ac_derivative(xs))) > 1e-12:
        lo, hi = u.value_range()
        if hi > k or lo < -k:
            raise AssumptionViolation(
                "truncation-scope", "T_k of a non-constant absolutely "
                "continuous part is not supported")
        return u
    a, _ = u.domain
    level = float(u.evaluate(np.asarray([a + 1e-9]))[0])
    levels = [level]
    for j in u.jumps:
        level = level + (j.right_value - j.left_value)
        levels.append(level)
    clipped = [min(max(v, -k), k) for v in levels]
    jumps = []
    for j, (lv, rv) in zip(u.jumps, zip(clipped, clipped[1:])):
        if rv != lv:
            jumps.append(JumpPoint.from_sides(j.location, lv, rv))
    return BvFunction1D(u.domain, ac=Piecewise1D.constant(u.domain, clipped[0]),
                        jumps=tuple(jumps))


def sigma_k_identity_check(b, u, k, rep, phi=None):
    """Representation and functional identities for the truncated field.

    Checks Theta(b^k) = sigma_k(u) Theta(b) on the diffuse part, the
    sigma_k-weighted average on jump atoms, and G^k_phi(u) = G^k_phi(T_k u).
    The diffuse identity is sampled at the first 20 of 200 grid points
    where u' != 0, Theta(b) from rep, pairing_by_representation(b, u)
    (at diffuse points it does not depend on how jumps are averaged).
    Returns the maximal residual of each identity.
    """
    n_diffuse = 20
    k = float(k)
    bk = truncate(b, k)
    repk = pairing_by_representation(bk, u, genuine_jumps=False)

    a0, a1 = u.domain
    xs = np.linspace(a0 + 1e-3, a1 - 1e-3, 10 * n_diffuse)
    xs = xs[np.abs(u.ac_derivative(xs)) > 1e-8][:n_diffuse]
    if xs.size:
        uv = u.evaluate(xs)
        diffuse = max(
            abs(float(repk.theta(float(x)))
                - float(sigma_k(t, k)) * float(rep.theta(float(x))))
            for x, t in zip(xs, uv))
    else:
        diffuse = 0.0

    jump_res = 0.0
    atoms_k = dict(repk.measure.atoms)
    for j in u.jumps:
        kinks = sorted({j.u_minus, j.u_plus, -k, k, -(k - 1), k - 1})
        kinks = [t for t in kinks if j.u_minus <= t <= j.u_plus]
        want = 0.0
        for t0, t1 in zip(kinks, kinks[1:]):
            t, w = gauss_nodes(t0, t1, 16)
            q = np.asarray(b.eval(np.full_like(t, j.location), t),
                           dtype=float) * j.nu
            want += float(np.sum(w * sigma_k(t, k) * q))
        jump_res = max(jump_res, abs(atoms_k[j.location] - want))

    g_res = float("nan")
    if phi is not None:
        fun = Functionals(bk, u.domain)
        g_res = abs(fun.G_phi(pairing_by_representation(bk, u), phi)
                    - fun.G_phi(pairing_by_representation(
                        bk, truncate_bv(u, k)), phi))
    return {"k": k, "diffuse": diffuse, "jump": jump_res,
            "g_invariance": g_res}
