"""Scenario catalog: JSON specs for fields, BV functions and test functions,
plus the registry of named checks the runner can execute.

A scenario file looks like

    {
      "id": "s03_jump_const",
      "field": {"kind": "const", "params": {"c": 1.0}},
      "bv": {"kind": "bv1d", "domain": [-2, 2],
             "ac": {"type": "constant", "value": 0.2},
             "jumps": [[0.3, 0.2, 1.2]]},
      "phi": {"kind": "bump1d", "a": -1.8, "b": 1.8},
      "window": [-2, 2],
      "checks": [{"name": "two_route", "tolerance": 1e-6}, ...]
    }

Check outcomes all share the report schema
{"scenario", "check", "lhs", "rhs", "residual", "tolerance", "pass",
"diagnostics"}.
"""

import json
import math
import zlib
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (AssumptionViolation, PairingLabError, SpecError,
                     UnknownCheck)
from .measures import (SingularLadder, TestFunction1D, TestFunction2D,
                       _integrate_parts, _per_owner)
from .bv import (BvFunction1D, CantorPart, Disc, JumpPoint, Piecewise1D,
                 PiecewiseConstantBv2D, PolygonRegion, SmoothRadialBv2D)
from .fields import field_catalog
from . import pairing
from . import variational


# ---------------------------------------------------------------------------
# Spec parsing


def build_field(spec):
    try:
        kind = spec["kind"]
        params = spec.get("params", {})
        return field_catalog(kind, **params)
    except PairingLabError:
        raise
    except Exception as exc:
        raise SpecError(f"bad field spec {spec!r}: {exc}") from exc


def _build_ac(domain, spec):
    if spec is None:
        return None
    typ = spec["type"]
    if typ == "constant":
        return Piecewise1D.constant(domain, spec["value"])
    if typ == "sinusoid":
        off, amp, freq = spec["offset"], spec["amplitude"], spec["frequency"]
        return Piecewise1D(
            domain, lambda x: off + amp * np.sin(freq * x),
            lambda x: amp * freq * np.cos(freq * x))
    if typ == "ramp":
        # lo, then the line on [x0, x1), then hi (also at NaN)
        x0, x1 = spec["x0"], spec["x1"]
        lo, hi = spec["lo"], spec["hi"]
        slope = (hi - lo) / (x1 - x0)
        return Piecewise1D(
            (domain[0], x0, x1, domain[1]),
            lambda x: np.where(x < x0, float(lo), np.where(
                x < x1, lo + slope * (x - x0), float(hi))),
            lambda x: np.where((x0 <= x) & (x < x1), float(slope), 0.0))
    raise SpecError(f"unknown ac type {typ!r}")


def _bv2d_number(spec, key, default=None, signed=False):
    """spec[key] (or the default) as a finite number > 0, or != 0 if signed.

    A zero size, amplitude or value makes u = 0, so every check of u would
    pass with residual 0; a negative size turns the region inside out.
    """
    v = spec[key] if default is None else spec.get(key, default)
    if not (_is_real(v) and math.isfinite(v)
            and (v != 0 if signed else v > 0)):
        raise SpecError(f"bv2d {key!r} must be a finite number "
                        f"{'!= 0' if signed else '> 0'}, got {v!r}")
    return v


def build_bv(spec):
    try:
        kind = spec["kind"]
        if kind == "bv1d":
            domain = tuple(spec["domain"])
            ac = _build_ac(domain, spec.get("ac"))
            jumps = tuple(JumpPoint.from_sides(x, left, right)
                          for x, left, right in spec.get("jumps", ()))
            cantor = None
            if spec.get("cantor"):
                c = spec["cantor"]
                cantor = CantorPart(
                    c.get("scale", 1.0),
                    SingularLadder(tuple(c["interval"]),
                                   removed=c.get("removed", 1.0 / 3.0),
                                   depth=c.get("depth", 18)))
            return BvFunction1D(domain, ac=ac, jumps=jumps, cantor=cantor)
        if kind == "bv2d":
            rect = tuple(tuple(r) for r in spec["rect"])
            shape = spec["shape"]
            if shape == "disc":
                region = Disc(tuple(spec["center"]),
                              _bv2d_number(spec, "radius"))
                value = _bv2d_number(spec, "value", signed=True)
                return PiecewiseConstantBv2D(rect, ((region, value),))
            if shape == "square":
                h = _bv2d_number(spec, "half_width")
                region = PolygonRegion(((-h, -h), (h, -h), (h, h), (-h, h)))
                value = _bv2d_number(spec, "value", signed=True)
                return PiecewiseConstantBv2D(rect, ((region, value),))
            if shape == "smooth_radial":
                a = _bv2d_number(spec, "amplitude")
                rs = _bv2d_number(spec, "support_radius", 1.0)
                return SmoothRadialBv2D(
                    rect, tuple(spec.get("center", (0.0, 0.0))),
                    profile=lambda r: a * np.clip(1 - (np.asarray(r, float)
                                                       / rs) ** 2, 0, None) ** 2,
                    dprofile=lambda r: np.where(
                        np.asarray(r, float) < rs,
                        -4 * a * np.asarray(r, float) / rs ** 2
                        * np.clip(1 - (np.asarray(r, float) / rs) ** 2,
                                  0, None),
                        0.0),
                    support_radius=rs)
            raise SpecError(f"unknown bv2d shape {shape!r}")
        raise SpecError(f"unknown bv kind {kind!r}")
    except (SpecError, PairingLabError):
        raise
    except Exception as exc:
        raise SpecError(f"bad bv spec: {exc}") from exc


def build_phi(spec):
    try:
        kind = spec["kind"]
        if kind == "bump1d":
            return TestFunction1D.bump(spec["a"], spec["b"])
        if kind == "plateau1d":
            return TestFunction1D.plateau(spec["a"], spec["p"],
                                          spec["q"], spec["b"])
        if kind == "radial2d":
            return TestFunction2D.radial(
                tuple(spec.get("center", (0.0, 0.0))),
                spec["r_plateau"], spec["r_out"],
                r_in0=spec.get("r_in0", 0.0), r_in1=spec.get("r_in1", 0.0))
        if kind == "box2d":
            return TestFunction2D.box(tuple(spec["xr"]), tuple(spec["yr"]),
                                      spec.get("margin", 0.5))
        raise SpecError(f"unknown phi kind {kind!r}")
    except (SpecError, PairingLabError):
        raise
    except Exception as exc:
        raise SpecError(f"bad phi spec: {exc}") from exc


@dataclass(frozen=True)
class CheckSpec:
    name: str
    tolerance: float
    params: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    id: str
    field_spec: dict
    bv_spec: dict
    phi_spec: dict
    window: tuple
    checks: tuple

    def resolve(self):
        return ResolvedScenario(self.id, build_field(self.field_spec),
                                build_bv(self.bv_spec),
                                build_phi(self.phi_spec), self.window)


@dataclass(frozen=True)
class ResolvedScenario:
    id: str
    field: object
    u: object
    phi: object
    window: tuple
    _memo: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def distributional(self):
        """pairing_distributional(field, u, phi, 1e-10, form_check=False),
        computed once: the one B-built value that every check of the
        scenario reads.  The numeric-t form check is not run: chain_rule
        gates B against b.  Only values are kept: an error is raised again
        on every call."""
        if "distributional" not in self._memo:
            self._memo["distributional"] = pairing.pairing_distributional(
                self.field, self.u, self.phi, tol=1e-10, form_check=False)
        return self._memo["distributional"]

    def representation(self):
        """pairing_by_representation(field, u), computed once.  As for
        distributional, an error is raised again on every call."""
        if "representation" not in self._memo:
            self._memo["representation"] = \
                pairing.pairing_by_representation(self.field, self.u)
        return self._memo["representation"]


def _is_real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _validate_params(sid, check, params):
    """SpecError for a check parameter that would make its gate vacuous.

    Zero windows, cylinder points or sequence elements, and an empty list
    of taus, ks, radii or n_values, leave a check nothing to test, so it
    would pass with residual 0; a non-finite or non-positive eps0, or a
    non-finite list entry, gives no meaningful sample at all.
    """
    for key in ("windows", "points", "count"):
        v = params.get(key, 1)
        if type(v) is not int or v < 1:
            raise SpecError(f"{check} {key} must be an integer >= 1 in "
                            f"{sid!r}, got {v!r}")
    v = params.get("eps0", 1.0)
    if not (_is_real(v) and math.isfinite(v) and v > 0):
        raise SpecError(f"{check} eps0 must be a finite number > 0 in "
                        f"{sid!r}, got {v!r}")
    for key in ("taus", "ks", "radii", "n_values"):
        v = params.get(key, [1.0])
        if not (isinstance(v, list) and v
                and all(_is_real(x) and math.isfinite(x) for x in v)):
            raise SpecError(f"{check} {key} must be a non-empty list of "
                            f"finite numbers in {sid!r}, got {v!r}")


def parse_scenario(d):
    try:
        checks = []
        for c in d["checks"]:
            if c["name"] not in CHECKS:
                raise SpecError(
                    f"unknown check {c['name']!r} in {d['id']!r}")
            tol = float(c["tolerance"])
            # an infinite or NaN tolerance would give a gate that never fails
            if not (math.isfinite(tol) and tol > 0):
                raise SpecError(f"tolerance must be a finite number > 0 "
                                f"in {d['id']!r}, got {c['tolerance']!r}")
            params = dict(c.get("params", {}))
            _validate_params(d["id"], c["name"], params)
            checks.append(CheckSpec(c["name"], tol, params))
        window = d.get("window")
        if window is not None:
            window = (tuple(tuple(w) for w in window)
                      if isinstance(window[0], (list, tuple)) else tuple(window))
        return Scenario(d["id"], d["field"], d["bv"], d["phi"],
                        window, tuple(checks))
    except SpecError:
        raise
    except Exception as exc:
        raise SpecError(f"malformed scenario: {exc}") from exc


def load_scenario_file(path):
    try:
        with open(path) as fh:
            return parse_scenario(json.load(fh))
    except SpecError:
        raise
    except Exception as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc


def shipped_catalog_dir():
    from importlib import resources
    return resources.files("pairinglab") / "data" / "scenarios"


def load_scenarios(path=None, keep_going=False):
    """(scenarios, skipped) of the JSON file path, or of the JSON files of
    the directory path (default: the shipped catalog), in file order.  A
    file that does not parse or repeats an earlier id raises SpecError, or
    with keep_going goes to skipped as (file, reason)."""
    import pathlib
    base = shipped_catalog_dir() if path is None else pathlib.Path(path)
    files = sorted(str(p) for p in base.glob("*.json")) if base.is_dir() \
        else [str(base)]
    scenarios, skipped, owners = [], [], {}
    for f in files:
        try:
            sc = load_scenario_file(f)
            if sc.id in owners:
                raise SpecError(f"duplicate scenario id {sc.id!r} in "
                                f"{owners[sc.id]} and {f}")
            owners[sc.id] = f
            scenarios.append(sc)
        except SpecError as exc:
            if not keep_going:
                raise
            skipped.append((f, str(exc)))
    return scenarios, skipped


def load_catalog(path=None):
    """The scenarios at path (load_scenarios), by id."""
    return {s.id: s for s in load_scenarios(path)[0]}


# ---------------------------------------------------------------------------
# Check implementations


@dataclass
class CheckOutcome:
    scenario: str
    check: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool
    diagnostics: dict = dc_field(default_factory=dict)
    table: tuple = ()

    def to_report(self):
        return {"scenario": self.scenario, "check": self.check,
                "lhs": self.lhs, "rhs": self.rhs, "residual": self.residual,
                "tolerance": self.tolerance, "pass": self.passed,
                "diagnostics": self.diagnostics}


@dataclass(frozen=True)
class Measurement:
    """What a check adapter measured, and no verdict: run_check decides
    that.  A tolerance of None is the spec's; only the checks that iterate
    to a limit (cyl_average, blowup) can report converged=False."""
    lhs: float
    rhs: float
    residual: float
    diagnostics: dict = dc_field(default_factory=dict)
    table: tuple = ()
    tolerance: float = None
    converged: bool = True


def _worst(values):
    """The largest of values, or NaN if one of them is NaN: the builtin max
    keeps its running value against a NaN, so a NaN could never fail a
    gate."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values)


def _rng(ctx, label):
    return np.random.default_rng(zlib.crc32(f"{ctx.id}:{label}".encode()))


def _check_two_route(ctx, params, tol):
    v1 = ctx.distributional()
    v2 = ctx.representation().integrate(ctx.phi)
    return Measurement(v1, v2, abs(v1 - v2),
                       {"relative_scale": 1.0 + abs(v1)},
                       tolerance=tol * (1.0 + abs(v1)))


def _check_traces_route(ctx, params, tol):
    v1 = ctx.distributional()
    tr = pairing.pairing_by_traces(ctx.field, ctx.u, ctx.representation())
    v2 = tr.integrate(ctx.phi)
    return Measurement(v1, v2, abs(v1 - v2), tolerance=tol * (1.0 + abs(v1)))


def _check_coarea_pairing(ctx, params, tol):
    return Measurement(*pairing.coarea_pairing_check(
        ctx.field, ctx.u, ctx.phi, ctx.distributional()))


def _check_coarea_variation(ctx, params, tol):
    return Measurement(*pairing.coarea_variation_check(
        ctx.field, ctx.u, ctx.phi, ctx.representation()))


def _check_chain_rule(ctx, params, tol):
    return Measurement(*pairing.chain_rule_check(
        ctx.phi, ctx.distributional(), ctx.representation()))


def _windows_for(ctx, count):
    rng = _rng(ctx, "mass-windows")
    wins = []
    if isinstance(ctx.u, BvFunction1D):
        a, b = ctx.u.domain
        for _ in range(count):
            lo, hi = np.sort(rng.uniform(a, b, size=2))
            wins.append((float(lo), float(hi)))
    else:
        (x0, x1), (y0, y1) = ctx.u.rect
        for _ in range(count):
            xa, xb = np.sort(rng.uniform(x0, x1, size=2))
            ya, yb = np.sort(rng.uniform(y0, y1, size=2))
            wins.append(((float(xa), float(xb)), (float(ya), float(yb))))
    return wins


def _check_mass_bound(ctx, params, tol):
    count = params.get("windows", 20)
    results = pairing.mass_bound_check(ctx.field, ctx.u,
                                       _windows_for(ctx, count),
                                       ctx.representation())
    worst = _worst([r["lhs"] - r["bound"] for r in results] or [0.0])
    excess = [r["excess"] for r in results]
    residual = _worst([0.0, *excess])
    violations = sum(not e <= tol for e in excess)
    return Measurement(worst, 0.0, residual,
                       {"windows": count, "violations": violations})


def _check_lipschitz(ctx, params, tol):
    lo, hi = ctx.u.value_range()
    taus = params.get("taus")
    if taus is None:
        taus = np.linspace(lo - 0.3, hi + 0.3, 5)
    taus = [float(tau) for tau in taus]
    pairs = pairing.lipschitz_comparison_check(
        ctx.field, ctx.u, taus, ctx.phi, ctx.distributional())
    worst = _worst([-math.inf, *(lhs - rhs for lhs, rhs in pairs)])
    return Measurement(worst, 0.0, _worst([worst, 0.0]), {"taus": taus})


def _check_gauss_green(ctx, params, tol):
    if not isinstance(ctx.u, PiecewiseConstantBv2D):
        raise AssumptionViolation(
            "gauss_green", "u must be piecewise constant on 2D regions")
    lhs = ctx.representation().measure.total_mass()
    # Gauss-Green on each region R of value v: the jump across its boundary
    # pairs to -int_R Div_x B(x, v) dx
    rhs = sum(_integrate_parts(_per_owner([
        lambda p, _v=val: -np.asarray(ctx.field.div_primitive(
            p, np.full(np.shape(p)[:-1], _v)), dtype=float)
        for _, val in ctx.u.regions]),
        [region.patch() for region, _ in ctx.u.regions], 1e-10).tolist())
    return Measurement(lhs, rhs, abs(lhs - rhs))


def _check_cyl_average(ctx, params, tol):
    n = params.get("points", 20)
    rng = _rng(ctx, "cyl")
    lo, hi = ctx.u.value_range()
    worst = 0.0
    converged = True
    dim = ctx.field.dim
    for _ in range(n):
        t = float(rng.uniform(lo, hi))
        if dim == 1:
            a, b = ctx.u.domain
            x = float(rng.uniform(a + 0.2, b - 0.2))
            while not ctx.field.smooth_at(x):
                x = float(rng.uniform(a + 0.2, b - 0.2))
            nu = float(rng.choice((-1.0, 1.0)))
            want = float(np.asarray(ctx.field.eval(np.asarray([x]),
                                                   np.asarray([t])))[0]) * nu
            got = pairing.cylindrical_average(ctx.field, t, nu, x)
        else:
            (x0, x1), (y0, y1) = ctx.u.rect
            x = np.array([rng.uniform(x0 + 0.3, x1 - 0.3),
                          rng.uniform(y0 + 0.3, y1 - 0.3)])
            while not ctx.field.smooth_at(x):
                x = np.array([rng.uniform(x0 + 0.3, x1 - 0.3),
                              rng.uniform(y0 + 0.3, y1 - 0.3)])
            ang = rng.uniform(0, 2 * math.pi)
            nu = np.array([math.cos(ang), math.sin(ang)])
            want = float(np.asarray(ctx.field.eval(x, t)) @ nu)
            got = pairing.cylindrical_average(ctx.field, t, tuple(nu),
                                              tuple(x))
        converged = converged and got.converged
        worst = _worst([worst, abs(got.value - want)])
    return Measurement(worst, 0.0, worst, {"points": n}, converged=converged)


def _eps_schedule(params, eps0=0.04, count=7):
    e0 = float(params.get("eps0", eps0))
    n = params.get("count", count)
    return tuple(e0 * 0.5 ** i for i in range(n))


def _check_approximation(ctx, params, tol):
    table = pairing.approximation_convergence_check(
        ctx.field, ctx.u, ctx.phi, _eps_schedule(params),
        ctx.distributional())
    res = table[-1][1]
    return Measurement(res, 0.0, res, {"eps_final": table[-1][0]},
                       tuple(table))


def _sequence_for(ctx, params):
    kind = params.get("sequence", "mollified")
    mode = params.get("mode", "L1")
    if kind == "mollified":
        eps = _eps_schedule(params, eps0=0.03, count=8)
        return variational.ApproximatingSequence.mollified(ctx.u, eps,
                                                           mode=mode)
    if kind == "oscillation":
        ns = tuple(params.get("n_values", (4, 8, 16, 32, 64, 128)))
        return variational.ApproximatingSequence.oscillation(ctx.u, ns,
                                                             mode=mode)
    if kind == "constant":
        return variational.ApproximatingSequence.constant(
            ctx.u, params.get("count", 6), mode=mode)
    raise SpecError(f"unknown sequence kind {kind!r}")


def _check_continuity(ctx, params, tol):
    seq = _sequence_for(ctx, params)
    res = variational.continuity_check_Gphi(
        ctx.field, ctx.phi, seq, ctx.u, ctx.representation(),
        window=ctx.window)
    return Measurement(res.values[-1], res.target, res.gaps[-1],
                       {"mode": res.mode,
                        "sup_linf": res.premise["sup_linf"]},
                       tuple(enumerate(res.gaps)))


def _check_lsc(ctx, params, tol):
    functional = params.get("functional", "F")
    seq = _sequence_for(ctx, params)
    res = variational.lsc_check(ctx.field, functional, seq, ctx.u,
                                ctx.representation(), window=ctx.window)
    return Measurement(res.liminf, res.target,
                       _worst([0.0, -res.margin, res.truncation_residual]),
                       {"functional": functional, "margin": res.margin,
                        "truncation_k": res.truncation_k,
                        "truncation_residual": res.truncation_residual,
                        "mode": seq.mode},
                       tuple(enumerate(res.values)))


def _check_relaxation(ctx, params, tol):
    eps = _eps_schedule(params, eps0=0.04, count=12)
    res = variational.relaxation_check(
        ctx.field, ctx.u, ctx.phi,
        ctx.window if isinstance(ctx.u, BvFunction1D) else None,
        eps, ctx.representation(), mode=params.get("mode", "weak*"))
    diag = {"mode": res.mode}
    for label, reports in (("jump", res.jump_report),
                           ("cantor", res.cantor_report)):
        for br in reports:
            diag[f"blowup_{label}_mismatch"] = br.mismatch
    return Measurement(res.liminf, res.target, res.gap, diag,
                       tuple(zip(res.eps, res.values)))


def _check_blowup(ctx, params, tol):
    point = params.get("point", "jump")
    if point in ("jump", "cantor"):
        x0, radii = variational.blowup_site(ctx.u, point,
                                            int(params.get("index", 0)))
    else:
        x0, radii = point, variational.JUMP_BLOWUP_RADII
    if point != "cantor":
        radii = tuple(params.get("radii", radii))
    br = variational.blowup_density(ctx.u, x0, radii, ctx.representation())
    return Measurement(br.extrapolated, br.theta_reference, br.mismatch,
                       {"x0": br.x0, "converged": br.converged},
                       tuple(zip(br.radii, br.quotients)),
                       converged=br.converged)


def _check_sigma_k(ctx, params, tol):
    ks = tuple(params.get("ks", (2.0, 3.0)))
    use_phi = bool(params.get("g_invariance", False))
    worst = 0.0
    diag = {}
    for k in ks:
        d = variational.sigma_k_identity_check(
            ctx.field, ctx.u, k, ctx.representation(),
            phi=ctx.phi if use_phi else None)
        diag[f"k={k:g}"] = d
        # without the g_invariance param, d["g_invariance"] is a NaN that
        # stands for "not computed"
        worst = _worst([worst, d["diffuse"], d["jump"],
                        d["g_invariance"] if use_phi else 0.0])
    return Measurement(worst, 0.0, worst, diag)


def _check_order_relations(ctx, params, tol):
    d = variational.order_relation_check(ctx.field, ctx.representation(),
                                         ctx.window)
    f, g, gp = d["F"], d["G"], d["Gplus"]
    # the largest violation of F >= G+ >= max(G, 0) and F >= |G|
    residual = _worst([0.0, gp - f, _worst([g, 0.0]) - gp, abs(g) - f]) \
        / (1.0 + abs(f))
    return Measurement(f, gp, residual, {"F": f, "G": g, "Gplus": gp})


CHECKS = {
    "two_route": _check_two_route,
    "traces_route": _check_traces_route,
    "coarea_pairing": _check_coarea_pairing,
    "coarea_variation": _check_coarea_variation,
    "chain_rule": _check_chain_rule,
    "mass_bound": _check_mass_bound,
    "lipschitz": _check_lipschitz,
    "gauss_green": _check_gauss_green,
    "cyl_average": _check_cyl_average,
    "approximation": _check_approximation,
    "continuity": _check_continuity,
    "lsc": _check_lsc,
    "relaxation": _check_relaxation,
    "blowup": _check_blowup,
    "sigma_k": _check_sigma_k,
    "order_relations": _check_order_relations,
}


def run_check(ctx, spec: CheckSpec):
    """Execute one named check and decide its verdict, the one rule of
    every check: pass iff it converged and residual <= tolerance.

    Any exception a check raises, not only a PairingLabError, fails that
    check alone, so one defect cannot take down the other checks' reports.
    """
    if spec.name not in CHECKS:
        raise UnknownCheck(spec.name)
    try:
        m = CHECKS[spec.name](ctx, spec.params, spec.tolerance)
        tol = spec.tolerance if m.tolerance is None else m.tolerance
        return CheckOutcome(ctx.id, spec.name, m.lhs, m.rhs, m.residual, tol,
                            m.converged and m.residual <= tol, m.diagnostics,
                            m.table)
    except Exception as exc:
        return _error_outcome(ctx.id, spec.name, spec.tolerance, exc)


def _error_outcome(scenario_id, check, tol, exc):
    return CheckOutcome(scenario_id, check, float("nan"), float("nan"),
                        float("inf"), tol, False,
                        {"error": f"{type(exc).__name__}: {exc}"})


def run_scenario(scenario: Scenario):
    """Outcomes of the scenario's checks.  A scenario that does not resolve
    fails each of its checks with the resolve error, and nothing else."""
    try:
        ctx = scenario.resolve()
    except Exception as exc:
        return [_error_outcome(scenario.id, c.name, c.tolerance, exc)
                for c in scenario.checks]
    return [run_check(ctx, c) for c in scenario.checks]
