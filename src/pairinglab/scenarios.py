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

from .errors import PairingLabError, SpecError, UnknownCheck
from .quadrature import polar_quad
from .measures import SingularLadder, TestFunction1D, TestFunction2D
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
        return Piecewise1D.from_callables(
            domain,
            lambda x: off + amp * np.sin(freq * np.asarray(x, float)),
            lambda x: amp * freq * np.cos(freq * np.asarray(x, float)))
    if typ == "ramp":
        x0, x1 = spec["x0"], spec["x1"]
        lo, hi = spec["lo"], spec["hi"]
        slope = (hi - lo) / (x1 - x0)
        return Piecewise1D(
            (domain[0], x0, x1, domain[1]),
            (((lambda x: np.full(np.shape(x), float(lo))),
              (lambda x: np.zeros(np.shape(x)))),
             ((lambda x: lo + slope * (np.asarray(x, float) - x0)),
              (lambda x: np.full(np.shape(x), float(slope)))),
             ((lambda x: np.full(np.shape(x), float(hi))),
              (lambda x: np.zeros(np.shape(x))))))
    raise SpecError(f"unknown ac type {typ!r}")


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
                region = Disc(tuple(spec["center"]), spec["radius"])
                return PiecewiseConstantBv2D(rect, ((region, spec["value"]),))
            if shape == "square":
                h = spec["half_width"]
                region = PolygonRegion(((-h, -h), (h, -h), (h, h), (-h, h)))
                return PiecewiseConstantBv2D(rect, ((region, spec["value"]),))
            if shape == "smooth_radial":
                a = spec["amplitude"]
                rs = spec.get("support_radius", 1.0)
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
    _dist: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def distributional(self, tol=1e-9, form_check=True):
        """pairing_distributional(field, u, phi, tol, form_check), computed
        once per (tol, form_check).  Only values are kept: an error, such as
        a FormMismatch, is raised again on every call."""
        key = (tol, form_check)
        if key not in self._dist:
            self._dist[key] = pairing.pairing_distributional(
                self.field, self.u, self.phi, tol=tol, form_check=form_check)
        return self._dist[key]


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
            if c["name"] == "mass_bound" and "windows" in params:
                w = params["windows"]
                # zero windows would let mass_bound pass without testing any
                if type(w) is not int or w < 1:
                    raise SpecError(f"mass_bound windows must be an integer "
                                    f">= 1 in {d['id']!r}, got {w!r}")
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


def claim_id(owners, scenario, path):
    """Record path as the file of scenario's id in owners (id -> path);
    SpecError naming both files if an earlier file has the same id."""
    if scenario.id in owners:
        raise SpecError(f"duplicate scenario id {scenario.id!r} in "
                        f"{owners[scenario.id]} and {path}")
    owners[scenario.id] = path


def load_catalog(directory=None):
    """All scenarios in a directory (default: the shipped catalog), by id."""
    import pathlib
    base = pathlib.Path(directory) if directory else shipped_catalog_dir()
    out, owners = {}, {}
    for p in sorted(base.glob("*.json")):
        s = load_scenario_file(p)
        claim_id(owners, s, p)
        out[s.id] = s
    return out


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


def _rng(ctx, label):
    return np.random.default_rng(zlib.crc32(f"{ctx.id}:{label}".encode()))


def _check_two_route(ctx, params, tol):
    v1 = ctx.distributional()
    rep = pairing.pairing_by_representation(ctx.field, ctx.u)
    v2 = rep.integrate(ctx.phi)
    res = abs(v1 - v2)
    eff = tol * (1.0 + abs(v1))
    return CheckOutcome(ctx.id, "two_route", v1, v2, res, eff, res <= eff,
                        {"relative_scale": 1.0 + abs(v1)})


def _check_traces_route(ctx, params, tol):
    v1 = ctx.distributional()
    tr = pairing.pairing_by_traces(ctx.field, ctx.u)
    v2 = tr.integrate(ctx.phi)
    res = abs(v1 - v2)
    eff = tol * (1.0 + abs(v1))
    return CheckOutcome(ctx.id, "traces_route", v1, v2, res, eff, res <= eff)


def _check_coarea_pairing(ctx, params, tol):
    lhs, rhs, res = pairing.coarea_pairing_check(
        ctx.field, ctx.u, ctx.phi, dist=ctx.distributional())
    return CheckOutcome(ctx.id, "coarea_pairing", lhs, rhs, res, tol,
                        res <= tol)


def _check_coarea_variation(ctx, params, tol):
    lhs, rhs, res = pairing.coarea_variation_check(ctx.field, ctx.u, ctx.phi)
    return CheckOutcome(ctx.id, "coarea_variation", lhs, rhs, res, tol,
                        res <= tol)


def _check_chain_rule(ctx, params, tol):
    res = pairing.chain_rule_check(
        ctx.field, ctx.u, ctx.phi,
        dist=ctx.distributional(1e-10, form_check=False))
    return CheckOutcome(ctx.id, "chain_rule", res, 0.0, res, tol, res <= tol)


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
                                       _windows_for(ctx, count))
    worst = max((r["lhs"] - r["bound"] for r in results), default=0.0)
    violations = sum(not r["ok"] for r in results)
    return CheckOutcome(ctx.id, "mass_bound", worst, 0.0, max(worst, 0.0),
                        tol, violations == 0,
                        {"windows": count, "violations": violations})


def _check_lipschitz(ctx, params, tol):
    lo, hi = ctx.u.value_range()
    taus = params.get("taus")
    if taus is None:
        taus = np.linspace(lo - 0.3, hi + 0.3, 5)
    worst = -math.inf
    pairs = []
    dist = ctx.distributional(1e-10, form_check=False)
    for tau in taus:
        lhs, rhs = pairing.lipschitz_comparison_check(ctx.field, ctx.u,
                                                      float(tau), ctx.phi,
                                                      tol=tol, dist=dist)
        pairs.append((float(tau), lhs, rhs))
        worst = max(worst, lhs - rhs)
    return CheckOutcome(ctx.id, "lipschitz", worst, 0.0, max(worst, 0.0),
                        tol, worst <= tol, {"taus": [p[0] for p in pairs]})


def _check_gauss_green(ctx, params, tol):
    rep = pairing.pairing_by_representation(ctx.field, ctx.u)
    lhs = rep.measure.total_mass()
    region, val = ctx.u.regions[0]

    def neg_div(pts):
        p = np.asarray(pts, dtype=float)
        t = val * np.ones(p.shape[:-1])
        return -np.asarray(ctx.field.div_x(p, t), dtype=float)

    rhs = val * polar_quad(neg_div, region.center, 0.0, region.radius,
                           tol=1e-10)
    res = abs(lhs - rhs)
    return CheckOutcome(ctx.id, "gauss_green", lhs, rhs, res, tol, res <= tol)


def _check_cyl_average(ctx, params, tol):
    n = int(params.get("points", 20))
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
        worst = max(worst, abs(got.value - want))
    return CheckOutcome(ctx.id, "cyl_average", worst, 0.0, worst, tol,
                        converged and worst <= tol, {"points": n})


def _eps_schedule(params, eps0=0.04, count=7):
    e0 = float(params.get("eps0", eps0))
    n = int(params.get("count", count))
    return tuple(e0 * 0.5 ** i for i in range(n))


def _check_approximation(ctx, params, tol):
    table = pairing.approximation_convergence_check(
        ctx.field, ctx.u, ctx.phi, _eps_schedule(params), tol=tol,
        dist=ctx.distributional(1e-10, form_check=False))
    res = table[-1][1]
    return CheckOutcome(ctx.id, "approximation", res, 0.0, res, tol,
                        res <= tol, {"eps_final": table[-1][0]},
                        table=tuple(table))


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
            ctx.u, int(params.get("count", 6)), mode=mode)
    raise SpecError(f"unknown sequence kind {kind!r}")


def _check_continuity(ctx, params, tol):
    seq = _sequence_for(ctx, params)
    res = variational.continuity_check_Gphi(ctx.field, ctx.phi, seq, ctx.u,
                                            tol=tol, window=ctx.window)
    gap = res.gaps[-1]
    return CheckOutcome(ctx.id, "continuity", res.values[-1], res.target,
                        gap, tol, gap <= tol,
                        {"mode": res.mode, "sup_linf": res.premise["sup_linf"]},
                        table=tuple(enumerate(res.gaps)))


def _check_lsc(ctx, params, tol):
    functional = params.get("functional", "F")
    seq = _sequence_for(ctx, params)
    res = variational.lsc_check(ctx.field, functional, seq, ctx.u, tol=tol,
                                window=ctx.window)
    return CheckOutcome(ctx.id, "lsc", res.liminf, res.target,
                        max(0.0, -res.margin), tol, res.margin >= -tol,
                        {"functional": functional, "margin": res.margin,
                         "truncation_k": res.truncation_k,
                         "truncation_residual": res.truncation_residual,
                         "mode": seq.mode},
                        table=tuple(enumerate(res.values)))


def _check_relaxation(ctx, params, tol):
    eps = _eps_schedule(params, eps0=0.04, count=12)
    res = variational.relaxation_check(
        ctx.field, ctx.u, ctx.phi,
        ctx.window if isinstance(ctx.u, BvFunction1D) else None,
        eps, tol=tol, mode=params.get("mode", "weak*"))
    diag = {"mode": res.mode}
    for label, reports in (("jump", res.jump_report),
                           ("cantor", res.cantor_report)):
        for br in reports:
            diag[f"blowup_{label}_mismatch"] = br.mismatch
    return CheckOutcome(ctx.id, "relaxation", res.liminf, res.target,
                        res.gap, tol, res.gap <= tol, diag,
                        table=tuple(zip(res.eps, res.values)))


def _check_blowup(ctx, params, tol):
    point = params.get("point", "jump")
    if point == "jump":
        x0 = ctx.u.jumps[int(params.get("index", 0))].location
        radii = tuple(params.get("radii",
                                 [0.02 * 0.5 ** i for i in range(6)]))
    elif point == "cantor":
        lad = ctx.u.cantor.ladder
        x0 = lad.interval[0]
        radii = tuple((lad.interval[1] - lad.interval[0]) * lad.side ** i
                      for i in range(2, 8))
    else:
        x0 = point
        radii = tuple(params.get("radii",
                                 [0.02 * 0.5 ** i for i in range(6)]))
    br = variational.blowup_density(ctx.field, ctx.u, x0, radii)
    return CheckOutcome(ctx.id, "blowup", br.extrapolated,
                        br.theta_reference, br.mismatch, tol,
                        br.converged and br.mismatch <= tol,
                        {"x0": br.x0, "converged": br.converged},
                        table=tuple(zip(br.radii, br.quotients)))


def _check_sigma_k(ctx, params, tol):
    ks = tuple(params.get("ks", (2.0, 3.0)))
    use_phi = bool(params.get("g_invariance", False))
    worst = 0.0
    diag = {}
    for k in ks:
        d = variational.sigma_k_identity_check(
            ctx.field, ctx.u, k, phi=ctx.phi if use_phi else None)
        diag[f"k={k:g}"] = d
        worst = max(worst, d["diffuse"], d["jump"],
                    0.0 if math.isnan(d["g_invariance"]) else d["g_invariance"])
    return CheckOutcome(ctx.id, "sigma_k", worst, 0.0, worst, tol,
                        worst <= tol, diag)


def _check_order_relations(ctx, params, tol):
    d = variational.order_relation_check(ctx.field, ctx.u, ctx.window,
                                         slack=tol)
    gap = max(d["Gplus"] - d["F"], max(d["G"], 0.0) - d["Gplus"],
              abs(d["G"]) - d["F"])
    return CheckOutcome(ctx.id, "order_relations", d["F"], d["Gplus"],
                        max(0.0, gap), tol, d["ok"],
                        {"F": d["F"], "G": d["G"], "Gplus": d["Gplus"]})


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


def run_check(ctx, spec: CheckSpec, tol_scale=1.0):
    """Execute one named check; failures surface as failed outcomes.

    Any exception a check raises, not only a PairingLabError, fails that
    check alone, so one defect cannot take down the other checks' reports.
    """
    if spec.name not in CHECKS:
        raise UnknownCheck(spec.name)
    tol = spec.tolerance * tol_scale
    try:
        return CHECKS[spec.name](ctx, spec.params, tol)
    except Exception as exc:
        return _error_outcome(ctx.id, spec.name, tol, exc)


def _error_outcome(scenario_id, check, tol, exc):
    return CheckOutcome(scenario_id, check, float("nan"), float("nan"),
                        float("inf"), tol, False,
                        {"error": f"{type(exc).__name__}: {exc}"})


def run_scenario(scenario: Scenario, tol_scale=1.0):
    """Outcomes of the scenario's checks.  A scenario that does not resolve
    fails each of its checks with the resolve error, and nothing else."""
    try:
        ctx = scenario.resolve()
    except Exception as exc:
        return [_error_outcome(scenario.id, c.name, c.tolerance * tol_scale,
                               exc) for c in scenario.checks]
    return [run_check(ctx, c, tol_scale=tol_scale) for c in scenario.checks]
