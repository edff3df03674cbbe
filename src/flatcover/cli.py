"""Command-line front end for the cover and exponential-sum toolkit.

Subcommands build and verify flat covers, evaluate flatness defects,
run decoupling ratios and sweeps, check the rescaling identity, count
lattice points per member, and replay pinned experiments by id.

Exit codes: 0 success, 1 input error, 2 verification failure.  All CSV
output uses a header row with RFC 4180 quoting and fixed float
formatting, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cover import (
    FlatCover,
    _require_dyadic,
    build_cover_general,
    build_cover_hp,
    canonical_caps,
    hp_axis_family,
    normal_axis_family,
    overlap_profile,
    verify_cover,
)
from .flatness import flat_defect, flat_defect_interval, is_flat
from .geometry import Parallelogram, axis_rectangle, rotated_rectangle
from .lattice import (
    discrete_restriction_ratio,
    lambda_grid,
    max_flat_multiplicity,
    pell_convergents,
    pell_gap,
)
from .norms import (
    bump_example,
    decoupling_report,
    line_example,
    random_product_example,
    slope_fit,
    snap_lift,
    stein_tomas_ratio,
    strip_example,
)
from .poly2 import (
    BivariatePoly,
    elliptic_phase,
    hyperbolic_phase,
    load_phase,
    perturbed_hyperbolic,
)
from .rescale import rescale_phase, verify_coeff_bounds

SCHEMA = 1
_FLOAT_FMT = "%.12g"


def _fmt(x) -> str:
    return _FLOAT_FMT % float(x)


def _parse_dyadic(text: str) -> float:
    """Accept '2^-10', '2**-10', or a plain float literal."""
    t = text.strip().replace("**", "^")
    if "^" in t:
        base, _, exp = t.partition("^")
        b, e = float(base), float(exp)
        try:  # math.pow raises where ** would overflow, go complex or divide by zero
            return math.pow(b, e)
        except (OverflowError, ValueError):
            raise ValueError(f"{text.strip()} has no finite real float value") from None
    return float(t)


def _finite(name: str, positive: bool = False):
    """argparse type for a float that must be finite (and positive, when
    ``positive``); a refused value exits 1 with a message naming it."""

    def parse(text: str) -> float:
        try:
            x = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}") from None
        if not math.isfinite(x) or (positive and x <= 0):
            rule = "finite and positive" if positive else "finite"
            raise argparse.ArgumentTypeError(f"{name} must be {rule}, got {text}")
        return x

    return parse


_A_CONST = _finite("A", positive=True)


def _at_least_one(name: str):
    """argparse type for an integer of at least 1, refused as ``_finite`` refuses."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}") from None
        if n < 1:
            raise argparse.ArgumentTypeError(f"{name} must be at least 1, got {n}")
        return n

    return parse


def _parse_delta_list(text: str) -> List[float]:
    """'2^-6..2^-12' expands over dyadic exponents; commas list values."""
    t = text.strip()
    if ".." in t:
        lo, _, hi = t.partition("..")
        ea, eb = _require_dyadic(_parse_dyadic(lo)), _require_dyadic(_parse_dyadic(hi))
        if eb < ea:
            ea, eb = eb, ea
        return [2.0 ** -e for e in range(ea, eb + 1)]
    return [_parse_dyadic(s) for s in t.split(",") if s.strip()]


def _parse_alpha(text: str) -> float:
    t = text.strip().lower()
    if t in ("sqrt2", "sqrt(2)"):
        return math.sqrt(2.0)
    if "/" in t:
        num, _, den = t.partition("/")
        if float(den) == 0.0:
            raise ValueError(f"alpha {text!r} has a zero denominator")
        return float(num) / float(den)
    return float(t)


_NAMED_PHASES = {
    "xy": lambda: hyperbolic_phase(),
    "saddle": lambda: hyperbolic_phase(),
    "saddle-diag": lambda: BivariatePoly(2, {(2, 0): 1.0, (0, 2): -1.0}),
    "elliptic": lambda: elliptic_phase(),
}


def _phase_arg(text: Optional[str], default: str = "xy") -> BivariatePoly:
    t = default if text is None else text
    if t in _NAMED_PHASES:
        return _NAMED_PHASES[t]()
    return load_phase(t)


def _emit_json(obj: dict, path: Optional[str]) -> None:
    """Write obj as strict JSON; a non-finite value raises ValueError."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _p_json(p: float):
    """An exponent as a JSON value: the sup norm's p = inf as "inf"."""
    return "inf" if p == math.inf else p


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)  # RFC 4180: CRLF line endings, minimal quoting
        writer.writerow(header)
        writer.writerows(rows)


def _build_cover(kind: str, phi: BivariatePoly, delta: float, a_const: float) -> FlatCover:
    if kind == "caps":
        return canonical_caps(delta)
    if kind == "axis":
        return hp_axis_family(delta)
    if kind == "hp":
        return build_cover_hp(phi, delta, a_const)
    if kind == "general":
        return build_cover_general(phi, delta, a_const=a_const)
    raise ValueError(f"unknown cover kind {kind!r}")


# -- cover -----------------------------------------------------------------


def cmd_cover_build(args) -> int:
    phi = _phase_arg(args.phase)
    delta = _parse_dyadic(args.delta)
    cov = _build_cover(args.kind, phi, delta, args.a_const)
    _emit_json(cov.to_json_dict(), args.out)
    return 0


def cmd_cover_verify(args) -> int:
    phi = _phase_arg(args.phase)
    with open(args.cover, "r", encoding="utf-8") as fh:
        cov = FlatCover.from_json_dict(json.load(fh))
    rep = verify_cover(cov, phi, n=args.samples)
    _emit_json(
        {
            "schema": SCHEMA,
            "ok": rep.ok,
            "all_flat": rep.all_flat,
            "covers_domain": rep.covers_domain,
            "overlap_ok": rep.overlap_ok,
            "max_overlap": rep.max_overlap,
            "overlap_bound": rep.overlap_bound,
            "worst_defect": rep.worst_defect,
            "min_a_flat": rep.min_a_flat,
            "members": len(cov),
        },
        args.out,
    )
    return 0 if rep.ok else 2


# -- flat ------------------------------------------------------------------


def _box_from_args(args) -> Parallelogram:
    if args.rect is not None:
        x0, y0, x1, y1 = args.rect
        return axis_rectangle(x0, y0, x1, y1)
    if args.rot is not None:
        cx, cy, w, h, theta = args.rot
        return rotated_rectangle((cx, cy), w, h, theta)
    raise ValueError("give the box as --rect x0 y0 x1 y1 or --rot cx cy w h theta")


def cmd_flat_defect(args) -> int:
    phi = _phase_arg(args.phase)
    box = _box_from_args(args)
    rep = flat_defect(phi, box, m=args.m, method=args.method)
    out = {
        "schema": SCHEMA,
        "defect": rep.defect,
        "lower": rep.lower,
        "upper": rep.upper,
        "certified": rep.certified,
        "argmax_u": list(rep.argmax_u),
        "argmax_v": list(rep.argmax_v),
    }
    if args.delta is not None:
        delta = _parse_dyadic(args.delta)
        out["delta"] = delta
        out["a_const"] = args.a_const
        out["is_flat"] = is_flat(phi, box, delta, args.a_const)
    _emit_json(out, args.out)
    return 0


# -- decouple ----------------------------------------------------------------


def _example_sum(args, delta: float):
    """The named extremal input and its exact evaluation box."""
    _require_dyadic(delta)  # before 1/delta is cast or divided
    name = args.example
    if name == "line":
        return line_example(delta), delta ** -1.5
    if name == "strip":
        a = args.a if args.a is not None else int(round(1.0 / delta / 4))
        return strip_example(delta, a), delta ** -2
    if name == "bump":
        phi = _phase_arg(args.phase, default="elliptic")
        region = tuple(args.region) if args.region else (0.0, 0.0, 1.0, 1.0)
        box = 1.0 / delta
        return snap_lift(bump_example(phi, region, delta), box), box
    if name == "random":
        phi = _phase_arg(args.phase, default="saddle-diag")
        rng = np.random.default_rng(args.seed)
        box = 1.0 / delta
        return snap_lift(random_product_example(phi, delta, rng), box), box
    raise ValueError(f"unknown example {name!r}")


def _decouple_point(args, delta: float):
    f, box = _example_sum(args, delta)
    if args.box_side is not None:
        box = _parse_dyadic(args.box_side)
    cov = _build_cover(args.cover_kind, f.phase, delta, args.a_const)
    tol = args.assign_tol
    if tol is None:
        tol = 0.0 if args.cover_kind in ("caps", "axis") else None
    return decoupling_report(f, cov, args.p, box_side=box, tol=tol)


def cmd_decouple_ratio(args) -> int:
    delta = _parse_dyadic(args.delta)
    rep = _decouple_point(args, delta)
    _emit_json(
        {
            "schema": SCHEMA,
            "example": args.example,
            "cover": args.cover_kind,
            "p": _p_json(rep.p),
            "delta": rep.delta,
            "box_side": rep.box_side,
            "ratio": rep.ratio,
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "members_used": rep.members_used,
            "exact": rep.exact,
            "snap_max": rep.snap_max,
            "methods": rep.methods,
        },
        args.out,
    )
    return 0


def cmd_decouple_sweep(args) -> int:
    deltas = _parse_delta_list(args.deltas)
    if len(set(deltas)) < 4:
        raise ValueError("a sweep needs at least 4 distinct delta values for the fit")
    rows = []
    points = []
    for d in sorted(deltas, reverse=True):
        rep = _decouple_point(args, d)
        points.append((d, rep.ratio))
        rows.append([_fmt(d), _fmt(rep.ratio), _fmt(rep.lhs), _fmt(rep.rhs),
                     str(rep.members_used), str(int(rep.exact))])
    fit = slope_fit(points)
    if args.csv:
        _write_csv(args.csv, ["delta", "ratio", "lhs", "rhs", "members", "exact"], rows)
    _emit_json(
        {
            "schema": SCHEMA,
            "example": args.example,
            "cover": args.cover_kind,
            "p": _p_json(args.p),
            "points": [[d, r] for d, r in points],
            "slope": fit.slope,
            "intercept": fit.intercept,
            "residual": fit.residual,
        },
        args.out,
    )
    return 0


# -- rescale -----------------------------------------------------------------


def _rescale_box(phi: BivariatePoly, box: Parallelogram, sigma: float, a_const: float,
                 rbox: Parallelogram, factor: float):
    """Rescale ``phi`` at the cover member ``box``, then (gap, audit): the
    worst-case gap between the two sides of the rescaling identity over
    ``rbox``, through certified brackets (zero width for quadratics), and
    the coefficient audit at ``factor``."""
    res = rescale_phase(phi, box, sigma=sigma, a_const=a_const)
    lo, hi = flat_defect_interval(phi, res.L.apply_box(rbox))
    lo2, hi2 = flat_defect_interval(res.phi_tilde, rbox)
    lo2, hi2 = res.sigma_eff * lo2, res.sigma_eff * hi2
    return max(lo - hi2, lo2 - hi, 0.0), verify_coeff_bounds(res, factor=factor)


def cmd_rescale_check(args) -> int:
    if not 0.0 <= args.tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {args.tol!r}")
    phi = _phase_arg(args.phase)
    delta = _parse_dyadic(args.delta)
    rng = np.random.default_rng(args.seed)
    cov = build_cover_hp(phi, delta, args.a_const)
    worst_gap = 0.0
    worst_ratio = 0.0
    audits_ok = True
    for box in cov.sample_members(rng, args.count):
        t = rng.uniform(0.2, 0.9)
        cx, cy = rng.uniform(0.3, 0.7, size=2)
        rbox = rotated_rectangle((cx, cy), t * 0.5, t * 0.3, rng.uniform(0, math.pi))
        gap, audit = _rescale_box(phi, box, delta, args.a_const, rbox, args.factor)
        worst_gap = max(worst_gap, gap)
        audits_ok = audits_ok and audit.ok
        worst_ratio = max(worst_ratio, audit.worst_ratio)
    ok = worst_gap <= args.tol and audits_ok
    _emit_json(
        {
            "schema": SCHEMA,
            "delta": delta,
            "pairs": args.count,
            "worst_identity_gap": worst_gap,
            "identity_tol": args.tol,
            "coeff_factor": args.factor,
            "worst_coeff_ratio": worst_ratio,
            "ok": ok,
        },
        args.out,
    )
    return 0 if ok else 2


# -- lattice -----------------------------------------------------------------


def cmd_lattice_count(args) -> int:
    phi = _phase_arg(args.phase, default="saddle-diag")
    delta = _parse_dyadic(args.delta)
    alpha = _parse_alpha(args.alpha)
    lat = lambda_grid(delta, alpha)
    if args.cover:
        with open(args.cover, "r", encoding="utf-8") as fh:
            cov = FlatCover.from_json_dict(json.load(fh))
    else:
        cov = normal_axis_family(phi, delta ** args.d)
    best, hist = max_flat_multiplicity(cov, lat, phi, tol=args.tol)
    _emit_json(
        {
            "schema": SCHEMA,
            "delta": delta,
            "alpha": alpha,
            "points": len(lat),
            "members": len(cov),
            "cover_delta": cov.delta,
            "max": best,
            "histogram": {str(k): hist[k] for k in sorted(hist)},
        },
        args.out,
    )
    return 0


def cmd_lattice_pell(args) -> int:
    gap = pell_gap(args.bmax, args.eps)
    if args.csv:
        rows = []
        for a, b in pell_convergents(args.bmax):
            val = abs(a * a - 2 * b * b) / (math.sqrt(2.0) * b - a)
            rows.append([str(b), str(a), _fmt(val), _fmt(val * b ** (1.0 + args.eps))])
        _write_csv(args.csv, ["b", "a", "gap", "product"], rows)
    _emit_json(
        {
            "schema": SCHEMA,
            "b_max": args.bmax,
            "eps": args.eps,
            "min_product": gap.product,
            "argmin_a": gap.a,
            "argmin_b": gap.b,
            "gap_at_argmin": gap.gap,
        },
        args.out,
    )
    return 0


# -- reproduction recipes ----------------------------------------------------
#
# Each recipe is data: its runner, its pinned parameters, and the
# expectations with tolerances.  "quick" holds reduced-cost overrides used
# by --quick; expectations stay identical.

Check = Tuple[str, bool, str]


def _run_flat_closed_form(cfg: dict) -> List[Check]:
    rng = np.random.default_rng(cfg["seed"])
    phi = hyperbolic_phase()
    worst_abs = 0.0
    worst_rel = 0.0
    for _ in range(cfg["rects"]):
        w, h = rng.uniform(0.02, 1.0, size=2)
        x0, y0 = rng.uniform(0.0, 1.0, size=2)
        box = axis_rectangle(x0, y0, x0 + w, y0 + h)
        closed = flat_defect(phi, box, method="closed").defect
        worst_abs = max(worst_abs, abs(closed - w * h))
        sampled = flat_defect(phi, box, m=cfg["sample_m"], polish=False,
                              method="sample").defect
        worst_rel = max(worst_rel, abs(sampled - closed) / (w * h))
    return [
        ("closed form equals width*height",
         worst_abs <= cfg["closed_tol"],
         f"max |defect - w*h| = {worst_abs:.3e} (tol {cfg['closed_tol']:g})"),
        (f"m={cfg['sample_m']} brute force within 1%",
         worst_rel <= cfg["sample_rel_tol"],
         f"max relative gap = {worst_rel:.3e}"),
    ]


def _run_caps_flat(cfg: dict) -> List[Check]:
    deltas = [2.0 ** -e for e in cfg["exponents"]]
    bad_model = []
    for d in deltas:
        rep = verify_cover(canonical_caps(d), hyperbolic_phase(),
                           a_const=cfg["a_model"])
        if not rep.all_flat:
            bad_model.append(d)
    rng = np.random.default_rng(cfg["seed"])
    bad_pert = 0
    for i in range(cfg["phases"]):
        deg = cfg["degrees"][i % len(cfg["degrees"])]
        phi = perturbed_hyperbolic(deg, rng)
        for d in deltas:
            rep = verify_cover(canonical_caps(d), phi, a_const=cfg["a_perturbed"])
            if not rep.all_flat:
                bad_pert += 1
    return [
        (f"model caps flat at A={cfg['a_model']:g}",
         not bad_model, f"failing deltas: {bad_model or 'none'}"),
        (f"{cfg['phases']} perturbed phases flat at A={cfg['a_perturbed']:g}",
         bad_pert == 0, f"{bad_pert} failing (phase, delta) pairs"),
    ]


def _run_overlap_log(cfg: dict) -> List[Check]:
    phi = hyperbolic_phase()
    worst = ""
    ok_hp = True
    for e in cfg["exponents"]:
        d = 2.0 ** -e
        cov = build_cover_hp(phi, d, cfg["a_const"])
        prof = overlap_profile(cov, n=cfg["samples"])
        bound = 4.0 * cfg["a_const"] * e
        if prof.max > bound:
            ok_hp = False
            worst = f"max {prof.max} > {bound:g} at delta=2^-{e}"
    ok_axis = True
    detail_axis = []
    for e in cfg["exponents"]:
        if e % 2 != 0:
            continue  # odd exponents have ceil(L/2) levels below and above
        d = 2.0 ** -e
        prof = overlap_profile(hp_axis_family(d), n=cfg["samples"])
        detail_axis.append(f"2^-{e}: {prof.min}..{prof.max}")
        if prof.max != e + 1 or prof.min != e + 1:
            ok_axis = False
    return [
        ("hp overlap within 4*A*log2(1/delta)", ok_hp, worst or "all within bound"),
        ("axis-family overlap equals log2(1/delta)+1 (even exponents)",
         ok_axis, "; ".join(detail_axis)),
    ]


def _sweep(make_point, exponents) -> Tuple[List[Tuple[float, float]], float]:
    """(delta, make_point(delta)) at delta = 2^-e per exponent, and the
    fitted slope."""
    points = []
    for e in exponents:
        d = 2.0 ** -e
        points.append((d, make_point(d)))
    return points, slope_fit(points).slope


def _slope_text(slope: float, points) -> str:
    return f"slope {slope:.4f}, points {[(f'{d:g}', f'{r:.4g}') for d, r in points]}"


def _caps_and_axis_sweeps(cfg: dict, example, box_side):
    """``_sweep`` of the decoupling ratio of ``example(d)`` at box side
    ``box_side(d)``, against the canonical caps and then against the axis
    family: [(points, slope) for caps, (points, slope) for the family]."""
    def against(family):
        return lambda d: decoupling_report(example(d), family(d), cfg["p"],
                                           box_side=box_side(d), tol=0.0).ratio

    return [_sweep(against(family), cfg["exponents"])
            for family in (canonical_caps, hp_axis_family)]


def _run_line_slope(cfg: dict) -> List[Check]:
    (pts_c, slope_c), (_, slope_a) = _caps_and_axis_sweeps(cfg, line_example,
                                                           lambda d: d ** -1.5)
    return [
        (f"line vs caps slope = {cfg['slope_caps']:g} +- {cfg['slope_caps_tol']:g}",
         abs(slope_c - cfg["slope_caps"]) <= cfg["slope_caps_tol"],
         _slope_text(slope_c, pts_c)),
        (f"line vs overlapping family slope <= {cfg['slope_axis_max']:g}",
         slope_a <= cfg["slope_axis_max"],
         f"slope {slope_a:.4f}"),
    ]


def _run_bump_slope(cfg: dict) -> List[Check]:
    phi = elliptic_phase()

    def point(d, p):
        box = 1.0 / d
        f = snap_lift(bump_example(phi, (0.0, 0.0, 1.0, 1.0), d), box)
        return decoupling_report(f, canonical_caps(d), p, box_side=box, tol=0.0).ratio

    pts6, slope6 = _sweep(lambda d: point(d, 6.0), cfg["exponents"])
    pts4, slope4 = _sweep(lambda d: point(d, 4.0), cfg["exponents"])
    return [
        (f"bump p=6 slope = 1/6 +- {cfg['slope_p6_tol']:g}",
         abs(slope6 - cfg["slope_p6"]) <= cfg["slope_p6_tol"],
         _slope_text(slope6, pts6)),
        (f"bump p=4 slope <= {cfg['slope_p4_max']:g}",
         slope4 <= cfg["slope_p4_max"],
         f"slope {slope4:.4f}"),
    ]


def _run_rescale_identity(cfg: dict) -> List[Check]:
    rng = np.random.default_rng(cfg["seed"])
    worst_gap = 0.0
    worst_ratio = 0.0
    audit_fails = 0
    per_delta = -(-cfg["pairs"] // len(cfg["exponents"]))
    for e in cfg["exponents"]:
        d = 2.0 ** -e
        phases = [hyperbolic_phase(), perturbed_hyperbolic(3, rng),
                  perturbed_hyperbolic(4, rng)]
        for phi in phases:
            cov = build_cover_hp(phi, d, 4.0)
            k = -(-per_delta // len(phases))
            for box in cov.sample_members(rng, k):
                cx, cy = rng.uniform(0.3, 0.7, size=2)
                rbox = rotated_rectangle(
                    (cx, cy), rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.3),
                    rng.uniform(0.0, math.pi),
                )
                gap, audit = _rescale_box(phi, box, d, 4.0, rbox, cfg["audit_factor"])
                worst_gap = max(worst_gap, gap)
                worst_ratio = max(worst_ratio, audit.worst_ratio)
                if not audit.ok:
                    audit_fails += 1
    return [
        (f"rescaling identity within {cfg['identity_tol']:g}",
         worst_gap <= cfg["identity_tol"],
         f"worst certified gap = {worst_gap:.3e}"),
        (f"coefficient bounds at factor {cfg['audit_factor']:g}",
         audit_fails == 0,
         f"{audit_fails} failing audits; worst ratio {worst_ratio:.3g}"),
    ]


def _run_pell_multiplicity(cfg: dict) -> List[Check]:
    phi = BivariatePoly(2, {(2, 0): 1.0, (0, 2): -1.0})
    ok_cert = True
    ok_irr = True
    ok_contrast = True
    detail_irr = []
    detail_con = []
    for e in cfg["exponents"]:
        d = 2.0 ** -e
        cov = normal_axis_family(phi, d ** 3)
        ok_cert = ok_cert and verify_cover(cov, phi).all_flat
        best, _ = max_flat_multiplicity(cov, lambda_grid(d, math.sqrt(2.0)), phi)
        detail_irr.append(f"2^-{e}: max {best}")
        if best > cfg["max_mult"]:
            ok_irr = False
        best1, _ = max_flat_multiplicity(cov, lambda_grid(d, 1.0), phi)
        floor = cfg["contrast_factor"] * d ** -0.5
        detail_con.append(f"2^-{e}: rational max {best1} (floor {floor:.1f})")
        if best1 < floor:
            ok_contrast = False
    gap = pell_gap(cfg["pell_bmax"], cfg["pell_eps"])
    return [
        ("every member certified flat at delta^3", ok_cert, "verify_cover"),
        (f"alpha=sqrt2 multiplicity <= {cfg['max_mult']}",
         ok_irr, "; ".join(detail_irr)),
        ("alpha=1 multiplicity >= delta^(-1/2)/4",
         ok_contrast, "; ".join(detail_con)),
        (f"pell product floor >= {cfg['pell_floor']:g}",
         gap.product >= cfg["pell_floor"],
         f"min {gap.product:.4f} at (a,b)=({gap.a},{gap.b})"),
    ]


def _run_restriction_slope(cfg: dict) -> List[Check]:
    cases = [
        ("saddle", BivariatePoly(2, {(2, 0): 1.0, (0, 2): -1.0}), math.sqrt(2.0),
         cfg["exponents_saddle"]),
        ("elliptic", elliptic_phase(), 1.0, cfg["exponents_elliptic"]),
    ]
    checks: List[Check] = []
    for label, phi, alpha, exps in cases:
        points, slope = _sweep(lambda d: discrete_restriction_ratio(
            lambda_grid(d, alpha), None, phi, 4, d=cfg["d"]), exps)
        checks.append(
            (f"p=4 restriction slope <= {cfg['slope_max']:g} ({label})",
             slope <= cfg["slope_max"], _slope_text(slope, points)),
        )
    rng = np.random.default_rng(cfg["seed"])
    d = 2.0 ** -cfg["exponents_saddle"][-1]
    lat = lambda_grid(d, math.sqrt(2.0))
    w = rng.standard_normal(len(lat)) + 1j * rng.standard_normal(len(lat))
    r2 = discrete_restriction_ratio(lat, w, cases[0][1], 2, d=cfg["d"])
    checks.append(
        (f"p=2 ratio = 1 +- {cfg['p2_tol']:g}",
         abs(r2 - 1.0) <= cfg["p2_tol"], f"ratio {r2:.6f}"),
    )
    return checks


def _run_stein_tomas(cfg: dict) -> List[Check]:
    phi = BivariatePoly(2, {(2, 0): 1.0, (0, 2): -1.0})
    checks: List[Check] = []
    for seed in cfg["seeds"]:
        points, slope = _sweep(lambda d: stein_tomas_ratio(
            random_product_example(phi, d, np.random.default_rng(seed)), d, cfg["p"]),
            cfg["exponents"])
        checks.append(
            (f"stein-tomas slope <= {cfg['slope_max']:g} (seed {seed})",
             slope <= cfg["slope_max"], _slope_text(slope, points)),
        )
    return checks


def _run_partition_contrast(cfg: dict) -> List[Check]:
    (pts_c, slope_c), (_, slope_a) = _caps_and_axis_sweeps(
        cfg, lambda d: strip_example(d, int(round(1.0 / d / 4))), lambda d: d ** -2)
    return [
        (f"strip vs partition slope >= {cfg['slope_caps_min']:g}",
         slope_c >= cfg["slope_caps_min"], _slope_text(slope_c, pts_c)),
        (f"strip vs overlapping family slope <= {cfg['slope_axis_max']:g}",
         slope_a <= cfg["slope_axis_max"],
         f"slope {slope_a:.4f}"),
    ]


RECIPES: Dict[str, dict] = {
    "flat-closed-form": {
        "criterion": 1,
        "run": _run_flat_closed_form,
        "rects": 200,
        "seed": 20260825,
        "sample_m": 65,
        "closed_tol": 1e-12,
        "sample_rel_tol": 0.01,
        "quick": {"rects": 50},
    },
    "caps-flat": {
        "criterion": 2,
        "run": _run_caps_flat,
        "exponents": [6, 7, 8, 9, 10, 11, 12],
        "a_model": 2.0,
        "a_perturbed": 4.0,
        "phases": 20,
        "degrees": [2, 3, 4],
        "seed": 1107,
        "quick": {"exponents": [6, 8, 10], "phases": 5},
    },
    "overlap-log": {
        "criterion": 3,
        "run": _run_overlap_log,
        "exponents": [6, 7, 8, 9, 10, 11, 12, 13, 14],
        "a_const": 4.0,
        "samples": 96,
        "quick": {"exponents": [6, 7, 8, 9, 10]},
    },
    "line-slope-p4": {
        "criterion": 4,
        "run": _run_line_slope,
        "exponents": [6, 8, 10, 12],
        "p": 4.0,
        "slope_caps": 0.125,
        "slope_caps_tol": 0.05,
        "slope_axis_max": 0.03,
        "quick": {"exponents": [4, 6, 8, 10]},
    },
    "bump-slope-p6": {
        "criterion": 5,
        "run": _run_bump_slope,
        "exponents": [6, 7, 8, 9, 10],
        "slope_p6": 0.16666666666666666,
        "slope_p6_tol": 0.06,
        "slope_p4_max": 0.04,
        "quick": {"exponents": [5, 6, 7, 8]},
    },
    "rescale-identity": {
        "criterion": 6,
        "run": _run_rescale_identity,
        "pairs": 500,
        "exponents": [6, 8, 10],
        "identity_tol": 1e-9,
        "audit_factor": 100.0,
        "seed": 2605,
        "quick": {"pairs": 100},
    },
    "pell-multiplicity": {
        "criterion": 7,
        "run": _run_pell_multiplicity,
        "exponents": [4, 5, 6],
        "max_mult": 3,
        "contrast_factor": 0.25,
        "pell_bmax": 100000,
        "pell_eps": 0.1,
        "pell_floor": 0.2,
        "quick": {"exponents": [4, 5], "pell_bmax": 10000},
    },
    "restriction-slope": {
        "criterion": 8,
        "run": _run_restriction_slope,
        "exponents_saddle": [3, 4, 5, 6],
        "exponents_elliptic": [4, 5, 6, 7, 8],
        "d": 3,
        "slope_max": 0.05,
        "p2_tol": 0.02,
        "seed": 907,
    },
    "stein-tomas": {
        "criterion": 9,
        "run": _run_stein_tomas,
        "exponents": [4, 5, 6, 7, 8],
        "p": 4.0,
        "seeds": [101, 102, 103],
        "slope_max": 0.03,
        "quick": {"exponents": [4, 5, 6, 7], "seeds": [101]},
    },
    "partition-contrast": {
        "criterion": 10,
        "run": _run_partition_contrast,
        "exponents": [6, 7, 8, 9, 10, 11, 12],
        "p": 4.0,
        "slope_caps_min": 0.05,
        "slope_axis_max": 0.03,
        "quick": {"exponents": [6, 7, 8, 9]},
    },
}


def run_recipe(recipe_id: str, quick: bool = False) -> List[Check]:
    """Execute a pinned experiment and return its (name, ok, detail) checks."""
    if recipe_id not in RECIPES:
        raise ValueError(
            f"unknown recipe {recipe_id!r}; known: {', '.join(sorted(RECIPES))}"
        )
    cfg = dict(RECIPES[recipe_id])
    run = cfg.pop("run")
    overrides = cfg.pop("quick", {})
    if quick:
        cfg.update(overrides)
    return run(cfg)


def cmd_reproduce(args) -> int:
    if args.list or args.id is None:
        for rid in sorted(RECIPES, key=lambda r: RECIPES[r]["criterion"]):
            print(f"{rid}  (criterion {RECIPES[rid]['criterion']})")
        return 0 if args.list else 1
    t0 = time.perf_counter()
    checks = run_recipe(args.id, quick=args.quick)
    elapsed = time.perf_counter() - t0
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{args.id}: {len(checks) - failed}/{len(checks)} checks passed in {elapsed:.1f} s")
    return 0 if failed == 0 else 2


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flatcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cover = sub.add_parser("cover", help="build or verify flat covers")
    cover_sub = cover.add_subparsers(dest="subcommand", required=True)
    cb = cover_sub.add_parser("build", help="construct a cover and emit JSON")
    cb.add_argument("--phase", help="phase polynomial file or name (xy, saddle-diag, elliptic)")
    cb.add_argument("--delta", required=True, help="scale, e.g. 2^-8")
    cb.add_argument("--kind", default="hp", choices=["caps", "axis", "hp", "general"])
    cb.add_argument("--a-const", type=_A_CONST, default=4.0)
    cb.add_argument("--out", help="output JSON path (default stdout)")
    cb.set_defaults(func=cmd_cover_build)
    cv = cover_sub.add_parser("verify", help="re-certify a cover from JSON")
    cv.add_argument("--phase", help="phase file or name")
    cv.add_argument("--cover", required=True, help="cover JSON path")
    cv.add_argument("--samples", type=int, default=64)
    cv.add_argument("--out")
    cv.set_defaults(func=cmd_cover_verify)

    flat = sub.add_parser("flat", help="flatness defects")
    flat_sub = flat.add_subparsers(dest="subcommand", required=True)
    fd = flat_sub.add_parser("defect", help="defect of a phase over a box")
    fd.add_argument("--phase", help="phase file or name")
    fd.add_argument("--rect", nargs=4, type=float, metavar=("X0", "Y0", "X1", "Y1"))
    fd.add_argument("--rot", nargs=5, type=float,
                    metavar=("CX", "CY", "W", "H", "THETA"))
    fd.add_argument("--m", type=int, default=33)
    fd.add_argument("--method", default="auto", choices=["auto", "closed", "sample"])
    fd.add_argument("--delta", help="also report is_flat at this scale")
    fd.add_argument("--a-const", type=_A_CONST, default=None)
    fd.add_argument("--out")
    fd.set_defaults(func=cmd_flat_defect)

    dec = sub.add_parser("decouple", help="decoupling ratios and sweeps")
    dec_sub = dec.add_subparsers(dest="subcommand", required=True)
    for name, func in (("ratio", cmd_decouple_ratio), ("sweep", cmd_decouple_sweep)):
        dp = dec_sub.add_parser(name)
        dp.add_argument("--example", required=True,
                        choices=["line", "strip", "bump", "random"])
        dp.add_argument("--p", type=float, default=4.0)
        dp.add_argument("--cover-kind", default="caps",
                        choices=["caps", "axis", "hp"])
        dp.add_argument("--a-const", type=_A_CONST, default=4.0)
        dp.add_argument("--phase", help="phase for bump/random examples")
        dp.add_argument("--a", type=int, help="strip row index")
        dp.add_argument("--region", nargs=4, type=_finite("region coordinates"),
                        metavar=("X0", "Y0", "X1", "Y1"))
        dp.add_argument("--seed", type=int, default=0)
        dp.add_argument("--box-side", help="override the evaluation box side")
        dp.add_argument("--assign-tol", type=float, default=None,
                        help="frequency-to-member distance tolerance "
                             "(default: sharp for caps/axis, delta for hp)")
        dp.add_argument("--out")
        if name == "ratio":
            dp.add_argument("--delta", required=True)
        else:
            dp.add_argument("--deltas", required=True,
                            help="range 2^-6..2^-12 or comma list")
            dp.add_argument("--csv", help="write sweep rows as CSV")
        dp.set_defaults(func=func)

    res = sub.add_parser("rescale", help="rescaling checks")
    res_sub = res.add_subparsers(dest="subcommand", required=True)
    rc = res_sub.add_parser("check", help="identity and coefficient audit")
    rc.add_argument("--phase", help="phase file or name")
    rc.add_argument("--delta", required=True)
    rc.add_argument("--count", type=int, default=100)
    rc.add_argument("--seed", type=int, default=0)
    rc.add_argument("--a-const", type=_A_CONST, default=4.0)
    rc.add_argument("--factor", type=float, default=100.0)
    rc.add_argument("--tol", type=float, default=1e-9)
    rc.add_argument("--out")
    rc.set_defaults(func=cmd_rescale_check)

    lat = sub.add_parser("lattice", help="lattice counting and Pell gaps")
    lat_sub = lat.add_subparsers(dest="subcommand", required=True)
    lc = lat_sub.add_parser("count", help="per-member lattice multiplicity")
    lc.add_argument("--phase", help="phase file or name")
    lc.add_argument("--alpha", required=True, help="sqrt2, a float, or p/q")
    lc.add_argument("--delta", required=True)
    lc.add_argument("--cover", help="cover JSON (default: build at delta^d)")
    lc.add_argument("--d", type=_at_least_one("d"), default=3)
    lc.add_argument("--tol", type=float, default=None)
    lc.add_argument("--out")
    lc.set_defaults(func=cmd_lattice_count)
    lp = lat_sub.add_parser("pell", help="min |a + sqrt2 b| b^(1+eps)")
    lp.add_argument("--bmax", type=int, required=True)
    lp.add_argument("--eps", type=float, default=0.1)
    lp.add_argument("--csv", help="write the convergent table as CSV")
    lp.add_argument("--out")
    lp.set_defaults(func=cmd_lattice_pell)

    rep = sub.add_parser("reproduce", help="replay a pinned experiment")
    rep.add_argument("id", nargs="?", help="recipe id (see --list)")
    rep.add_argument("--list", action="store_true")
    rep.add_argument("--quick", action="store_true",
                     help="reduced-cost variant with identical expectations")
    rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"flatcover: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
