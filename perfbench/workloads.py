"""The benchmark workloads: seeded inputs, timed operations, checks.

``build(name, seed)`` makes a workload's inputs (phases, lattices,
exponential sums and the covers a decoupling run is measured against)
and returns its operations.  Each operation's ``run`` is the timed call
into flatcover; ``check`` compares the result with a reference from
``oracle`` outside the timed region; ``summary`` is the part of the
result compared across rounds.

Timed code reaches flatcover through module attributes (``C.build_cover_hp``
and so on), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

import flatcover.cover as C
import flatcover.flatness as F
import flatcover.geometry as G
import flatcover.lattice as L
import flatcover.norms as N
import flatcover.poly2 as P
import flatcover.rescale as R

import oracle

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

# Ops that fail at the seed commit because of a defect confirmed in
# ROADMAP.md; they stay in the workloads and count as failed.
ITEM1 = "ROADMAP item 1: separable path divides each factor's heights by its own gcd"
ITEM2 = "ROADMAP item 2: build_cover_general emits members that are not flat"
# Found while writing this benchmark; not yet in ROADMAP.md (see CHANGES.md).
SNAP = ("separable path snaps each factor's heights on its own; the other exact "
        "paths snap the whole lifted height")
REACH = ("assign_frequencies tries only the cells next to a point's own cell, so it "
         "misses tiles at distance tol when tol is not below the tile side")
# The wrong outputs of the ROADMAP defects at the seed commit, by operation.
PINNED = EXPECTED["defects"]

NORM_RTOL = 1e-9  # references use other arithmetic; the known defects differ by >1e-3

# (status, detail); status is ok, fail, unverified, or known: a wrong
# output equal to the one pinned or modelled for the operation's defect
Check = Tuple[str, str]


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Check]
    summary: Callable[[Any], tuple]
    known_defect: str = ""
    group: str = ""


def _status(ok: bool, detail: str, as_defect: bool = False) -> Check:
    if ok:
        return ("ok", detail)
    return ("known" if as_defect else "fail", detail)


SADDLE_DIAG = P.BivariatePoly(2, {(2, 0): 1.0, (0, 2): -1.0})
DEMO_CUBIC = P.BivariatePoly(3, {(3, 0): 1.0, (0, 3): 1.0, (1, 1): 1.0})
BOWL = P.BivariatePoly(3, {(2, 0): 1.0, (0, 2): 1.0, (3, 0): 0.8, (1, 2): 0.5})


# -- hp-cover -------------------------------------------------------------------


def _digest_check(cov, e: int) -> Check:
    want = EXPECTED["hp_xy"][str(e)]
    count, digest = oracle.cover_digest(cov)
    ok = count == want["members"] and digest == want["digest"]
    return _status(ok, f"{count} members, digest {digest} (expected "
                       f"{want['members']}, {want['digest']})")


def _profile_check(cov, prof, n: int, bound: Optional[float],
                   exact: Optional[int] = None) -> Check:
    counts = oracle.overlap_counts(cov, n)
    vals, freq = np.unique(counts, return_counts=True)
    hist = {int(v): int(c) for v, c in zip(vals, freq)}
    ok = (prof.max == counts.max() and prof.min == counts.min()
          and prof.histogram == hist and prof.samples == counts.size)
    detail = f"overlap {prof.min}..{prof.max} (reference {counts.min()}..{counts.max()})"
    if bound is not None:
        ok = ok and prof.max <= bound
        detail += f", bound {bound:g}"
    if exact is not None:
        ok = ok and prof.min == prof.max == exact
        detail += f", expected exactly {exact}"
    return _status(ok, detail)


def _affine_residual(res, phi) -> float:
    """Largest deviation from an affine function of phi(L u) -
    sigma_eff * phi_tilde(u), relative to sigma_eff, on 25 points."""
    s = np.linspace(0.0, 1.0, 5)
    u, v = (a.ravel() for a in np.meshgrid(s, s, indexing="ij"))
    mat, off = np.asarray(res.L.matrix), np.asarray(res.L.offset)
    x = mat[0, 0] * u + mat[0, 1] * v + off[0]
    y = mat[1, 0] * u + mat[1, 1] * v + off[1]
    diff = (oracle.poly_eval(phi.coeffs, x, y)
            - res.sigma_eff * oracle.poly_eval(res.phi_tilde.coeffs, u, v))
    basis = np.column_stack([np.ones_like(u), u, v])
    coef, *_ = np.linalg.lstsq(basis, diff, rcond=None)
    return float(np.max(np.abs(diff - basis @ coef))) / res.sigma_eff


def _identity_gap(phi, res, rbox) -> float:
    lo, hi = F.flat_defect_interval(phi, res.L.apply_box(rbox))
    lo2, hi2 = F.flat_defect_interval(res.phi_tilde, rbox)
    lo2, hi2 = res.sigma_eff * lo2, res.sigma_eff * hi2
    return max(lo - hi2, lo2 - hi, 0.0)


def _rescale_op(phi, e: int, pairs: int, seed: int) -> Op:
    delta = 2.0 ** -e

    def run():
        rng = np.random.default_rng(seed)
        cov = C.build_cover_hp(phi, delta, 4.0)
        out = []
        for box in cov.sample_members(rng, pairs):
            res = R.rescale_phase(phi, box, sigma=delta)
            cx, cy = rng.uniform(0.3, 0.7, size=2)
            rbox = G.rotated_rectangle((cx, cy), rng.uniform(0.1, 0.5),
                                       rng.uniform(0.1, 0.3), rng.uniform(0.0, math.pi))
            gap = _identity_gap(phi, res, rbox)
            audit = R.verify_coeff_bounds(res, factor=100.0)
            out.append((box, res, gap, audit))
        return out

    def check(out) -> Check:
        worst_gap = max(g for _, _, g, _ in out)
        audits = sum(1 for *_, a in out if not a.ok)
        resid = max(_affine_residual(res, phi) for _, res, _, _ in out)
        ok = worst_gap <= 1e-9 and audits == 0 and resid <= 1e-9
        return _status(ok, f"worst gap {worst_gap:.2e}, failed audits {audits}, "
                           f"identity residual {resid:.2e}")

    def summary(out):
        return tuple((res.sigma_eff, gap, a.worst_ratio) for _, res, gap, a in out)

    return Op(f"rescale 2^-{e} x{pairs}", run, check, summary)


def _pullback_op(phi, e: int, seed: int) -> Op:
    delta = 2.0 ** -e

    def run():
        cov = C.build_cover_hp(phi, delta, 4.0)
        box = cov.sample_members(np.random.default_rng(seed), 1)[0]
        res = R.rescale_phase(phi, box, sigma=delta)
        prime = C.build_cover_hp(res.phi_tilde, delta, 4.0)
        return prime, res, R.pullback_cover(prime, res, phi)

    def check(out) -> Check:
        prime, res, pb = out
        members = list(pb.iter_members())
        pick = members[:: max(1, len(members) // 256)]
        worst = float(oracle.sampled_defects(phi.coeffs, *oracle.box_arrays(pick), m=9).max())
        limit = pb.a_const * pb.delta * (1 + 1e-9)
        ok = (len(pb) == len(prime) and math.isclose(pb.delta, res.sigma_eff * delta)
              and worst <= limit)
        return _status(ok, f"{len(pb)} members; sampled defect {worst / pb.delta:.3f} "
                           f"x delta on {len(pick)} members (limit A={pb.a_const:g})")

    return Op(f"pullback 2^-{e}", run, check,
              lambda out: (len(out[2]), out[2].delta))


def hp_cover(seed: int) -> List[Op]:
    rng = np.random.default_rng([seed, 1])
    xy = P.hyperbolic_phase()
    perturbed = {deg: P.perturbed_hyperbolic(deg, rng) for deg in (3, 4)}
    ops: List[Op] = []
    a_const = 4.0
    for e in range(6, 11):
        def run(e=e):
            cov = C.build_cover_hp(xy, 2.0 ** -e, a_const)
            return cov, C.overlap_profile(cov, n=96)

        def check(out, e=e) -> Check:
            cov, prof = out
            d1 = _digest_check(cov, e)
            d2 = _profile_check(cov, prof, 96, 4.0 * a_const * e)
            return ("ok" if d1[0] == d2[0] == "ok" else "fail", f"{d1[1]}; {d2[1]}")

        ops.append(Op(f"hp xy 2^-{e} + overlap", run, check,
                      lambda out: (len(out[0]), out[1].max, out[1].min, out[1].mean)))
    for e in (6, 8, 10):
        def run(e=e):
            cov = C.hp_axis_family(2.0 ** -e)
            return cov, C.overlap_profile(cov, n=96)

        ops.append(Op(f"axis family 2^-{e} overlap", run,
                      lambda out, e=e: _profile_check(out[0], out[1], 96, None, e + 1),
                      lambda out: (len(out[0]), out[1].max, out[1].min)))
    for deg, phi in perturbed.items():
        for e in (6, 8):
            ops.append(Op(
                f"hp perturbed deg {deg} 2^-{e}",
                lambda phi=phi, e=e: C.build_cover_hp(phi, 2.0 ** -e, a_const),
                lambda cov, e=e: _digest_check(cov, e),
                lambda cov: oracle.cover_digest(cov),
            ))
    sub = [int(s) for s in rng.integers(0, 2 ** 31, size=3)]
    ops.append(_rescale_op(perturbed[3], 8, 48, sub[0]))
    ops.append(_rescale_op(perturbed[4], 10, 48, sub[1]))
    ops.append(_pullback_op(xy, 6, sub[2]))
    return ops


# -- general-cover ----------------------------------------------------------------


def _general_op(label: str, phi, e: int, known: str = "") -> Op:
    delta = 2.0 ** -e
    name = f"general {label} 2^-{e} + verify"
    pinned = PINNED[name] if known else None

    def run():
        cov = C.build_cover_general(phi, delta)
        return cov, C.verify_cover(cov, phi)

    def check(out) -> Check:
        cov, rep = out
        members = list(cov.iter_members())
        centers, edges = oracle.box_arrays(members)
        defects = oracle.sampled_defects(phi.coeffs, centers, edges, m=13)
        worst_a = float(defects.max()) / delta
        flat = worst_a <= cov.a_const * (1 + 1e-9)
        covered = int(oracle.closed_coverage(
            centers, edges, oracle.midpoint_grid(cov.domain, 64)).min())
        consistent = flat or not rep.all_flat
        ok = flat and covered >= 1 and rep.covers_domain and consistent
        as_defect = pinned is not None and (
            [len(members), covered, rep.covers_domain, rep.all_flat]
            == [pinned["members"], pinned["min_coverage"], pinned["covers_domain"],
                pinned["all_flat"]]
            and oracle.rel_close(worst_a, pinned["sampled_A"], 1e-9))
        return _status(ok, f"{len(members)} members; sampled defect up to "
                           f"A={worst_a:.6f} (limit {cov.a_const:g}); min coverage "
                           f"{covered}; verify_cover all_flat={rep.all_flat}", as_defect)

    def summary(out):
        cov, rep = out
        return (len(cov), rep.all_flat, rep.covers_domain, rep.overlap_ok,
                rep.max_overlap, rep.worst_defect)

    return Op(name, run, check, summary, known)


def general_cover(seed: int) -> List[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = [_general_op("cubic", DEMO_CUBIC, e, ITEM2 if e == 8 else "") for e in (5, 8)]
    ops += [_general_op("bowl", BOWL, e, ITEM2) for e in (4, 6)]
    for k in (1, 2):
        c3 = 1.0 + rng.uniform(-0.05, 0.05, size=2)
        mixed = rng.uniform(-0.05, 0.05)
        phi = P.BivariatePoly(3, {(3, 0): float(c3[0]), (0, 3): float(c3[1]),
                                  (1, 1): 1.0, (2, 1): float(mixed)})
        ops.append(_general_op(f"cubic~{k}", phi, 5))
    return ops


# -- decouple -------------------------------------------------------------------


def _decouple_op(label: str, f, cov, p: float, box: float, tol: Optional[float],
                 known: str = "") -> Op:
    def run():
        return N.decoupling_report(f, cov, p, box_side=box, tol=tol)

    def reference(subsets) -> Tuple[Optional[float], Optional[float], str]:
        """(lhs, ratio, why not) from the oracle's norms on these subsets."""
        lifted = f.lifted()
        lhs = oracle.lp_norm(lifted, f.weights, int(p), box)
        if lhs is None:
            return None, None, "whole sum has no reference"
        norms = []
        for idx in map(list, subsets):
            if len(idx) == 1:
                norms.append(float(abs(f.weights[idx[0]])))
                continue
            v = oracle.lp_norm(lifted[idx], f.weights[idx], int(p), box)
            if v is None:
                return None, None, f"member of {len(idx)} frequencies has no reference"
            norms.append(v)
        return lhs, lhs / math.sqrt(sum(v * v for v in norms)), ""

    def check(rep) -> Check:
        # member subsets by the oracle's own cell arithmetic, compared with
        # the program's assignment
        t = cov.delta if tol is None else tol
        got = sorted(tuple(sorted(s.tolist())) for s in N.assign_frequencies(f, cov, tol)[0])
        subsets = sorted(oracle.assign_subsets(f.freqs, cov, t))
        lhs, ratio, why = reference(subsets)
        if ratio is None:
            return ("unverified", why)
        if got == subsets:
            ok = (oracle.rel_close(rep.ratio, ratio, NORM_RTOL)
                  and oracle.rel_close(rep.lhs, lhs, NORM_RTOL)
                  and rep.members_used == len(subsets))
            return _status(ok, f"ratio {rep.ratio:.10g} vs reference {ratio:.10g}; "
                               f"{rep.members_used} members")
        detail = (f"ratio {rep.ratio:.10g} vs reference {ratio:.10g}; member subsets "
                  f"differ from the reference ({len(got)} vs {len(subsets)} members)")
        modelled = sorted(oracle.assign_subsets(f.freqs, cov, t, reach=1))
        if not known or got != modelled:
            return ("fail", detail)
        # the program's subsets are the defect's; its ratio must be theirs
        lhs_d, ratio_d, why = reference(modelled)
        as_defect = (ratio_d is not None and oracle.rel_close(rep.ratio, ratio_d, NORM_RTOL)
                     and oracle.rel_close(rep.lhs, lhs_d, NORM_RTOL)
                     and rep.members_used == len(modelled))
        return _status(False, f"{detail}; the defect's subsets give {ratio_d:.10g}"
                       if ratio_d is not None else f"{detail}; {why}", as_defect)

    return Op(label, run, check,
              lambda rep: (rep.ratio, rep.lhs, rep.rhs, rep.members_used), known)


def decouple(seed: int) -> List[Op]:
    rng = np.random.default_rng([seed, 3])
    ell, xy = P.elliptic_phase(), P.hyperbolic_phase()
    unit = (0.0, 0.0, 1.0, 1.0)
    ops: List[Op] = []
    for e in (6, 7, 8):
        d = 2.0 ** -e
        f = N.snap_lift(N.bump_example(ell, unit, d), 1.0 / d)
        caps = C.canonical_caps(d)
        for p in (4.0, 6.0):
            ops.append(_decouple_op(f"elliptic bump caps p={p:g} 2^-{e}", f, caps, p, 1.0 / d, 0.0))
    for e, kinds in ((5, ("axis",)), (6, ("caps", "axis"))):
        d = 2.0 ** -e
        f = N.snap_lift(N.bump_example(xy, unit, d), 1.0 / d)
        for kind in kinds:
            cov = C.canonical_caps(d) if kind == "caps" else C.hp_axis_family(d)
            ops.append(_decouple_op(f"xy bump {kind} p=4 2^-{e}", f, cov, 4.0, 1.0 / d, 0.0))
    for e in (4, 5):
        d = 2.0 ** -e
        f = N.snap_lift(N.random_product_example(xy, d, rng), 1.0 / d)
        cov = C.build_cover_hp(xy, d, 4.0)
        ops.append(_decouple_op(f"xy random hp p=4 2^-{e}", f, cov, 4.0, 1.0 / d, None,
                                REACH))
    for e in (8, 10):
        d = 2.0 ** -e
        for kind, cov in (("caps", C.canonical_caps(d)), ("axis", C.hp_axis_family(d))):
            ops.append(_decouple_op(f"line {kind} p=4 2^-{e}", N.line_example(d), cov,
                                    4.0, d ** -1.5, 0.0))
    d = 2.0 ** -8
    strip = N.strip_example(d, int(round(1.0 / d / 4)))
    for kind, cov in (("caps", C.canonical_caps(d)), ("axis", C.hp_axis_family(d))):
        ops.append(_decouple_op(f"strip {kind} p=4 2^-8", strip, cov, 4.0, d ** -2, 0.0))
    return ops


# -- restriction ------------------------------------------------------------------


def _restriction_op(label: str, lat, weights, phi, p: int, known: str = "") -> Op:
    pinned = PINNED[label]["ratio"] if known else None

    def run():
        return L.discrete_restriction_ratio(lat, weights, phi, p, d=3)

    def check(value) -> Check:
        f = lat.to_exp_sum(phi, weights)
        ref = oracle.lp_norm(f.lifted(), f.weights, p, lat.delta ** -3)
        if ref is None:
            return ("unverified", "no reference fits in memory")
        ref /= f.l2_weight()
        return _status(oracle.rel_close(value, ref, NORM_RTOL),
                       f"ratio {value:.10g} vs reference {ref:.10g}",
                       pinned is not None and oracle.rel_close(value, pinned, NORM_RTOL))

    return Op(label, run, check, lambda v: (v,), known)


def _stein_op(f, e: int) -> Op:
    """Unsnapped random product on the saddle: the separable path takes it."""
    d = 2.0 ** -e

    def check(value) -> Check:
        ref = oracle.lp_norm(f.lifted(), f.weights, 4, 1.0 / d)
        if ref is None:
            return ("unverified", "no reference fits in memory")
        scale = d ** 0.25 / f.l2_weight()
        ref *= scale
        modelled = oracle.factorwise_lp_norm(
            [(g.axis, g.values, g.weights, g.heights) for g in f.factors], 4, 1.0 / d)
        as_defect = modelled is not None and oracle.rel_close(value, modelled * scale,
                                                              NORM_RTOL)
        return _status(oracle.rel_close(value, ref, NORM_RTOL),
                       f"ratio {value:.10g} vs reference {ref:.10g}", as_defect)

    return Op(f"stein-tomas random 2^-{e}", lambda: N.stein_tomas_ratio(f, d, 4.0),
              check, lambda v: (v,), SNAP)


def _multiplicity_op(label: str, cov, lat, phi) -> Op:
    def check(out) -> Check:
        best, hist = out
        ref = oracle.lattice_member_counts(cov, lat.points(), cov.delta)
        ref_best = max((k for k, c in ref.items() if c > 0), default=0)
        return _status(best == ref_best and hist == ref,
                       f"max {best} vs reference {ref_best}; "
                       f"{sum(hist.values())} members counted")

    return Op(label, lambda: L.max_flat_multiplicity(cov, lat, phi), check,
              lambda out: (out[0], tuple(sorted(out[1].items()))))


def restriction(seed: int) -> List[Op]:
    rng = np.random.default_rng([seed, 4])
    ell = P.elliptic_phase()
    root2 = math.sqrt(2.0)
    ops: List[Op] = []
    for e in (3, 4, 5):
        ops.append(_restriction_op(f"restriction saddle-diag sqrt2 p=4 2^-{e}",
                                   L.lambda_grid(2.0 ** -e, root2), None, SADDLE_DIAG, 4,
                                   ITEM1))
    for e in (4, 5, 6, 7):
        ops.append(_restriction_op(f"restriction elliptic 1 p=4 2^-{e}",
                                   L.lambda_grid(2.0 ** -e, 1.0), None, ell, 4))
    lat = L.lambda_grid(2.0 ** -5, root2)
    w = rng.standard_normal(len(lat)) + 1j * rng.standard_normal(len(lat))
    ops.append(_restriction_op("restriction weighted p=2 2^-5", lat, w, SADDLE_DIAG, 2))
    for e in (4, 5, 6):
        f = N.random_product_example(SADDLE_DIAG, 2.0 ** -e, rng)
        ops.append(_stein_op(f, e))
    for e in (4, 5, 6):
        d = 2.0 ** -e
        cov = C.normal_axis_family(SADDLE_DIAG, d ** 3)
        for name, alpha in (("sqrt2", root2), ("1", 1.0)):
            ops.append(_multiplicity_op(f"multiplicity alpha={name} 2^-{e}", cov,
                                        L.lambda_grid(d, alpha), SADDLE_DIAG))

    def pell_check(gap) -> Check:
        a, b, prod = oracle.pell_reference(100_000, 0.1)
        return _status((gap.a, gap.b) == (a, b) and oracle.rel_close(gap.product, prod, 1e-12),
                       f"min {gap.product:.12g} at ({gap.a}, {gap.b}) vs "
                       f"{prod:.12g} at ({a}, {b})")

    ops.append(Op("pell gap 10^5", lambda: L.pell_gap(100_000, 0.1), pell_check,
                  lambda g: (g.product, g.a, g.b)))
    return ops


# Two workloads, each the union of two operation groups.  As four separate
# workloads they spread 11-28 % run to run on a shared 2-vCPU VM; a run of
# the union holds twice the work within the same total run budget.
WORKLOADS = {
    "cover": (hp_cover, general_cover),
    "norms": (decouple, restriction),
}


def build(name: str, seed: int) -> List[Op]:
    ops = []
    for group in WORKLOADS[name]:
        for op in group(seed):
            op.group = group.__name__.replace("_", "-")
            ops.append(op)
    return ops
