"""
Building and certifying flat covers
===================================

Three ways to cover the unit square with flat boxes for a phase, from
the rigid square-cap partition to the adaptive construction that works
for any admissible polynomial.  Every cover carries a certificate that
``verify_cover`` re-checks from scratch.
"""

import json

from flatcover import (
    BivariatePoly,
    build_cover_general,
    build_cover_hp,
    canonical_caps,
    hp_axis_family,
    hyperbolic_phase,
    normal_axis_family,
    overlap_profile,
    verify_cover,
)
from flatcover.cover import FlatCover

delta = 2.0 ** -6
phi = hyperbolic_phase()

# --- square caps: a genuine partition, sqrt(delta) on a side ---------
caps = canonical_caps(delta)
rep = verify_cover(caps, phi)
print(f"canonical caps at delta = 2^-6: {len(caps)} members, "
      f"verified: {rep.ok}")
prof = overlap_profile(caps, n=64)
print(f"  overlap min..max = {prof.min}..{prof.max} (a partition)")

# --- the overlapping axis family -------------------------------------
# One layer of anisotropic boxes per dyadic aspect ratio.  The price of
# covering every orientation of flat box is log(1/delta) layers of
# overlap instead of one.
fam = hp_axis_family(delta)
prof = overlap_profile(fam, n=64)
print(f"axis family: {len(fam)} members, overlap {prof.min}..{prof.max}, "
      f"declared bound {fam.overlap_bound()}")

# --- adaptive cover for a perturbed phase ----------------------------
bumpy = BivariatePoly(3, {(1, 1): 1.0, (3, 0): 1e-31, (0, 3): -2e-31})
cov = build_cover_hp(bumpy, delta, a_const=4.0)
rep = verify_cover(cov, bumpy)
print(f"adaptive cover of a degree-3 perturbation: {len(cov)} members, "
      f"all flat: {rep.all_flat}, covers domain: {rep.covers_domain}")

# --- general construction, no normal form required -------------------
cubic = BivariatePoly(3, {(3, 0): 1.0, (0, 3): 1.0, (1, 1): 1.0})
delta_c = 2.0 ** -5
cov_c = build_cover_general(cubic, delta_c)
rep_c = verify_cover(cov_c, cubic, a_const=cov_c.a_const)
print(f"general cover of a mixed cubic at 2^-5: {len(cov_c)} members, "
      f"verified: {rep_c.ok}")

# --- frame-based family for a rotated saddle -------------------------
# xi1^2 - xi2^2 is the saddle in a 45-degree frame; the cover stores one
# frame and per-level grids, so even 10^5 members serialize in a few kB.
diag = BivariatePoly(2, {(2, 0): 1.0, (0, 2): -1.0})
cov_d = normal_axis_family(diag, 2.0 ** -8)
blob = json.dumps(cov_d.to_json_dict())
back = FlatCover.from_json_dict(json.loads(blob))
print(f"rotated-saddle family at 2^-8: {len(cov_d)} members, "
      f"JSON {len(blob)} bytes, round trip preserves count: "
      f"{len(back) == len(cov_d)}")
