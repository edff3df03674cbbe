"""Flat-box covers of polynomial graphs and exponential-sum experiments.

The package splits into small layers:

* ``poly2``     -- exact bivariate polynomial arithmetic
* ``geometry``  -- parallelograms, affine maps, tilings
* ``flatness``  -- flatness defects, null directions, candidate boxes
* ``cover``     -- cap families and the cover construction
* ``rescale``   -- parabolic rescaling of a box to unit scale
* ``norms``     -- exponential sums, L^p norms, decoupling ratios
* ``lattice``   -- arithmetic lattices, flat-set counts, Pell gaps
* ``cli``       -- command-line front end

``__all__`` lists what the command line and the demos use, plus the
independent references the tests check against (direct sampling of a
sum, scalar comparability, candidate boxes).  Every other name stays
importable from its own module.
"""

from .poly2 import BivariatePoly, elliptic_phase, hyperbolic_phase, perturbed_hyperbolic
from .geometry import Parallelogram, comparable, dilate
from .flatness import candidate_box, flat_defect, flat_defect_interval, is_flat
from .cover import (
    FlatCover,
    build_cover_general,
    build_cover_hp,
    canonical_caps,
    hp_axis_family,
    normal_axis_family,
    overlap_profile,
    verify_cover,
)
from .rescale import pullback_cover, rescale_phase, verify_coeff_bounds
from .norms import (
    bump_example,
    decoupling_report,
    line_example,
    lp_norm,
    random_product_example,
    sample_exp_sum,
    slope_fit,
    snap_lift,
    stein_tomas_ratio,
    strip_example,
)
from .lattice import discrete_restriction_ratio, lambda_grid, max_flat_multiplicity, pell_gap

__version__ = "0.1.0"

__all__ = [
    "BivariatePoly", "elliptic_phase", "hyperbolic_phase", "perturbed_hyperbolic",
    "Parallelogram", "comparable", "dilate",
    "candidate_box", "flat_defect", "flat_defect_interval", "is_flat",
    "FlatCover", "build_cover_general", "build_cover_hp", "canonical_caps",
    "hp_axis_family", "normal_axis_family", "overlap_profile", "verify_cover",
    "pullback_cover", "rescale_phase", "verify_coeff_bounds",
    "bump_example", "decoupling_report", "line_example", "lp_norm",
    "random_product_example", "sample_exp_sum", "slope_fit", "snap_lift",
    "stein_tomas_ratio", "strip_example",
    "discrete_restriction_ratio", "lambda_grid", "max_flat_multiplicity", "pell_gap",
]
