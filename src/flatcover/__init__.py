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
"""

from .poly2 import (
    BivariatePoly,
    compose_affine,
    elliptic_phase,
    hyperbolic_phase,
    perturbed_hyperbolic,
)
from .geometry import (
    AffineMap2,
    Parallelogram,
    comparable,
    dilate,
)
from .flatness import (
    FlatnessReport,
    NullDirections,
    candidate_box,
    flat_defect,
    flat_defect_interval,
    is_flat,
    null_directions,
)
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
from .rescale import RescaleResult, pullback_cover, rescale_phase, verify_coeff_bounds
from .norms import (
    DecoupleReport,
    ExpSum,
    GridField,
    NormReport,
    SweepReport,
    bump_example,
    decoupling_report,
    expsum_lp,
    line_example,
    lp_norm,
    product_exp_sum,
    random_product_example,
    sample_exp_sum,
    slope_fit,
    snap_lift,
    stein_tomas_ratio,
    strip_example,
)
from .lattice import (
    FrequencyLattice,
    discrete_restriction_ratio,
    lambda_grid,
    max_flat_multiplicity,
    pell_gap,
    points_in_flat_set,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
