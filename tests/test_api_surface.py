"""``flatcover.__all__`` carries what the command line and the demos
import, plus the independent references the tests check against.  A name
exported for neither would let the public surface grow unnoticed."""

import ast
from pathlib import Path

import flatcover

ROOT = Path(__file__).resolve().parents[1]

# Independent references: direct sampling of a sum and its Riemann norm,
# and the scalar comparability rule the vectorized cover keep is checked
# against.  ``candidate_box`` and ``flat_defect`` are also read by demos.
ORACLES = {"sample_exp_sum", "lp_norm", "comparable", "dilate", "candidate_box"}

EXPORTED = [
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


def entry_point_imports():
    """Names imported by ``from ... import`` in cli.py and the demos."""
    names = set()
    for path in [ROOT / "src" / "flatcover" / "cli.py", *sorted((ROOT / "demos").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_all_is_pinned():
    assert sorted(flatcover.__all__) == sorted(EXPORTED)
    assert len(flatcover.__all__) == len(set(flatcover.__all__))


def test_every_export_has_a_reader():
    readers = entry_point_imports() | ORACLES
    assert sorted(set(flatcover.__all__) - readers) == []


def test_every_export_resolves():
    for name in flatcover.__all__:
        assert hasattr(flatcover, name), name
