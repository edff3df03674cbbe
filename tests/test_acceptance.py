"""End-to-end acceptance checks, one test per shipped guarantee.

Each test drives a named recipe from ``flatcover.cli`` at full size (the
same recipes ``flatcover reproduce`` runs) and fails if any of its checks
fail or if it blows the wall-clock budget the recipe is sold with.  Run
with ``-s`` to see the per-check detail lines even on success.
"""

import time

from flatcover.cli import run_recipe


def _run(recipe_id: str, budget_s: float) -> None:
    t0 = time.perf_counter()
    checks = run_recipe(recipe_id)
    elapsed = time.perf_counter() - t0
    print()
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    print(f"elapsed {elapsed:.1f}s (budget {budget_s:g}s)")
    bad = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    assert not bad, "; ".join(bad)
    assert elapsed <= budget_s, f"took {elapsed:.1f}s, budget {budget_s:g}s"


def test_criterion_01_flat_defect_closed_form():
    _run("flat-closed-form", 5.0)


def test_criterion_02_caps_are_flat():
    _run("caps-flat", 30.0)


def test_criterion_03_cover_overlap_logarithmic():
    _run("overlap-log", 30.0)


def test_criterion_04_line_decoupling_slope_p4():
    _run("line-slope-p4", 30.0)


def test_criterion_05_bump_decoupling_slope_p6():
    _run("bump-slope-p6", 60.0)


def test_criterion_06_rescaling_identity():
    _run("rescale-identity", 60.0)


def test_criterion_07_lattice_multiplicity_contrast():
    _run("pell-multiplicity", 60.0)


def test_criterion_08_discrete_restriction_slope():
    _run("restriction-slope", 60.0)


def test_criterion_09_weighted_restriction_slope():
    _run("stein-tomas", 30.0)


def test_criterion_10_partition_vs_overlap_contrast():
    _run("partition-contrast", 60.0)
