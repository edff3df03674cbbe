import json
import math
import re

import numpy as np
import pytest

from flatcover import cli
from flatcover.cover import FlatCover
from flatcover.lattice import pell_convergents


def _reject_constant(name):
    raise ValueError(f"stdout is not strict JSON: it holds {name}")


def run(capsys, *argv):
    """Run the CLI; a stdout that is JSON must be strict JSON."""
    code = cli.main(list(argv))
    out = capsys.readouterr()
    if out.out.lstrip().startswith(("{", "[")):
        json.loads(out.out, parse_constant=_reject_constant)
    return code, out.out, out.err


def test_parse_helpers():
    assert cli._parse_dyadic("2^-6") == 2.0 ** -6
    assert cli._parse_dyadic("2**-6") == 2.0 ** -6
    assert cli._parse_dyadic("0.125") == 0.125
    with pytest.raises(ValueError):
        cli._parse_dyadic("two")
    assert cli._parse_delta_list("2^-4..2^-6") == [2.0 ** -4, 2.0 ** -5, 2.0 ** -6]
    assert cli._parse_delta_list("2^-4,2^-8") == [2.0 ** -4, 2.0 ** -8]
    assert cli._parse_alpha("sqrt2") == pytest.approx(math.sqrt(2.0))
    assert cli._parse_alpha("3/2") == pytest.approx(1.5)
    assert cli._parse_alpha("1.25") == 1.25


def test_cover_build_verify_round_trip(tmp_path, capsys):
    cov_path = tmp_path / "caps.json"
    code, out, _ = run(capsys, "cover", "build", "--kind", "caps",
                       "--delta", "2^-4", "--out", str(cov_path))
    assert code == 0
    cov = FlatCover.from_json_dict(json.loads(cov_path.read_text()))
    assert len(cov) == 16

    code, out, _ = run(capsys, "cover", "verify", "--cover", str(cov_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["members"] == 16


def test_cover_verify_failure_exits_2(tmp_path, capsys):
    cov_path = tmp_path / "caps.json"
    run(capsys, "cover", "build", "--kind", "caps", "--delta", "2^-4",
        "--out", str(cov_path))
    # certify against a much steeper phase: flatness must fail
    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps({"degree": 2, "coeffs": [[1, 1, 64.0]]}))
    code, out, _ = run(capsys, "cover", "verify", "--cover", str(cov_path),
                       "--phase", str(steep))
    assert code == 2
    assert json.loads(out)["all_flat"] is False


def test_cover_verify_rejects_too_few_samples(tmp_path, capsys):
    """--samples below 64 exits 1 naming the value, as overlap_profile
    does, instead of verifying at 64 samples."""
    cov_path = tmp_path / "caps.json"
    run(capsys, "cover", "build", "--kind", "caps", "--delta", "2^-4",
        "--out", str(cov_path))
    for n in ("-5", "0", "63"):
        code, out, err = run(capsys, "cover", "verify", "--cover", str(cov_path),
                             "--samples", n)
        assert code == 1 and out == ""
        assert f"got {n}" in err
    code, _, _ = run(capsys, "cover", "verify", "--cover", str(cov_path), "--samples", "64")
    assert code == 0


def test_flat_defect_reports_known_value(capsys):
    code, out, _ = run(capsys, "flat", "defect", "--rect",
                       "0", "0", "0.25", "0.25")
    assert code == 0
    rep = json.loads(out)
    assert rep["defect"] == pytest.approx(0.0625)
    assert rep["certified"] is True

    code, out, _ = run(capsys, "flat", "defect", "--rect",
                       "0", "0", "0.25", "0.25", "--delta", "2^-4")
    rep = json.loads(out)
    assert rep["is_flat"] is True


def test_flat_defect_requires_a_box(capsys):
    code, _, err = run(capsys, "flat", "defect")
    assert code == 1


def test_decouple_ratio_line_closed_form(capsys):
    code, out, _ = run(capsys, "decouple", "ratio", "--example", "line",
                       "--delta", "2^-6", "--p", "4", "--cover-kind", "caps")
    assert code == 0
    rep = json.loads(out)
    n = 8
    energy = (2 * n ** 3 + n) / 3.0
    assert rep["exact"] is True
    assert rep["members_used"] == n
    assert rep["ratio"] == pytest.approx((energy / n ** 2) ** 0.25, rel=1e-10)
    # each cap holds one frequency
    assert rep["methods"] == {"single": n, "parseval": 0, "separable": 0, "energy": 0,
                              "pairs": 0, "fft": 0, "riemann": 0, "lattice-max": 0}


def test_decouple_sweep_writes_deterministic_csv(tmp_path, capsys):
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    args = ("decouple", "sweep", "--example", "line", "--deltas", "2^-4..2^-7",
            "--p", "4", "--cover-kind", "caps")
    code, out, _ = run(capsys, *args, "--csv", str(csv1))
    assert code == 0
    rep = json.loads(out)
    assert len(rep["points"]) == 4
    assert rep["slope"] > 0
    run(capsys, *args, "--csv", str(csv2))
    assert csv1.read_bytes() == csv2.read_bytes()
    header = csv1.read_text().splitlines()[0]
    assert header == "delta,ratio,lhs,rhs,members,exact"
    assert len(csv1.read_text().splitlines()) == 5


@pytest.mark.parametrize("command, deltas", [("ratio", ("--delta", "2^-4")),
                                             ("sweep", ("--deltas", "2^-3..2^-6"))])
def test_decouple_sup_norm_prints_strict_json(capsys, command, deltas):
    code, out, _ = run(capsys, "decouple", command, "--example", "line", "--p", "inf", *deltas)
    assert code == 0
    assert json.loads(out)["p"] == "inf"


def test_non_finite_report_values_are_refused():
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._emit_json({"ratio": math.nan}, None)


def test_decouple_sweep_needs_enough_points(capsys):
    code, _, err = run(capsys, "decouple", "sweep", "--example", "line",
                       "--deltas", "2^-4..2^-6", "--p", "4")
    assert code == 1


def test_decouple_hp_cover_follows_the_sum_phase(capsys):
    # the bump sum lives on the elliptic phase, which has no hp cover
    code, _, err = run(capsys, "decouple", "ratio", "--example", "bump",
                       "--delta", "2^-4", "--cover-kind", "hp")
    assert code == 1
    assert "normal form" in err


def test_rescale_check_command(capsys):
    code, out, _ = run(capsys, "rescale", "check", "--delta", "2^-6",
                       "--count", "10", "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["worst_identity_gap"] < 1e-9


@pytest.mark.parametrize("a_const", ["8", "16"])
def test_rescale_check_uses_the_cover_constant(capsys, a_const):
    # members of a cover built at A are flat at A*delta, not at 4*delta
    code, out, err = run(capsys, "rescale", "check", "--delta", "2^-6",
                         "--count", "20", "--a-const", a_const)
    assert code == 0, err
    assert json.loads(out)["ok"] is True


def test_lattice_count_against_library(tmp_path, capsys):
    code, out, _ = run(capsys, "lattice", "count", "--phase", "saddle-diag",
                       "--alpha", "sqrt2", "--delta", "2^-4", "--d", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["max"] <= 3
    assert rep["points"] == 17 * 12
    assert sum(rep["histogram"].values()) == rep["members"]


def test_lattice_pell_csv(tmp_path, capsys):
    csv_path = tmp_path / "pell.csv"
    code, out, _ = run(capsys, "lattice", "pell", "--bmax", "1000",
                       "--eps", "0.1", "--csv", str(csv_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["min_product"] > 0.2
    assert rep["argmin_b"] >= 1
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "b,a,gap,product"
    bs = [int(r.split(",")[0]) for r in rows[1:]]
    assert bs == [b for _, b in pell_convergents(1000)]


def test_reproduce_list_names_all_recipes(capsys):
    code, out, _ = run(capsys, "reproduce", "--list")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 10
    assert any("flat-closed-form" in l for l in lines)


def test_reproduce_quick_recipe_passes(capsys):
    code, out, _ = run(capsys, "reproduce", "flat-closed-form", "--quick")
    assert code == 0
    assert "FAIL" not in out
    lines = out.splitlines()
    checks = cli.run_recipe("flat-closed-form", quick=True)
    # one PASS line per check, then the summary with the recipe's wall time
    assert lines[:-1] == [f"PASS  {name}: {detail}" for name, _, detail in checks]
    assert re.fullmatch(rf"flat-closed-form: {len(checks)}/{len(checks)} checks passed "
                        r"in \d+\.\d s", lines[-1])


@pytest.mark.parametrize("recipe_id", sorted(cli.RECIPES))
def test_every_quick_recipe_passes(recipe_id):
    """--quick promises the full run's expectations at reduced cost."""
    checks = cli.run_recipe(recipe_id, quick=True)
    assert checks
    failed = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    assert not failed, "; ".join(failed)


def test_reproduce_unknown_recipe(capsys):
    code, _, err = run(capsys, "reproduce", "nope")
    assert code == 1
    assert "unknown recipe" in err


def test_malformed_cover_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "cover", "verify", "--cover", str(bad))
    assert code == 1
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "cover", "verify", "--cover", str(missing))
    assert code == 1
    # an infinite A would certify any member and any overlap
    cov = tmp_path / "caps.json"
    run(capsys, "cover", "build", "--kind", "caps", "--delta", "2^-4", "--out", str(cov))
    rec = json.loads(cov.read_text())
    rec["A"] = math.inf
    cov.write_text(json.dumps(rec))
    code, _, err = run(capsys, "cover", "verify", "--cover", str(cov))
    assert code == 1
    assert "A must be finite and positive" in err


def test_usage_errors_exit_1(capsys, tmp_path):
    steep = tmp_path / "steep_bowl.json"  # 1e12 (x^2 + y^2)
    steep.write_text(json.dumps({"degree": 2, "coeffs": [[2, 0, 1e12], [0, 2, 1e12]]}))
    assert cli.main(["cover", "build"]) == 1  # missing --delta
    assert cli.main(["decouple", "ratio", "--example", "line"]) == 1
    assert cli.main(["nosuchcommand"]) == 1
    for argv, message in (
        (["lattice", "count", "--delta", "0", "--alpha", "sqrt2"], "delta must lie in"),
        (["lattice", "count", "--delta", "2^-4", "--alpha", "1/0"], "zero denominator"),
        (["decouple", "sweep", "--example", "line", "--deltas", "2^-4,2^-4,2^-4,2^-4"],
         "4 distinct delta values"),
        (["rescale", "check", "--delta", "2^-4", "--count", "0"],
         "member count must be at least 1"),
        (["rescale", "check", "--delta", "2^-4", "--count", "-3"],
         "member count must be at least 1"),
        (["flat", "defect", "--rect", "0", "0", "0.25", "0.25", "--m", "0",
          "--method", "sample"], "m must be at least 2"),
        *((["flat", "defect", "--rect", "0", "0", "0.25", "0.25", "--delta", "2^-4",
            "--a-const", a], "A must be finite and positive") for a in ("nan", "-2", "inf")),
        (["flat", "defect", "--rect", "0", "0", "0.25", "0.25", "--delta", "nan"],
         "delta must be positive"),
        *((["decouple", "ratio", "--example", "bump", "--delta", "2^-4", "--box-side", b],
           "box side must be finite and positive") for b in ("nan", "inf")),
        (["decouple", "ratio", "--example", "bump", "--delta", "2^-4", "--p", "nan"],
         "p must be at least 1"),
        *((["decouple", "ratio", "--example", ex, "--delta", "nan"], "delta must lie in")
          for ex in ("bump", "random", "line", "strip")),
        *((["decouple", "ratio", "--example", "bump", "--delta", "2^-4", "--assign-tol", t],
           "tol must be finite") for t in ("nan", "inf")),
        (["decouple", "ratio", "--example", "line", "--p", "4", "--delta", "2^-4",
          "--assign-tol", "-1"], "tol must be finite and non-negative, got -1.0"),
        (["decouple", "sweep", "--example", "line", "--deltas", "2^-4..2^-7",
          "--assign-tol", "-1"], "tol must be finite and non-negative, got -1.0"),
        *((["lattice", "count", "--delta", "2^-4", "--alpha", "sqrt2", "--tol", t],
           "tol must be finite and non-negative") for t in ("nan", "inf")),
        *((["rescale", "check", "--delta", "2^-4", "--tol", t],
           "tol must be finite and non-negative") for t in ("nan", "-1")),
        *((["decouple", "sweep", "--example", "line", "--deltas", d], message)
          for d, message in (("nan..2^-4", "delta must lie in"), ("0..2^-4", "delta must lie in"),
                             ("0.3..2^-4", "1/delta must be a power of two"))),
        (["lattice", "pell", "--bmax", "10", "--eps", "nan"], "eps must be finite, got nan"),
        (["rescale", "check", "--delta", "2^-4", "--count", "3", "--factor", "nan"],
         "factor must be finite and positive, got nan"),
        (["flat", "defect", "--rot", "0.5", "0.5", "0", "0", "nan"],
         "box must be finite, got center (0.5, 0.5) and half-edges (nan, nan)"),
        (["flat", "defect", "--rect", "0", "0", "nan", "1"],
         "box must be finite, got center (nan, 0.5)"),
        (["lattice", "count", "--alpha", "nan", "--delta", "2^-4"],
         "alpha must be finite and positive, got nan"),
        (["lattice", "count", "--alpha", "1e-300", "--delta", "2^-3"],
         "the lattice has 7.2e+301 points"),
        *((["lattice", "count", "--delta", "2^-4", "--alpha", "sqrt2", *cover, "--d", d],
           "d must be at least 1") for d in ("0", "-1") for cover in ([], ["--cover", "x.json"])),
        *((["cover", "build", f"--delta={d}"], f"{d} has no finite real float value")
          for d in ("2^2000", "-2^0.5", "0^-1")),
        (["decouple", "ratio", "--example", "line", "--delta", "2^-4", "--box-side", "2^5000"],
         "2^5000 has no finite real float value"),
        (["cover", "build", "--kind", "general", "--phase", str(steep), "--delta", "2^-8"],
         "the phase is too steep for delta=0.00390625"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == "", argv
        assert message in err, argv


def test_steep_degenerate_phase_exits_1_before_bisecting(capsys, tmp_path, time_limit):
    """1e12 x^2 at 2^-8 takes the rotation route with some 4 million flat
    strips: the strip split refuses it before bisecting a strip, so the
    build exits 1 in well under a second rather than after 100,000
    bisected strips (380 s before)."""
    steep = tmp_path / "steep_x2.json"
    steep.write_text(json.dumps({"degree": 2, "coeffs": [[2, 0, 1e12]]}))
    with time_limit(10):
        code, out, err = run(capsys, "cover", "build", "--kind", "general", "--phase",
                             str(steep), "--delta", "2^-8")
    assert (code, out) == (1, "")
    assert "strip split needs more than 100000 strips: the phase is too steep" in err


@pytest.mark.parametrize("argv, message", [
    (["--example", "line", "--a-const", "nan"], "A must be finite and positive, got nan"),
    (["--example", "random", "--a-const", "-5"], "A must be finite and positive, got -5"),
    (["--example", "random", "--a-const", "0"], "A must be finite and positive, got 0"),
    (["--example", "line", "--a-const", "four"], "A must be a number, got 'four'"),
    (["--example", "random", "--region", "0", "0", "nan", "1"],
     "region coordinates must be finite, got nan"),
    (["--example", "bump", "--region", "0", "0", "inf", "1"],
     "region coordinates must be finite, got inf"),
])
@pytest.mark.parametrize("command", ["ratio", "sweep"])
def test_decouple_refuses_bad_a_const_and_region(capsys, command, argv, message):
    """--a-const is finite and positive and --region finite on every
    example, also where the value would go unread."""
    scale = ["--delta", "2^-4"] if command == "ratio" else ["--deltas", "2^-3..2^-5"]
    code, out, err = run(capsys, "decouple", command, *argv, *scale)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ["rescale", "check", "--delta", "2^-4", "--a-const", "nan"],
    ["flat", "defect", "--rect", "0", "0", "0.25", "0.25", "--a-const", "-1"],
    ["cover", "build", "--kind", "caps", "--delta", "2^-4", "--a-const", "inf"],
])
def test_every_a_const_is_checked_by_the_parser(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "argument --a-const: A must be finite and positive" in err


def test_lattice_count_refuses_a_cover_too_fine_to_index(capsys):
    """At d = 100 the default cover's tilings have ~1e120 cells: a message,
    not an overflow traceback."""
    code, out, err = run(capsys, "lattice", "count", "--alpha", "sqrt2", "--delta", "2^-4",
                         "--d", "100")
    assert code == 1
    assert out == ""
    assert "cannot be indexed in int64" in err
    assert "Traceback" not in err


def test_lattice_count_at_a_tol_many_rows_wide(capsys, time_limit):
    """At tol 2 every tile of the 2^-4 axis family is within reach of every
    point, some 5,800 rows on the thinnest tilings: the point lookup lists
    each point's candidates directly (11.2 s in an offset loop before)."""
    with time_limit(10):
        code, out, err = run(capsys, "lattice", "count", "--alpha", "sqrt2", "--delta", "2^-4",
                             "--tol", "2")
    assert code == 0, err
    rep = json.loads(out)
    assert (rep["max"], rep["histogram"]) == (1, {"0": 95196, "1": 21869})
    assert (rep["members"], rep["points"]) == (117065, 204)


@pytest.mark.parametrize("p", ["1e308", "1000"])
def test_decouple_refuses_a_p_past_the_float_range(capsys, p):
    """The random example's weights have l1 norm ~402: |f|^p may overflow
    at these p, so the engine refuses before it sizes a lattice (an
    OverflowError traceback at 1e308, an inf report at 1000 before)."""
    code, out, err = run(capsys, "decouple", "ratio", "--example", "random", "--p", p,
                         "--delta", "2^-4")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert "is past the float range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("a_const", ["0", "-3", "nan", "inf"])
@pytest.mark.parametrize("kind", ["hp", "general"])
def test_cover_build_rejects_bad_a_const(tmp_path, capsys, kind, a_const):
    out = tmp_path / "cover.json"
    code, _, err = run(capsys, "cover", "build", "--kind", kind, "--phase",
                       "xy" if kind == "hp" else "elliptic", "--delta", "2^-4",
                       "--a-const", a_const, "--out", str(out))
    assert code == 1
    assert "A must be finite and positive" in err
    assert not out.exists()
