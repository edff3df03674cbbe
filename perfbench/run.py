"""flatcover benchmark: two seeded workloads, oracle-checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cover --seed 20261017 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # table of every workload

Each round of a workload runs in a fresh, single-threaded worker process:
the worker imports ``flatcover.cli``, builds the inputs from the seed,
signals "ready", then runs every operation once.  Rounds repeat for about
``--seconds`` (at least three).  The first worker also checks every output
against ``oracle`` after its round; later rounds must reproduce the first
round's outputs.  The lines before the last list every operation's status,
each operation group's time and the environment; the last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: the round's wall time with each operation at its fastest of
  the cold executions (one per round), i.e. the sum over operations of
  their minimum time.  On a shared host, whose speed drifts, the minimum
  over cold repeats is the steadiest estimate of the uncontended cost.
  The median round wall time is printed alongside.
* ``setup_s``: median over fresh processes of the time from spawn to
  inputs ready.
* ``peak_rss_mb``: largest peak resident memory of a worker, read before
  the reference computations start.

``--trace 1`` alternates two untraced and two traced workers and reports
the per-layer metrics listed in BENCHMARK.json (see README.md) from the
last traced round; spans go to ``.perfbench/trace-<workload>-<seed>.json``.

Failed operations are those whose output disagrees with the reference,
that raised, or whose output changed between rounds.  A wrong output equal
to the one pinned or modelled for a defect named in ``workloads`` counts in
``failed`` but does not make the run incorrect; any other failure sets
``correct`` to false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("cover", "norms")
DEFAULT_SEED = 20261017
HELD_OUT_SEED = 7331  # kept out of tuning; use it to confirm a claimed gain
SETUP_SAMPLES = 5
MIN_ROUNDS = 3  # the per-operation minimum needs a few cold samples
WORKER_TIMEOUT_S = 170
MAX_ROUNDS = 50
NPROC = os.cpu_count() or 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# One thread per BLAS/OpenMP pool, whatever the environment says, set
# before numpy loads; workers inherit it.  scipy.fft runs with its default
# single worker.
THREAD_ENV = {var: "1" for var in THREAD_VARS}
os.environ.update(THREAD_ENV)


def _require_source() -> None:
    if not (ROOT / "src" / "flatcover" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no flatcover sources under {ROOT / 'src'}\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


# -- worker: one fresh process, one round ---------------------------------------


def _plain(value):
    """JSON-ready copy of an operation summary (numpy scalars, tuples)."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):
        return value.item()
    return value


def worker(args) -> int:
    t0 = time.perf_counter()
    import flatcover.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads

    ops = workloads.build(args.workload, args.seed)
    print(json.dumps({"import_s": import_s, "ops": len(ops)}), flush=True)
    if args.probe:
        return 0
    tracer = None
    if args.trace:
        import tracer as tr

        tracer = tr.Tracer()
        tracer.install(tr.HOOKS)
    times, results, errors = [], [], []
    t_round = time.perf_counter()
    try:
        for op in ops:
            t_op = time.perf_counter()
            try:
                results.append(op.run())
                errors.append(None)
            except Exception as exc:  # an operation that raises counts as failed
                results.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - t_op)
    finally:
        wall = time.perf_counter() - t_round
        if tracer is not None:
            tracer.uninstall()
    out = {
        "wall_s": wall,
        "op_times": times,
        "errors": errors,
        "summaries": [None if e else _plain(op.summary(r))
                      for op, r, e in zip(ops, results, errors)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tr.layer_metrics(tracer)
        OUT.mkdir(exist_ok=True)
        span_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write_json(span_path, {"workload": args.workload, "seed": args.seed,
                                      "environment": _environment()})
        out["span_file"] = str(span_path.relative_to(ROOT))
    if args.check:
        checks = []
        for op, r, e in zip(ops, results, errors):
            if e is not None:
                checks.append(["error", e])
                continue
            try:
                checks.append(list(op.check(r)))
            except Exception as exc:
                checks.append(["error", f"check raised {type(exc).__name__}: {exc}"])
        out["checks"] = checks
        out["names"] = [op.name for op in ops]
        out["groups"] = [op.group for op in ops]
        out["known_defects"] = [op.known_defect for op in ops]
    print(json.dumps(out), flush=True)
    return 0


# -- parent: spawn workers, aggregate -------------------------------------------


def _spawn(args, *, trace=False, check=False, probe=False):
    """Run one worker; returns (setup seconds, ready record, round record)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if trace else "0"]
    if check:
        cmd.append("--check")
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=str(ROOT), text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker took longer than {WORKER_TIMEOUT_S} s")
    code = proc.returncode
    if code != 0 or not ready:
        raise RuntimeError(f"worker exited with code {code}")
    body = json.loads(rest.strip().splitlines()[-1]) if not probe else {}
    return setup_s, json.loads(ready), body


def _environment() -> dict:
    import numpy
    import scipy

    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flatcover").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": NPROC, "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16], "threads": THREAD_ENV,
        "machine": platform.machine(),
    }


def _rows(first: dict, rounds: list) -> list:
    """Per operation: status, detail, executions and failed executions.
    Status "known" is a wrong output equal to the one pinned or modelled
    for the operation's defect; "fail" is any other wrong output, an
    exception, or an output that changed between rounds."""
    rows = []
    for k, name in enumerate(first["names"]):
        status, detail = first["checks"][k]
        status = "fail" if status == "error" else status
        for rnd in rounds[1:]:
            err = rnd["errors"][k]
            if err is None and first["errors"][k] is None \
                    and rnd["summaries"][k] != first["summaries"][k]:
                err = "output differs from the first round"
            if err is not None:
                status, detail = "fail", f"{err}; {detail}"
                break
        rows.append({"op": name, "status": status, "detail": detail,
                     "executions": len(rounds),
                     "failed": len(rounds) if status in ("fail", "known") else 0,
                     "known_defect": first["known_defects"][k],
                     "group": first["groups"][k],
                     "times_s": [rnd["op_times"][k] for rnd in rounds]})
    return rows


def run_workload(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {e["name"]: e["unit"] for e in bench["end_to_end"] + bench["per_layer"]}
    setups, imports, rounds = [], [], []

    def spawn(**kw):
        setup_s, ready, body = _spawn(args, **kw)
        setups.append(setup_s)
        imports.append(ready["import_s"])
        return setup_s, ready, body

    setup_s, _, first = spawn(check=True)
    rounds.append(first)
    traced = []
    if args.trace:
        # alternate cold untraced and traced rounds; the overhead compares
        # per-operation minima of each kind
        traced.append(spawn(trace=True)[2])
        rounds.append(spawn()[2])
        traced.append(spawn(trace=True)[2])
        rounds += traced
    else:
        per_round = setup_s + first["wall_s"]
        wanted = max(MIN_ROUNDS, min(MAX_ROUNDS, int(args.seconds // per_round)))
        while len(rounds) < wanted:
            rounds.append(spawn()[2])
    while len(setups) < SETUP_SAMPLES:
        spawn(probe=True)

    rows = _rows(first, rounds)
    attempted = sum(r["executions"] for r in rows)
    failed = sum(r["failed"] for r in rows)
    known = [r for r in rows if r["status"] == "known"]
    unexpected = [r for r in rows if r["status"] == "fail"]
    unverified = [r for r in rows if r["status"] == "unverified"]
    plain = [r for r in rounds if not any(r is t for t in traced)]
    walls = [r["wall_s"] for r in plain]

    def fastest(runs, ks=range(len(rows))):
        return sum(min(r["op_times"][k] for r in runs) for k in ks)

    wall_s = fastest(plain)
    by_group = {}
    for k, row in enumerate(rows):
        by_group.setdefault(row["group"], []).append(k)
    group_wall_s = {g: fastest(plain, ks) for g, ks in by_group.items()}
    setup_s = statistics.median(setups)
    peak_rss_mb = max(r["peak_rss_mb"] for r in plain)
    env = _environment()

    if traced:
        metrics = dict(traced[-1]["layers"])
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["trace.overhead_s"] = fastest(traced) - wall_s
        names = [e["name"] for e in bench["per_layer"]]
    else:
        metrics = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        names = [e["name"] for e in bench["end_to_end"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")

    OUT.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "rounds": len(plain), "round_walls_s": walls, "setup_samples_s": setups,
              "group_wall_s": group_wall_s,
              "environment": env, "operations": rows,
              "metrics": {n: metrics[n] for n in names}}
    if traced:
        detail["span_file"] = traced[-1]["span_file"]
        detail["traced_round_walls_s"] = [t["wall_s"] for t in traced]
        detail["layers_not_exercised"] = sorted(
            n for n in names if n.endswith(".calls") and metrics[n] == 0)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(plain)}  operations {len(rows)}")
    for r in rows:
        flag = {"ok": "ok  ", "fail": "FAIL", "known": "FAIL",
                "unverified": "unv "}[r["status"]]
        note = f"  [known: {r['known_defect']}]" if r in known else ""
        print(f"  {flag} {r['op']}: {r['detail']}{note}")
    print(f"  wall_s {wall_s:.4f} s (sum of per-operation minima over {len(plain)} "
          f"rounds; round wall median {statistics.median(walls):.4f} s, "
          f"max {max(walls):.4f} s)")
    print("  groups: " + ", ".join(f"{g} {t:.4f} s" for g, t in group_wall_s.items())
          + " (sum of per-operation minima; not bounded)")
    print(f"  setup_s {setup_s:.4f} s (median of {len(setups)} fresh processes)")
    print(f"  peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"  fail_frac {failed / attempted:.4f} ({failed} of {attempted} operations; "
          f"{len(known)} known defects, {len(unverified)} unverified)")
    if traced:
        print(f"  trace: {metrics['trace.spans']:.0f} spans in {detail['span_file']}; "
              f"overhead {metrics['trace.overhead_s']:.3f} s (per-operation minima of "
              f"{len(traced)} traced vs {len(plain)} untraced cold rounds)")
        print(f"  layers not exercised here: {', '.join(detail['layers_not_exercised']) or 'none'}")
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        rows.append((name, json.loads(lines[-1])))
    print(f"{'workload':<15}{'wall_s (s)':>12}{'setup_s (s)':>13}{'peak_rss_mb (MB)':>18}"
          f"{'fail_frac':>11}  failed/attempted  correct")
    for name, res in rows:
        m = res["metrics"]
        print(f"{name:<15}{m['wall_s']['value']:>12.4f}{m['setup_s']['value']:>13.4f}"
              f"{m['peak_rss_mb']['value']:>18.1f}{res['failed'] / res['attempted']:>11.4f}"
              f"  {res['failed']:>6}/{res['attempted']:<9}  {res['correct']}")
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is "
                         "held out for confirming a claimed gain)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _require_source()
    if args.worker:
        if args.workload == "all":
            ap.error("a worker runs one workload")
        return worker(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
