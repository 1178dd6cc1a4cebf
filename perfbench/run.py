"""latticeopt benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The seed fixes the problem files (see ``workloads.py``); each is drawn and
written under ``perfbench/out/`` just before its solve, outside the
solve's timing, driven through ``latticeopt.cli.main(argv)`` in this
process, one solve at a time, with no threads, and removed at the end (a
failed solve prints its problem text).

Times are process CPU seconds (``time.process_time``).  The library is
single-threaded pure Python and reads one small file per solve, so CPU
time is its solve time; wall time on a shared host also counts the time
other tenants hold the core, which is noise here, not work.  Even CPU
time varies with co-tenant load, so the end-to-end times are rescaled to
a fixed machine speed by a calibration kernel timed between solves (see
``calibrate.py``).  The raw CPU and wall figures are printed alongside.

``--trace 0`` measures end to end.  Seven fresh interpreters each import
``latticeopt.cli``, make the workload's warm-up solve and time the
calibration kernel (``setup_s`` is the median of their rescaled times).
The timed phase then solves instances in order, stopping at the first
class-cycle boundary after ``--seconds`` of wall time, so every run sees
whole cycles of the same class mix.  At most every ``CALIBRATE_EVERY``
wall seconds, after a solve, it times the kernel; each solve is rescaled
by the median of the ``CALIBRATE_NEAR`` kernel times nearest to it.

``--trace 1`` solves each instance of a fixed prefix of the draw twice,
untraced and with the outside-in tracer of ``tracer.py`` installed, in
alternating order so that drift in machine speed cancels out of the
tracing overhead.  It reports the ``per_layer`` metrics of
``BENCHMARK.json`` as means per solve; ``layers.json`` maps each to the
end-to-end metric and workload it should move.  The stdout of each
traced solve must equal the untraced one byte for byte.

Every answer is checked afterwards, outside the timed phase, by
``reference.py``.  A solve fails on a wrong answer, an unexpected exit
code or an uncaught exception.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 7
CALIBRATE_EVERY = 0.2
CALIBRATE_NEAR = 5
# the fixed prefix of the draw a traced run solves: two lattice cycles,
# forty fiber cycles
TRACE_SOLVES = {"lattice": 158, "fiber": 360}


def _solve(cli, inst, path):
    """One closed-loop call: (CPU seconds, exit code, stdout, exception)."""
    argv = [inst.argv[0], str(path), *inst.argv[1:]]
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.process_time()
        try:
            rc = cli.main(argv)
        except Exception as e:     # an uncaught exception is a failed solve
            rc, exc = None, f"{type(e).__name__}: {e}"
        seconds = time.process_time() - started
    return seconds, rc, out.getvalue(), exc


def _write(inst, folder: Path, i: int) -> Path:
    path = folder / f"{i:05d}.txt"
    path.write_text(inst.text, encoding="utf-8")
    return path


def _setup_seconds(warm, path, expected):
    """Median rescaled seconds of a fresh interpreter importing the CLI
    and making the warm-up solve; the probes must reproduce the
    in-process answer."""
    seconds = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
             warm.argv[0], str(path), *warm.argv[1:]],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
            check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        if (probe["rc"], probe["digest"]) != expected:
            raise RuntimeError("set-up probe disagrees with the in-process "
                               "warm-up solve")
        seconds.append(probe["seconds"] * calibrate.REFERENCE_S
                       / probe["kernel_s"])
    return statistics.median(seconds)


def _digest(outputs) -> str:
    h = hashlib.sha256()
    for rc, stdout in outputs:
        h.update(f"{rc}\n{stdout}\0".encode())
    return h.hexdigest()


def _check_all(instances, results, failed):
    """Reference-check each solve into `failed` (index -> reason) and
    return the instance mix: per class, solves, dimensions, point counts
    and median raw CPU seconds per solve."""
    started = time.perf_counter()
    mix = {}
    for i, (inst, (seconds, rc, stdout, exc)) in \
            enumerate(zip(instances, results)):
        if exc is not None:
            ok, msg, points = False, exc, 0
        else:
            ok, msg, points = reference.check(inst, rc, stdout)
        if not ok:
            failed[i] = f"{inst.cls}: {msg}"
        row = mix.setdefault(inst.cls, {"solves": 0, "dims": set(),
                                        "points": [], "seconds": []})
        row["solves"] += 1
        row["dims"].add(inst.dim)
        row["points"].append(points)
        row["seconds"].append(seconds)
    print(f"reference checks: {len(results)} in "
          f"{time.perf_counter() - started:.3f} s")
    return {cls: {"solves": row["solves"], "dims": sorted(row["dims"]),
                  "points": [min(row["points"]), max(row["points"])],
                  "median_s": round(statistics.median(row["seconds"]), 4)}
            for cls, row in sorted(mix.items())}


def _layer_metrics(tracer: Tracer, solves: int, overhead: float) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    mapped = json.loads((HERE / "layers.json").read_text())["per_layer"]
    if [entry["name"] for entry in spec] != list(mapped):
        raise RuntimeError("layers.json does not map the per_layer metrics "
                           "of BENCHMARK.json, in their order")
    out = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        key = name.rsplit(".", 1)[0]
        if name == "trace.overhead_share":
            value = overhead
        elif name == "genfunc.terms_per_piece":
            pieces = tracer.calls["genfunc.signed_decompose"]
            value = tracer.counts["genfunc.unimodular_terms"] / pieces \
                if pieces else 0.0
        elif name == "fptas.k":
            value = statistics.mean(tracer.k_values) \
                if tracer.k_values else 0.0
        elif name.endswith(".self_s"):
            value = tracer.self_s[key] / solves
        elif name.endswith(".calls"):
            value = tracer.calls[key] / solves
        else:
            value = tracer.counts[name] / solves
        out[name] = {"value": value, "unit": unit}
    return out


def _class_shares(instances, tracer: Tracer):
    """Per instance class, the three layers with the most self time and
    their shares of the class's traced self time."""
    by_class = {}
    for i, per_key in tracer.self_by_solve.items():
        total = by_class.setdefault(instances[i].cls, {})
        for key, seconds in per_key.items():
            total[key] = total.get(key, 0.0) + seconds
    lines = []
    for cls, total in sorted(by_class.items()):
        whole = sum(total.values())
        top = sorted(total.items(), key=lambda kv: -kv[1])[:3]
        lines.append(f"layer shares in {cls}: " + ", ".join(
            f"{key} {seconds / whole:.0%}" for key, seconds in top))
    return lines


def _timed_pass(cli, draws, folder, deadline, cycle):
    """Draw and solve instances in order, stopping at the first cycle
    boundary past `deadline` wall seconds.  Returns (instances, results,
    calibrations, wall seconds) of the pass; a calibration is (index of
    the solve it follows, kernel seconds)."""
    instances, results, calibrations = [], [], []
    wall = time.perf_counter()
    calibrated = None
    for i in itertools.count():
        if i % cycle == 0 and time.perf_counter() - wall >= deadline:
            break
        instances.append(next(draws))
        path = _write(instances[-1], folder, i)
        results.append(_solve(cli, instances[-1], path))
        if calibrated is None or \
                time.perf_counter() - calibrated >= CALIBRATE_EVERY:
            calibrations.append((i, calibrate.kernel_seconds()))
            calibrated = time.perf_counter()
    return instances, results, calibrations, time.perf_counter() - wall


def _rescaled(results, calibrations):
    """Each solve's CPU seconds at the reference machine speed, by the
    median of the CALIBRATE_NEAR kernel times nearest to it."""
    after = [i for i, _ in calibrations]
    out = []
    for i, (seconds, *_) in enumerate(results):
        lo = bisect.bisect_left(after, i) - CALIBRATE_NEAR // 2
        lo = max(0, min(lo, len(calibrations) - CALIBRATE_NEAR))
        near = statistics.median(
            kernel for _, kernel in calibrations[lo:lo + CALIBRATE_NEAR])
        out.append(seconds * calibrate.REFERENCE_S / near)
    return out


def _traced_pairs(cli, instances, folder, tracer):
    """Each instance untraced and traced, alternating which goes first.
    Returns (untraced results, traced results)."""
    plain, traced = [], []
    for i, inst in enumerate(instances):
        path = _write(inst, folder, i)
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(_solve(cli, inst, path))
                continue
            tracer.solve_id = i
            tracer.install()
            try:
                traced.append(_solve(cli, inst, path))
            finally:
                tracer.uninstall()
    return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latticeopt" / "cli.py").is_file():
        print(f"error: no latticeopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from latticeopt import cli

    name, seed = args.workload, args.seed
    cycle = len(workloads.CYCLES[name])
    draws = workloads.draw(name, seed)
    folder = OUT / f"{name}-seed{seed}-trace{args.trace}"
    if folder.exists():
        shutil.rmtree(folder)
    (folder / "instances").mkdir(parents=True)
    warm = workloads.warmup(name)
    warm_path = _write(warm, folder, 0)

    _, rc, stdout, exc = _solve(cli, warm, warm_path)
    failed = {}                  # timed instance index -> reason
    problems = []                # failures outside the timed instances
    if exc is not None or not reference.check(warm, rc, stdout)[0]:
        problems.append(f"warm-up solve failed: {exc or rc}")

    if args.trace:
        tracer = Tracer()
        instances = list(itertools.islice(draws, TRACE_SOLVES[name]))
        plain, traced = _traced_pairs(cli, instances, folder / "instances",
                                      tracer)
        tracer.write_spans(folder / "spans.tsv.gz")
        plain_cpu = sum(r[0] for r in plain)
        traced_cpu = sum(r[0] for r in traced)
        mix = _check_all(instances, plain, failed)
        for i, (a, b) in enumerate(zip(plain, traced)):
            if (a[1], a[2], a[3]) != (b[1], b[2], b[3]):
                failed.setdefault(i, "traced stdout differs")
        results = plain
        metrics = _layer_metrics(tracer, len(traced),
                                 traced_cpu / plain_cpu - 1)
        print(f"traced solves: {len(traced)}; CPU seconds untraced "
              f"{plain_cpu:.3f}, traced {traced_cpu:.3f}; "
              f"spans: {len(tracer.spans)}")
        print("\n".join(_class_shares(instances, tracer)))
    else:
        setup_s = _setup_seconds(warm, warm_path,
                                 (rc, hashlib.sha256(stdout.encode())
                                  .hexdigest()))
        instances, results, calibrations, wall = _timed_pass(
            cli, draws, folder / "instances", args.seconds, cycle)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        mix = _check_all(instances, results, failed)
        times = _rescaled(results, calibrations)
        cpu = sum(r[0] for r in results)
        attempted = len(results)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s.p50": {"value": statistics.median(times), "unit": "s"},
            "solve_s.p90": {"value": statistics.quantiles(times, n=10)[-1],
                            "unit": "s"},
            "solves_per_s": {"value": attempted / sum(times), "unit": "1/s"},
            "ok_share": {"value": (attempted - len(failed)) / attempted,
                         "unit": "share"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        kernel = [k for _, k in calibrations]
        print(f"timed solves: {attempted} ({attempted // cycle} cycles of "
              f"{cycle}) in {sum(times):.3f} s rescaled, {cpu:.3f} s CPU, "
              f"{wall:.3f} s wall; raw CPU p50 "
              f"{statistics.median(r[0] for r in results):.6f} s")
        print(f"calibrations: {len(kernel)}, kernel CPU seconds min "
              f"{min(kernel):.6f} median {statistics.median(kernel):.6f} "
              f"max {max(kernel):.6f} (reference {calibrate.REFERENCE_S})")

    attempted = len(results)
    prefix = min(attempted, TRACE_SOLVES[name])
    print(f"fail_share: {len(failed)}/{attempted} = "
          f"{len(failed) / attempted:.4f}")
    for i, reason in sorted(failed.items()):
        print(f"FAILED instance {i} ({instances[i].text!r}): {reason}")
    for reason in problems:
        print(f"FAILED {reason}")
    print(f"instance mix: {json.dumps(mix, sort_keys=True)}")
    print(f"stdout digest of the first {prefix} solves: "
          f"{_digest((r[1], r[2]) for r in results[:prefix])}")
    print(json.dumps({"correct": not failed and not problems,
                      "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    # the problem files can be drawn again from the seed; spans stay
    shutil.rmtree(folder / "instances")
    warm_path.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
