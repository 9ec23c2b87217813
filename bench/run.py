"""Benchmark of the drtricks command line.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see BENCHMARK.json and bench/README.md) against the
drtricks sources in ``src/``, checks every command's outputs, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics from spans around every drtricks function.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 4    # set-up samples per untraced run; setup_s is their median
MIN_PASSES = 3      # passes per run even when --seconds is shorter
PROBE_TIMEOUT_S = 120
# Untraced runs time only these boundaries, for the training and inference
# throughputs; they cost a few hundred spans per pass.
LIGHT = ("models.fit", "ssl.pseudo_label", "ensemble.ensemble_predict")
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child_env() -> dict[str, str]:
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **THREAD_ENV)


def probe_setup(name: str, seed: int, directory: Path, session) -> float | None:
    """Time from spawning a fresh interpreter to its workload inputs being ready."""
    session.attempted += 1
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), name, str(seed),
                               str(directory)], cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    if proc is None or proc.returncode != 0:
        session.failed += 1
        detail = "timed out" if proc is None else f"exit {proc.returncode}: {proc.stderr[-2000:]}"
        session.errors.append(f"set-up probe {detail}")
        print(f"FAILED set-up probe: {detail}", file=sys.stderr)
        return None
    return float(proc.stdout.split()[-1]) - start


def run_pass(workload, session, tracer, dirs, seed: int, reference: dict) -> bool:
    """One pass of the workload's commands; outputs must match the first pass byte for byte."""
    from workloads import tree_digest

    shutil.rmtree(dirs.out, ignore_errors=True)
    for argv in workload.commands(dirs, seed):
        out = Path(argv[argv.index("--out") + 1])

        def check(command=argv[0], out=out):
            error = workload.check(command, dirs)
            if error is None:
                digest = tree_digest(out)
                if reference.setdefault(command, digest) != digest:
                    error = f"outputs under {out.name}/ differ from the first pass"
            return error

        if argv[0] == "predict":
            tracer.counters["predict_images"] += workload.n_dev
        if not session.run(tracer, argv, check):
            return False
    return True


def measure(workload, seed: int, seconds: float, trace: bool, work: Path,
            import_s: float, probes: int = SETUP_PROBES):
    """Set up, run passes for ``seconds`` and return (result, record), or None.

    With ``trace`` false the metrics are end to end, from untraced passes.
    With ``trace`` true, traced and untraced passes alternate; the traced
    ones give the per-layer metrics (set-up plus the median pass) and the
    ratio of their wall times gives the tracing overhead. Every set-up
    probe and pass is bracketed by calibration readings, and its times are
    scaled to the calibration speed (see calibration.py).
    """
    from calibration import reference_s, scale
    from spans import Tracer, busy, concat, layer_metrics, median_metrics, pass_wall
    from workloads import Dirs, Session

    session = Session()
    ref = reference_s()
    raw_setup, setup_times = [], []
    for i in range(0 if trace else probes):
        raw_setup.append(probe_setup(workload.name, seed, work / f"probe{i}", session))
        after = reference_s()
        if raw_setup[-1] is not None:
            setup_times.append(raw_setup[-1] * scale(ref, after))
        ref = after
    dirs = Dirs(work / "inputs", work / "out")
    dirs.inputs.mkdir(parents=True)
    with Tracer(only=None if trace else LIGHT) as tracer:
        ok = workload.setup(session, tracer, dirs, seed) and None not in raw_setup
    setup_spans = tracer.take()

    ref, first_ref = reference_s(), None
    passes, durations, reference = [], [], {}
    start = time.perf_counter()
    while ok:
        traced = trace and len(passes) % 2 == 1
        began = time.perf_counter()
        with Tracer(only=None if traced else LIGHT) as tracer:
            ok = run_pass(workload, session, tracer, dirs, seed, reference)
        if not ok:
            break
        after = reference_s()
        spans, counters = tracer.take()
        passes.append({"traced": traced, "spans": spans, "counters": counters,
                       "scale": scale(ref, after), "dev_score": workload.dev_score(dirs)})
        first_ref = first_ref or ref
        ref = after
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            break
    if len(passes) < (2 if trace else 1):
        return None

    plain = [p for p in passes if not p["traced"]]
    walls = [pass_wall(p["spans"]) * p["scale"] for p in plain]
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = median_metrics([
            {k: v * p["scale"] if k.endswith("_s") else v
             for k, v in layer_metrics(*concat(setup_spans, (p["spans"], p["counters"]))).items()}
            for p in traced])
        metrics["cli.import_s"] = import_s * scale(first_ref, first_ref)
        metrics["trace.overhead_ratio"] = statistics.median(
            pass_wall(p["spans"]) * p["scale"] for p in traced) / statistics.median(walls)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "train_image_epochs_per_s": statistics.median(
                p["counters"]["image_epochs"] / busy(p["spans"], {"models.fit"}) / p["scale"]
                for p in plain),
            "predict_images_per_s": inference_rate(plain, workload.predict_counter,
                                                   workload.predict_span),
            "dev_score": passes[0]["dev_score"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if setup_times:  # only tests run without set-up probes
            metrics["setup_s"] = statistics.median(setup_times)
    units = metric_units()
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "passes": len(passes), "errors": session.errors, "result": result,
              "raw_pass_walls_s": [pass_wall(p["spans"]) for p in passes],
              "pass_scales": [p["scale"] for p in passes],
              "raw_setup_s": raw_setup, "setup_samples_s": setup_times}
    if trace:
        record["trace_spans"] = concat(setup_spans, (traced[0]["spans"], traced[0]["counters"]))[0]
    return result, record


def inference_rate(passes, counter: str, span: str) -> float:
    """Median over every inference call of images per second (at calibration speed).

    Calls of one workload are alike (one `predict` per pass, one image per
    `ensemble_predict`, the whole pool per `pseudo_label`), so a call's
    image count is the pass's count over its number of calls.
    """
    rates = []
    for p in passes:
        calls = [s for s in p["spans"] if s[0] == span]
        images = p["counters"][counter] / len(calls)
        rates.extend(images / (end - start) / p["scale"] for _, start, end, _ in calls)
    return statistics.median(rates)


def metric_units() -> dict[str, str]:
    """Unit of every metric, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "drtricks").glob("*.py"))),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly (the checkout may not be a repository)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref.removeprefix("ref: ")
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(THREAD_ENV)  # before NumPy loads its BLAS

    if not (SRC / "drtricks" / "cli.py").is_file():
        print(f"error: drtricks sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import drtricks.cli
    import_s = time.perf_counter() - start
    if Path(drtricks.cli.__file__).resolve().parent != (SRC / "drtricks").resolve():
        print(f"error: imported drtricks from {drtricks.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        outcome = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                          work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if outcome is None:
        print("error: no pass of the workload completed", file=sys.stderr)
        return 1
    result, record = outcome
    record["environment"] = environment()
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n")
    print("environment: " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
