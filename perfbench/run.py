#!/usr/bin/env python3
"""Benchmark of the svamsim simulator.

    python3 perfbench/run.py --workload {align,hiepm,crb} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed. The run is closed-loop, single-process and
single-threaded: BLAS is pinned to one thread before numpy loads.

1. Set-up: ``SETUP_PROBES`` fresh interpreters each import the package and
   build the workload's inputs; ``setup_s`` is the median time from spawning
   one to its first timed unit.
2. Timed loop: repetitions of the workload (each from a cold beam-design
   cache) until another one would overrun ``--seconds``. With ``--trace 1``
   untraced and traced repetitions alternate, and the traced ones give the
   per-layer split and the tracing overhead. Throughput is scaled to a
   nominal host speed by a reference kernel timed between repetitions.
3. Every repetition's CSV bytes are checked: row layout and value ranges
   always, the SHA-256 digest against ``digests.json`` when the seed is
   recorded there, and identity with the run's first repetition.

The last line of standard output is the JSON result; the lines before it
describe the machine and the run. A fuller record goes to
``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

import os

# One BLAS thread: the 64-tap products of the hiepm baseline otherwise split
# across cores and the process burns twice its wall time in CPU, with
# throughput swinging with whatever else the machine runs. Set before numpy
# is imported here or in any set-up probe (they inherit the environment).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3
MIN_CYCLES = 2
PROBE_TIMEOUT_S = 60
# The host's speed drifts by tens of percent over seconds (its cores are
# shared), far more than the changes the benchmark must resolve.
# reference_kernel() does fixed work that never touches svamsim. It is timed
# between repetitions; a repetition's host speed is the mean of the samples
# that bracket it and its SPEED_NEIGHBOURS neighbours on each side, which
# averages out the kernel's own jitter but follows the drift. Throughput is
# quoted at the speed where the kernel takes REFERENCE_NOMINAL_S.
REFERENCE_NOMINAL_S = 0.05
SPEED_NEIGHBOURS = 3


def _load_package():
    """Import svamsim from this checkout's src/, never from elsewhere."""
    if not (SRC / "svamsim" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {SRC / 'svamsim'}")
    sys.path.insert(0, str(SRC))
    import svamsim

    if Path(svamsim.__file__).resolve().parent != (SRC / "svamsim").resolve():
        raise SystemExit(f"benchmark: imported svamsim from {svamsim.__file__}")


def _setup_probe(workload: str, seed: int) -> None:
    """Child process: import, build the inputs, report when ready."""
    start = time.perf_counter()
    _load_package()
    import workloads

    imported = time.perf_counter()
    workloads.WORKLOADS[workload](seed)
    ready = time.perf_counter()
    print(json.dumps({
        "ready_wall": time.time(),
        "import_s": imported - start,
        "inputs_s": ready - imported,
    }))


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Time SETUP_PROBES fresh set-ups."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
        spawned = time.time()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("benchmark: set-up probe failed")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report.pop("ready_wall") - spawned
        samples.append(report)
    return samples


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": _git_sha(),
    }


def reference_kernel() -> float:
    """Wall time of fixed work shaped like the simulator's inner loop: small
    complex numpy vectors, scalar reductions and Python bookkeeping."""
    import numpy as np

    rng = np.random.default_rng(12345)
    w = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    k = np.arange(64)
    acc = 0.0
    start = time.perf_counter()
    for i in range(5000):
        u = (i % 64) / 64.0
        x = np.exp(1j * np.pi * u * k)
        acc += abs(complex(np.vdot(w, x)))
        acc += float((np.abs(x[: 1 + i % 63]) ** 2).sum()) / (1 + i)
        acc += {"i": i, "u": u}["u"]
    return time.perf_counter() - start


def at_nominal_speed(seconds: float, reference_s: float) -> float:
    return seconds * REFERENCE_NOMINAL_S / reference_s


def _digest(blobs: list[bytes]) -> str:
    sha = hashlib.sha256()
    for blob in blobs:
        sha.update(len(blob).to_bytes(8, "little"))
        sha.update(blob)
    return sha.hexdigest()


def recorded_digest(wl) -> str | None:
    """Digest recorded for this workload and seed at its default size."""
    if not wl.default_size:
        return None
    table = json.loads((BENCH_DIR / "digests.json").read_text())[wl.name]
    return table.get(str(wl.seed) if wl.seeded else "*")


def run_rep(wl, out_dir: Path, tracer=None) -> dict:
    """One repetition from a cold cache: time it, then check its output."""
    import workloads

    workloads.clear_caches()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    cpu0, t0 = time.process_time(), time.perf_counter()
    paths, problems = [], []
    try:
        if tracer is None:
            paths = wl.run(out_dir)
        else:
            paths = tracer.span(tracing.ROOT_LAYER, wl.run, out_dir)
    except Exception:
        problems.append(traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    rep = {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu}
    if tracer is not None:
        tracer.uninstall()
        rep["stats"] = tracer.snapshot()
        rep["stats"]["missing_targets"] = tracer.missing
    if not problems:
        blobs = [p.read_bytes() for p in paths]
        rep["digest"] = _digest(blobs)
        problems.extend(wl.check(blobs))
    rep["problems"] = problems
    return rep


def timed_loop(wl, seconds: float, trace: bool, out_dir: Path) -> list[dict]:
    modes = (None, tracing.Tracer()) if trace else (None,)
    reps, cycles = [], []
    deadline = time.perf_counter() + seconds
    refs = [reference_kernel()]  # refs[i] and refs[i + 1] bracket reps[i]
    while True:
        start = time.perf_counter()
        for mode in modes:
            reps.append(run_rep(wl, out_dir, mode))
            refs.append(reference_kernel())
        cycles.append(time.perf_counter() - start)
        if len(cycles) >= MIN_CYCLES and (
            time.perf_counter() + statistics.median(cycles) > deadline
        ):
            break
    k = SPEED_NEIGHBOURS
    for i, rep in enumerate(reps):
        rep["reference_s"] = statistics.fmean(refs[max(0, i - k) : i + k + 2])
    return reps


def cross_check(wl, reps: list[dict]) -> None:
    """Output and exact counters must repeat across repetitions."""
    want = recorded_digest(wl)
    first = next((r["digest"] for r in reps if "digest" in r), None)
    counters = None
    for rep in reps:
        if "digest" in rep:
            if want is not None and rep["digest"] != want:
                rep["problems"].append(
                    f"output digest {rep['digest']} != recorded {want}"
                )
            elif rep["digest"] != first:
                rep["problems"].append("output differs from the first repetition")
        if "stats" in rep:
            mine = exact_counters(rep["stats"])
            if counters is None:
                counters = mine
            elif mine != counters:
                rep["problems"].append(f"exact counters {mine} != {counters}")


def exact_counters(stats: dict) -> dict:
    return {
        **{f"{k}.calls": v for k, v in sorted(stats["calls"].items())},
        "design_distinct": stats["design_distinct"],
        "design_fallbacks": stats["design_fallbacks"],
    }


def _median_setup(setups: list[dict], key: str, reps: list[dict]) -> float:
    """Median set-up time at the nominal host speed. Start-up (loading and
    unmarshalling modules) follows the kernel only loosely from one probe to
    the next, so it is scaled by the run's median reference time, which still
    follows the host's drift from one run to the next."""
    speed = statistics.median(r["reference_s"] for r in reps)
    return at_nominal_speed(statistics.median(s[key] for s in setups), speed)


def end_to_end_metrics(wl, reps, setups) -> dict:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = [r for r in reps if not r["traced"]]
    return {
        "units_per_s": (
            statistics.median(
                wl.units / at_nominal_speed(r["wall_s"], r["reference_s"]) for r in plain
            ),
            "1/s",
        ),
        "setup_s": (_median_setup(setups, "setup_s", reps), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def per_layer_metrics(wl, reps, setups) -> dict:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    out = {}
    for layer in tracing.LAYERS:
        self_s = statistics.fmean(r["stats"]["self_s"].get(layer, 0.0) for r in traced)
        calls = traced[0]["stats"]["calls"].get(layer, 0)
        out[f"{layer}.self_s"] = (self_s, "s")
        count_name = "builds" if layer == "arrays.manifold" else "calls"
        out[f"{layer}.{count_name}"] = (calls, "count")
    stats = traced[0]["stats"]
    design_calls = stats["calls"].get(tracing.DESIGN_LAYER, 0)
    distinct = stats["design_distinct"]
    out["beams.design.distinct"] = (distinct, "count")
    out["beams.design.hit_ratio"] = (
        (design_calls - distinct) / design_calls if design_calls else 0.0, "ratio"
    )
    out["beams.design.fallback_ratio"] = (
        stats["design_fallbacks"] / distinct if distinct else 0.0, "ratio"
    )
    out["harness.setup.import_s"] = (_median_setup(setups, "import_s", reps), "s")
    out["harness.setup.inputs_s"] = (_median_setup(setups, "inputs_s", reps), "s")
    out["harness.cpu_per_wall"] = (
        sum(r["cpu_s"] for r in plain) / sum(r["wall_s"] for r in plain), "ratio"
    )
    out["harness.raw_units_per_s"] = (
        statistics.median(wl.units / r["wall_s"] for r in plain), "1/s"
    )
    out["harness.reference_s"] = (statistics.median(r["reference_s"] for r in reps), "s")
    out["harness.trace_overhead_frac"] = (
        statistics.median(r["wall_s"] / r["reference_s"] for r in traced)
        / statistics.median(r["wall_s"] / r["reference_s"] for r in plain) - 1.0,
        "ratio",
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("align", "hiepm", "crb"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    setups = measure_setup(args.workload, args.seed)
    _load_package()
    import workloads

    env = environment()
    print(json.dumps({"environment": env}))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    out_dir = OUT_DIR / "csv" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    reps = timed_loop(wl, args.seconds, bool(args.trace), out_dir)
    cross_check(wl, reps)

    if args.trace:
        metrics = per_layer_metrics(wl, reps, setups)
    else:
        metrics = end_to_end_metrics(wl, reps, setups)
    failed_reps = [r for r in reps if r["problems"]]
    result = {
        "correct": not failed_reps,
        "attempted": wl.units * len(reps),
        "failed": wl.units * len(failed_reps),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unit": wl.unit,
        "units_per_rep": wl.units,
        "environment": env,
        "setups": setups,
        "reps": reps,
        "result": result,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    walls = [r["wall_s"] for r in reps if not r["traced"]]
    print(json.dumps({
        "reps": len(reps),
        "unit": wl.unit,
        "units_per_rep": wl.units,
        "untraced_rep_s": {"median": statistics.median(walls), "min": min(walls),
                           "max": max(walls), "samples": len(walls)},
        "setup_s_samples": [s["setup_s"] for s in setups],
    }))
    for rep in failed_reps:
        for problem in rep["problems"]:
            print(f"problem: {problem}", file=sys.stderr)
    missing = {t for r in reps for t in r.get("stats", {}).get("missing_targets", [])}
    for target in sorted(missing):
        print(f"tracer: svamsim.{target} not found; its layer reads 0", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
