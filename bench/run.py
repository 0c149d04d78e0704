#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the mpdo-kit CLI.

Run from the root of a source checkout (the package is imported from
``./src``, nothing needs installing):

    python3 bench/run.py --workload chain --seed 1 --seconds 30 --trace 0

One run generates the workload's inputs from ``--seed``, times the start-up
of a fresh CLI process, then drives ``mpdo_kit.cli.main`` in this process
over the workload's command list, pass after pass, while another pass still
fits in ``--seconds`` (at least one pass).  Every report is checked against
references the benchmark computes itself (see checks.py); a command whose
exit code or report is wrong counts as failed.  ``--trace 1`` runs an
untraced, a traced and another untraced pass and reports per-layer metrics
instead of the end-to-end ones.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs live in
``.bench_work/`` under the checkout while the run lasts; the full result
(environment record included) and the latest spans stay there.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
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

import checks
import tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_work"

#: Fresh-process start-ups timed per run; setup_s is their median.
SETUP_RUNS = 5

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import mpdo_kit.cli as c\n"
    "c.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_LINALG = [f"linalg.{fn}.{m}" for fn in ("svd", "eigh", "eigvalsh", "eigvals", "einsum") for m in ("calls", "busy_s")]
_SEARCH = [
    f"nonneg_factorizations.{k}_factorization_search.{m}"
    for k in ("nonneg", "psd", "cp")
    for m in ("calls", "busy_s", "found")
]
PER_LAYER = [
    "cli.analyze.busy_s", "cli.factorize.busy_s", "cli.convert.busy_s", "cli.experiment.busy_s",
    "cli.load_matrix.busy_s", "cli.load_matrix.input_mb", "cli.emit.busy_s", "cli.self_s",
    "tensor_core.contract_train.calls", "tensor_core.contract_train.busy_s",
    "tensor_core.contract_train.flops", "tensor_core.contract_train.out_mb",
    "tensor_core.contract_cyclic.busy_s",
    "tensor_core.numerical_rank.calls", "tensor_core.numerical_rank.busy_s",
    "tensor_core.svd_split.calls", "tensor_core.svd_split.busy_s",
    "decompositions.mpo_train_form.calls", "decompositions.mpo_train_form.busy_s",
    "decompositions.mpo_train_form.self_s",
    "decompositions.operator_schmidt_rank.calls", "decompositions.operator_schmidt_rank.busy_s",
    "decompositions.local_purification_spectral.busy_s", "decompositions.local_purification_spectral.self_s",
    "decompositions.q_sqrt_rank.calls", "decompositions.q_sqrt_rank.busy_s",
    "decompositions.q_sqrt_rank.candidates",
    "decompositions.transfer_matrix.busy_s", "decompositions.periodicity_lower_bound.busy_s",
    "nonneg_factorizations.sqrt_rank.busy_s", "nonneg_factorizations.sqrt_rank.candidates",
    "nonneg_factorizations.cpsdt_construct.busy_s", "nonneg_factorizations.cpsdt_construct.candidates",
    "nonneg_factorizations.cpsdt_construct.peak_alloc_mb",
    *_SEARCH, "search.found_ratio",
    "nonneg_factorizations.least_squares.calls", "nonneg_factorizations.least_squares.busy_s",
    "correspondence.verify_correspondence.calls", "correspondence.verify_correspondence.busy_s",
    "correspondence.verify_correspondence.self_s",
    "correspondence.factorization_to_decomposition.busy_s",
    "correspondence.decomposition_to_factorization.busy_s",
    "certificates.pair_traces.calls", "certificates.pair_traces.busy_s",
    *_LINALG,
    "failed_ratio", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.glue_s",
]


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".candidates", ".found")):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, str]:
    """BLAS vendor from numpy's build record and its thread count at run time."""
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, AttributeError):
        vendor = "unknown"
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return vendor, str(fn())
    return vendor, os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", "unknown"))


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mpdo_kit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy

    vendor, threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "MPDO_KIT_THREADS": os.environ.get("MPDO_KIT_THREADS", "unset"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# measurement


def setup_seconds() -> float:
    """Import of mpdo_kit.cli plus build_parser(), timed inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[0])


def execute(cli, argv, rec=None, index=-1):
    """Run one command in process; return (seconds, exit code or error text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    if rec is not None:
        rec.command = index
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # counted as a failed command; the run goes on
        code = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if rec is not None:
        rec.command = -1
    return seconds, code, out.getvalue(), err.getvalue()


def verify(cmd, code, stdout: str, stderr: str):
    """Return (problem or None, parsed report)."""
    if code != cmd.exit_code:
        return f"exit {code!r}, expected {cmd.exit_code}: {stderr.strip()[:300]}", None
    try:
        doc = json.loads(stdout)
        cmd.check(doc)
    except Exception as exc:  # any malformed or wrong report is a failure
        return f"report check: {type(exc).__name__}: {exc}", None
    return None, doc


def run_pass(cli, commands, rec=None) -> dict:
    times, problems, docs = [], [], []
    for i, cmd in enumerate(commands):
        seconds, code, stdout, stderr = execute(cli, cmd.argv, rec, i)
        problem, doc = verify(cmd, code, stdout, stderr)
        times.append(seconds)
        docs.append(doc)
        if problem:
            problems.append(f"{' '.join(cmd.argv)}: {problem}")
    by_sub = {}
    for cmd, seconds in zip(commands, times):
        by_sub[cmd.subcommand] = by_sub.get(cmd.subcommand, 0.0) + seconds
    return {"wall": sum(times), "times": times, "by_sub": by_sub, "problems": problems, "docs": docs}


def self_test(commands, docs) -> dict:
    """Corrupt each valid report of a pass; every corruption must be counted as failed."""
    tried, missed = 0, []
    for cmd, doc in zip(commands, docs):
        if doc is None:
            continue
        for label, bad in checks.corruptions(doc):
            tried += 1
            problem, _ = verify(cmd, cmd.exit_code, json.dumps(bad), "")
            if problem is None:
                missed.append(f"{' '.join(cmd.argv[:2])}: {label}")
    return {"tried": tried, "caught": tried - len(missed), "missed": missed}


def measure(args, cli, work: Path) -> int:
    env = environment(args)
    print("env: " + json.dumps(env, sort_keys=True))
    setup = [setup_seconds() for _ in range(SETUP_RUNS)]
    commands = workloads.WORKLOADS[args.workload](args.seed, work)

    t_start = time.perf_counter()
    untraced = [run_pass(cli, commands)]
    selftest = self_test(commands, untraced[0]["docs"])
    traced = None
    if args.trace:
        rec = tracing.Recorder()
        with tracing.instrument(rec):
            traced = run_pass(cli, commands, rec)
        # an untraced pass right after the traced one, both past first-call costs
        untraced.append(run_pass(cli, commands))
    else:
        while time.perf_counter() - t_start + untraced[-1]["wall"] <= args.seconds:
            untraced.append(run_pass(cli, commands))
    passes = untraced + ([traced] if traced else [])

    attempted = len(commands) * len(passes)
    problems = [p for ps in passes for p in ps["problems"]]
    median = statistics.median
    e2e = {
        "wall_s": median([p["wall"] for p in untraced]),
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "failed_ratio": len(problems) / attempted,
    }
    for sub in tracing.SUBCOMMANDS:
        e2e[f"{sub}_s"] = median([p["by_sub"].get(sub, 0.0) for p in untraced])

    layers = {}
    if traced:
        summary = rec.summary()
        rec.save(OUT / f"spans-{args.workload}.npz")
        calls = sum(summary.get(f"{s}.calls", 0) for s in tracing.SEARCHES)
        found = sum(summary.get(f"{s}.found", 0) for s in tracing.SEARCHES)
        summary.update({
            "search.found_ratio": found / calls if calls else 0.0,
            "failed_ratio": e2e["failed_ratio"],
            "trace.wall_s": traced["wall"],
            "trace.untraced_wall_s": untraced[-1]["wall"],
            "trace.overhead_s": traced["wall"] - untraced[-1]["wall"],
            "trace.glue_s": traced["wall"] - summary["top_level_s"],
        })
        layers = {name: summary.get(name, 0.0) for name in PER_LAYER}

    correct = not problems and selftest["tried"] > 0 and not selftest["missed"]
    for line in problems + [f"self-test missed {m}" for m in selftest["missed"]]:
        print("FAILED " + line)
    print(f"workload={args.workload} seed={args.seed} passes={len(untraced)} traced={bool(traced)} "
          f"attempted={attempted} failed={len(problems)} "
          f"self-test caught {selftest['caught']}/{selftest['tried']} corrupted reports")
    for name, value in {**e2e, **layers}.items():
        print(f"  {name:56s} {value:.6g} {END_TO_END.get(name) or unit_of(name)}")

    per_command = [
        {"argv": list(c.argv), "median_s": median([p["times"][i] for p in untraced])}
        for i, c in enumerate(commands)
    ]
    result = {
        "environment": env, "correct": correct, "attempted": attempted, "failed": len(problems),
        "passes": len(untraced), "end_to_end": e2e, "per_layer": layers, "setup_samples": setup,
        "pass_walls": [p["wall"] for p in untraced], "per_command": per_command,
        "self_test": selftest, "problems": problems,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    metrics = layers if traced else {k: e2e[k] for k in END_TO_END}
    units = {k: END_TO_END.get(k) or unit_of(k) for k in metrics}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(problems),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("chain", "enum", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "mpdo_kit" / "cli.py").is_file():
        print(f"error: {SRC / 'mpdo_kit'} not found; run from the root of an mpdo-kit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from mpdo_kit import cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"error: imported mpdo_kit from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"inputs-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir()
    try:
        return measure(args, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
