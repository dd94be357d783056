"""Desk-scale benchmark of martnet: one command, one workload or all of them.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--record FILE]

Each workload runs in fresh child processes (perfbench/workloads.py), one
at a time, so the benchmark never uses more cores than the machine has;
BLAS keeps its default thread count. With --trace 0 the run first starts
SETUP_SAMPLES processes and takes set-up time as the median of their
spawn-to-ready times; the last one then times ops for S seconds. With
--trace 1 one process reports per-layer figures instead (see tracing.py).

Every metric is printed by name with its unit, followed by the machine and
load record, the loss fingerprint and the output checks. The last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. --record
also writes everything to FILE; compare.py compares two such files.
"""

import argparse
import ctypes
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170  # every run must end within 180 s
P90_MIN_OPS = 100  # p90 needs at least ten samples beyond it

WHY = {
    "train-heston-nvnet": "coupled (X, M) flow: two-order nv joint step, inlined RK5, duplicate asset pass, d = 2",
    "train-bsm-resnet": "long thin tape, 1024 steps: tape and per-step numpy overhead, no RK5",
    "converge-ladders": "four weak-order ladders at 2^16 points, no networks: Sobol and inverse normal dominate",
    "price-heston-nvnet": "untaped read path: plain mlp_forward and the untaped dual branch at batch 8192",
}


def machine_record():
    """nproc, BLAS library and threads, interpreter and library versions."""
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    rec = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                rec["blas_threads"] = fn()
                break
    return rec


def cpu_stall_us():
    """Microseconds some task waited for a CPU (PSI), or None if unavailable."""
    try:
        with open("/proc/pressure/cpu") as fh:
            return int(fh.readline().split("total=")[1])
    except (OSError, IndexError, ValueError):
        return None


def _line(proc, deadline):
    """Next stdout line of ``proc``, or "" if it ends or the deadline passes."""
    if not select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
        return ""
    return proc.stdout.readline()


def spawn(name, seed, seconds, trace, setup_only, deadline):
    """Run one child; return (spawn-to-ready seconds, result dict or None)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), name, str(seed), repr(seconds), str(int(trace)),
           str(int(setup_only))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = _line(proc, deadline)
        setup_s = time.perf_counter() - t0
        result = "" if setup_only else _line(proc, deadline)
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not ready.startswith('{"event": "ready"}') or not (setup_only or result):
        raise SystemExit(f"{name}: workload process failed or timed out (exit {proc.returncode})")
    return setup_s, (None if setup_only else json.loads(result))


def run_workload(name, seed, seconds, trace, deadline):
    nproc = len(os.sched_getaffinity(0))
    load0, stall0, t0 = os.getloadavg()[0], cpu_stall_us(), time.perf_counter()
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(name, seed, seconds, trace, True, deadline)[0])
    setup_s, res = spawn(name, seed, seconds, trace, False, deadline)
    setups.append(setup_s)
    wall, load1, stall1 = time.perf_counter() - t0, os.getloadavg()[0], cpu_stall_us()
    load = {
        "loadavg_1m_before": load0,
        "loadavg_1m_after": load1,
        "cpu_stall_pct": None if stall0 is None else 100.0 * (stall1 - stall0) / 1e6 / wall,
        "cpu_per_wall": res["cpu_per_wall"],
        # other work held the cores if the load before the run already
        # filled them, or the timed process got well under one core
        "contended": load0 >= nproc or res["cpu_per_wall"] < 0.8,
    }

    ops, failed = res["ops"], res["failed"]
    if trace:
        metrics = res["layers"]
    else:
        steps_per_s = res["path_steps"] / res["wall_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_ms_p50": {"value": statistics.median(res["op_ms"]), "unit": "ms"},
            "path_steps_per_s": {"value": steps_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_share": {"value": (ops - failed) / ops, "unit": "share"},
        }
    extra = dict(res["quality"])
    extra["fail_share"] = {"value": failed / ops, "unit": "share"}
    extra["ops"] = {"value": ops, "unit": "count"}
    if not trace and len(res["op_ms"]) >= P90_MIN_OPS:
        extra["op_ms_p90"] = {"value": statistics.quantiles(res["op_ms"], n=10)[-1], "unit": "ms"}
    checks = {
        "ops_failed": failed,
        "repeats_bit_identical": res["repeat_ok"],
        "tracing_hygiene": res["tracing_clean"],
    }
    return {
        "workload": name,
        "why": WHY[name],
        "seed": seed,
        "trace": trace,
        "correct": failed == 0 and res["repeat_ok"] and res["tracing_clean"],
        "attempted": ops,
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
        "setup_samples_s": setups,
        "fingerprint": res["fingerprint"],
        "checks": checks,
        "load": load,
    }


def print_record(rec):
    print(f"== {rec['workload']}  seed={rec['seed']}  trace={rec['trace']}  ({rec['why']})")
    for group in ("metrics", "extra"):
        for key, m in rec[group].items():
            print(f"  {key:38s} {m['value']:>16.6g} {m['unit']}")
    print(f"  setup samples s: {', '.join(f'{s:.4f}' for s in rec['setup_samples_s'])}")
    print(f"  fingerprint: {json.dumps(rec['fingerprint'])}")
    print(f"  checks: {json.dumps(rec['checks'])}")
    print(f"  load: {json.dumps(rec['load'])}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WHY, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="also write the full record as JSON to this file")
    args = ap.parse_args()
    if not (ROOT / "src" / "martnet" / "__init__.py").is_file():
        sys.exit(f"no martnet sources under {ROOT / 'src'}; run from a checkout of the repository")
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")

    machine = machine_record()
    print("machine: " + json.dumps(machine))
    names = list(WHY) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace), time.monotonic() + DEADLINE_S)
        print_record(rec)
        records.append(rec)
    if args.record:
        Path(args.record).write_text(json.dumps({"machine": machine, "runs": records}, indent=1) + "\n")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
