"""One benchmark workload in a fresh process; started by run.py.

    python3 perfbench/workloads.py WORKLOAD SEED SECONDS TRACE SETUP_ONLY

The process imports the package from the checkout's ``src``, builds the
workload's inputs from SEED, runs one untimed warm-up op and prints
``{"event": "ready"}``; run.py times set-up from spawn to that line. With
SETUP_ONLY=1 it exits there. Otherwise it times ops for SECONDS (TRACE=0),
or for SECONDS/2 with the layer wrappers installed between two untraced
quarters (TRACE=1), checks every op's output and prints one JSON result.
"""

import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import martnet as mn  # noqa: E402
import tracing  # noqa: E402

BSM = (100.0, 0.0, 0.32)  # S0, mu, sigma; K = 100, T = 1 as in tests/conftest.py
HESTON = (100.0, 0.32, 0.0, 0.25, 3.0, 0.3, 0.4)  # S0, U0, mu, theta, alpha, rho, beta
ADAM_DESK = {"alpha": 0.01}  # the acceptance suite's desk step size
RESIDUAL_MAX = 1e-12  # acceptance invariant on the per-time batch mean of M
LADDERS = (("em", (8, 16, 32, 64), -0.8), ("cub3", (1, 2, 4, 8), -1.7),
           ("nv", (1, 2, 4, 8), -1.7), ("nn", (1, 2, 4, 8), -1.7))
LADDER_POINTS = 2**16


class Unit:
    """What one timed call produced: per-op ms, ops attempted and failed, path-steps."""

    def __init__(self, op_ms, attempted, failed, path_steps):
        self.op_ms = list(op_ms)
        self.attempted = attempted
        self.failed = failed
        self.path_steps = path_steps


class Train:
    """``train`` from fixed initial networks, ``iters`` iterations per unit.

    Every unit repeats the same training run, so its losses must repeat bit
    for bit; an op is one iteration, timed by ``TrainResult.wall_ms``.
    """

    def __init__(self, seed, heston, scheme, steps, iters, checkpoint_every):
        self.model = mn.make_heston_model(*HESTON) if heston else mn.make_bsm_model(*BSM)
        d = self.model.d
        self.cfg = mn.MartingaleNetConfig(scheme=scheme, d_M=d, partition=mn.uniform_partition(1.0, steps), batch=512)
        self.nets = [mn.init_mlp(self.model.N + 2, 1, seed=100 * seed + j) for j in range(d)]
        self.seed, self.iters, self.every = seed, iters, checkpoint_every
        self.steps = steps
        self.losses = None
        self.repeat_ok = True
        self.work = Path(tempfile.mkdtemp(prefix="ckpt-", dir=work_dir()))

    def _train(self, iters):
        return mn.train(self.cfg, self.nets, iters, self.model, seed=self.seed, bridge=True,
                        adam_opts=ADAM_DESK, out_dir=str(self.work), checkpoint_every=self.every)

    def warm_up(self):
        self._train(1)

    def unit(self):
        try:
            r = self._train(self.iters)
        except mn.MartnetError as exc:
            print(f"op failed: {exc}", file=sys.stderr)
            return Unit([], self.iters, self.iters, 0)
        bad = ~np.isfinite(r.losses) | (r.centering_residuals > RESIDUAL_MAX)
        if self.losses is None:
            self.losses = r.losses
        elif r.losses.tobytes() != self.losses.tobytes():
            self.repeat_ok = False
        return Unit(r.wall_ms, self.iters, int(bad.sum()), self.iters * self.cfg.batch * self.steps)

    def quality(self):
        tail = self.losses[-max(1, len(self.losses) // 10):]
        return {
            "loss_tail": {"value": float(np.mean(tail)), "unit": "loss"},
            "first_loss": {"value": float(self.losses[0]), "unit": "loss"},
            "last_loss": {"value": float(self.losses[-1]), "unit": "loss"},
        }

    def fingerprint(self):
        return {"first_loss": float(self.losses[0]).hex(), "last_loss": float(self.losses[-1]).hex()}

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


class Converge:
    """The four weak-order ladders on BSM at 2^16 points, paired protocol.

    An op is one set of all four at one shift seed; each ladder's slope
    must sit inside its acceptance band.
    """

    def __init__(self, seed):
        self.model = mn.make_bsm_model(*BSM)
        self.seed = seed
        self.next = 0
        self.slopes = {name: [] for name, _, _ in LADDERS}

    def _op(self):
        shift = 1000 * self.seed + self.next
        self.next += 1
        ok = True
        for name, steps, band in LADDERS:
            rows = mn.run_convergence(self.model, name, list(steps), LADDER_POINTS, seed=shift, protocol="paired")
            slope = rows[-1].slope
            self.slopes[name].append(slope)
            ok &= all(math.isfinite(r.abs_err) for r in rows) and slope <= band
        return ok

    def warm_up(self):
        self._op()

    def unit(self):
        t0 = time.perf_counter()
        try:
            ok = self._op()
        except mn.MartnetError as exc:
            print(f"op failed: {exc}", file=sys.stderr)
            ok = False
        ms = (time.perf_counter() - t0) * 1000.0
        steps = sum(sum(s) for _, s, _ in LADDERS)
        return Unit([ms], 1, 0 if ok else 1, LADDER_POINTS * steps)

    def quality(self):
        # the direct protocol's em slope is recorded as a value only: at
        # 2^16 points it swings with the shift seed (see README.md)
        rows = mn.run_convergence(self.model, "em", [8, 16, 32, 64], LADDER_POINTS, seed=1000 * self.seed)
        out = {f"slope.{name}": {"value": float(np.median(v)), "unit": "log2/log2"} for name, v in self.slopes.items()}
        out["slope.em_direct"] = {"value": rows[-1].slope, "unit": "log2/log2"}
        return out

    def fingerprint(self):
        return {f"slope.{name}": v[0].hex() for name, v in self.slopes.items()}

    def close(self):
        pass


class Price:
    """``evaluate_loss`` at batch 8192 on Heston nvnet, 4 steps, fresh draws per op.

    The networks are ``init_mlp`` with projections set to 0.05 N(0, 1), so
    the martingale is not zero and the untaped network path does real work.
    """

    BATCH = 8192

    def __init__(self, seed):
        self.model = mn.make_heston_model(*HESTON)
        self.cfg = mn.MartingaleNetConfig(scheme="nvnet", d_M=2, partition=mn.uniform_partition(1.0, 4), batch=512)
        self.nets = [mn.init_mlp(self.model.N + 2, 1, seed=100 * seed + j) for j in range(2)]
        rng = np.random.default_rng(seed)
        for net in self.nets:
            net.proj[:] = 0.05 * rng.standard_normal(net.proj.shape)
        self.seed = seed
        self.next = 0
        self.values = []

    def _op(self):
        value = mn.evaluate_loss(self.cfg, self.nets, self.model, batch=self.BATCH, seed=1000 * self.seed + self.next)
        self.next += 1
        return value

    def warm_up(self):
        self.first = self._op()

    def unit(self):
        t0 = time.perf_counter()
        try:
            value = self._op()
        except mn.MartnetError as exc:
            print(f"op failed: {exc}", file=sys.stderr)
            value = math.nan
        ms = (time.perf_counter() - t0) * 1000.0
        self.values.append(value)
        # the supremum covers t = 0, where Z - M is 0, so a bound is >= 0
        ok = math.isfinite(value) and value >= 0.0
        return Unit([ms], 1, 0 if ok else 1, self.BATCH * 4)

    def quality(self):
        return {"bound": {"value": float(np.mean(self.values)), "unit": "price"}}

    def fingerprint(self):
        return {"bound": float(self.first).hex()}

    def close(self):
        pass


WORKLOADS = {
    "train-heston-nvnet": lambda seed: Train(seed, True, "nvnet", 4, 50, 25),
    "train-bsm-resnet": lambda seed: Train(seed, False, "resnet-em", 1024, 10, 5),
    "converge-ladders": Converge,
    "price-heston-nvnet": Price,
}


def work_dir():
    path = ROOT / ".perfbench_work"
    path.mkdir(exist_ok=True)
    return path


def timed(workload, seconds):
    """Run units until ``seconds`` have passed; return (units, wall seconds)."""
    units = []
    t0 = time.perf_counter()
    while not units or time.perf_counter() - t0 < seconds:
        units.append(workload.unit())
    return units, time.perf_counter() - t0


def summarise(units, wall_s):
    op_ms = [ms for u in units for ms in u.op_ms]
    if not op_ms:
        raise SystemExit("no op completed")
    return {
        "ops": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "op_ms": op_ms,
        "wall_s": wall_s,
        "path_steps": sum(u.path_steps for u in units),
    }


def main(argv):
    name, seed, seconds, trace, setup_only = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4] == "1"
    src = (ROOT / "src").resolve()
    if src not in Path(mn.__file__).resolve().parents:
        raise SystemExit(f"martnet imported from {mn.__file__}, not from {src}")
    workload = WORKLOADS[name](seed)
    try:
        workload.warm_up()
        print(json.dumps({"event": "ready"}), flush=True)
        if setup_only:
            return
        tracing.assert_clean()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if not trace:
            units, wall_s = timed(workload, seconds)
            tracing.assert_clean()  # untraced runs install no wrapper
            result = summarise(units, wall_s)
        else:
            # untraced quarters before and after the traced half, so a drift
            # in machine speed during the run cancels out of the overhead
            before, before_s = timed(workload, seconds / 4)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                units, wall_s = timed(workload, seconds / 2)
            finally:
                tracer.uninstall()  # asserts every name is restored
            after, after_s = timed(workload, seconds / 4)
            plain = summarise(before + after, before_s + after_s)
            result = summarise(units, wall_s)
            traced_p50 = statistics.median(result["op_ms"])
            layers = tracer.per_op(result["ops"])
            layers["trace.overhead_pct"] = {
                "value": 100.0 * (traced_p50 / statistics.median(plain["op_ms"]) - 1.0), "unit": "%"}
            layers["trace.unattributed_ms"] = {
                "value": (wall_s - tracer.attributed_s()) * 1000.0 / result["ops"], "unit": "ms"}
            result["layers"] = layers
            result["ops"] += plain["ops"]
            result["failed"] += plain["failed"]
        result["cpu_per_wall"] = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
        result["tracing_clean"] = True  # assert_clean above raises otherwise
        result["repeat_ok"] = getattr(workload, "repeat_ok", True)
        result["quality"] = workload.quality()
        result["fingerprint"] = workload.fingerprint()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result), flush=True)
    finally:
        workload.close()


if __name__ == "__main__":
    main(sys.argv[1:])
