"""Outside-in layer tracing for the benchmark.

Wrappers are installed around the package's layer entry points only for a
traced run. Most modules import names directly (``from .qmc import
draws_for``), so each wrapper rebinds the name where the caller looks it
up, for example ``martnet.dual.draws_for`` as well as
``martnet.qmc.draws_for``.

Two kinds of wrapper:

span
    Times the call and keeps a stack of open spans, so a layer's self time
    is its duration minus the duration of the wrapped calls inside it.
count
    Only counts calls (``Tensor.__init__``, ``VectorField.eval``,
    ``rk5.rk5_step``); its time stays in the enclosing span.

``dual._joint_rk5_flow`` and ``dual._frozen_joint_flow`` inline their own
RK5 loop and are not wrapped, so their time lands in ``dual.train`` (or
``dual.evaluate_loss``) self time, not in ``rk5.*``.
"""

import time

import martnet
import martnet.autodiff
import martnet.convergence
import martnet.dual
import martnet.fields
import martnet.mlp
import martnet.qmc
import martnet.rk5
import martnet.schemes

_MARK = "__perfbench_layer__"

# (layer, kind, [(owner, attribute), ...]); every binding a caller can look
# the name up through is listed, so no call bypasses the wrapper.
_SPECS = [
    ("qmc.sobol_points", "span", [(martnet.qmc, "sobol_points"), (martnet, "sobol_points")]),
    ("qmc.inv_normal_cdf", "span", [(martnet.qmc, "inv_normal_cdf"), (martnet, "inv_normal_cdf")]),
    ("qmc.draws_for", "span", [
        (martnet.qmc, "draws_for"), (martnet.dual, "draws_for"),
        (martnet.convergence, "draws_for"), (martnet, "draws_for"),
    ]),
    ("schemes.simulate", "span", [
        (martnet.schemes, "simulate"), (martnet.dual, "simulate"),
        (martnet.convergence, "simulate"), (martnet, "simulate"),
    ]),
    ("rk5.flow", "span", [
        (martnet.rk5, "flow"), (martnet.schemes, "flow"), (martnet.dual, "flow"), (martnet, "flow"),
    ]),
    ("rk5.rk5_step", "count", [(martnet.rk5, "rk5_step"), (martnet, "rk5_step")]),
    ("fields.eval", "count", [(martnet.fields.VectorField, "eval")]),
    ("autodiff.tensors", "count", [(martnet.autodiff.Tensor, "__init__")]),
    ("autodiff.backward", "span", [(martnet.autodiff.Tensor, "backward")]),
    ("mlp.forward_t", "span", [(martnet.mlp, "mlp_forward_t"), (martnet.dual, "mlp_forward_t")]),
    ("mlp.forward", "span", [
        (martnet.mlp, "mlp_forward"), (martnet.dual, "mlp_forward"), (martnet, "mlp_forward"),
    ]),
    ("mlp.adam_update", "span", [
        (martnet.mlp, "adam_update"), (martnet.dual, "adam_update"), (martnet, "adam_update"),
    ]),
    ("mlp.save_checkpoint", "span", [
        (martnet.mlp, "save_checkpoint"), (martnet.dual, "save_checkpoint"), (martnet, "save_checkpoint"),
    ]),
    ("dual.rogers_loss", "span", [(martnet.dual, "rogers_loss"), (martnet, "rogers_loss")]),
    ("dual.estimate_sigma", "span", [(martnet.dual, "estimate_sigma"), (martnet, "estimate_sigma")]),
    ("dual.train", "span", [(martnet.dual, "train"), (martnet, "train")]),
    ("dual.evaluate_loss", "span", [(martnet.dual, "evaluate_loss"), (martnet, "evaluate_loss")]),
    ("convergence.run_convergence", "span", [
        (martnet.convergence, "run_convergence"), (martnet, "run_convergence"),
    ]),
]

# Per-layer metrics in the order BENCHMARK.json lists them:
# metric -> (layer, field, unit). Fields: "self_ms" is self time, "calls"
# the call count, "coords" the Sobol coordinates generated; all per op.
PER_LAYER = {
    "qmc.sobol_points.ms": ("qmc.sobol_points", "self_ms", "ms"),
    "qmc.inv_normal_cdf.ms": ("qmc.inv_normal_cdf", "self_ms", "ms"),
    "qmc.draws_for.ms": ("qmc.draws_for", "self_ms", "ms"),
    "qmc.coords": ("qmc.sobol_points", "coords", "count"),
    "schemes.simulate.ms": ("schemes.simulate", "self_ms", "ms"),
    "rk5.flow.ms": ("rk5.flow", "self_ms", "ms"),
    "rk5.rk5_step.calls": ("rk5.rk5_step", "calls", "count"),
    "dual.train.self_ms": ("dual.train", "self_ms", "ms"),
    "mlp.forward_t.calls": ("mlp.forward_t", "calls", "count"),
    "fields.eval.calls": ("fields.eval", "calls", "count"),
    "autodiff.backward.ms": ("autodiff.backward", "self_ms", "ms"),
    "autodiff.tensors": ("autodiff.tensors", "calls", "count"),
    "mlp.forward_t.ms": ("mlp.forward_t", "self_ms", "ms"),
    "mlp.forward.ms": ("mlp.forward", "self_ms", "ms"),
    "mlp.forward.calls": ("mlp.forward", "calls", "count"),
    "dual.evaluate_loss.self_ms": ("dual.evaluate_loss", "self_ms", "ms"),
    "mlp.adam_update.ms": ("mlp.adam_update", "self_ms", "ms"),
    "mlp.save_checkpoint.ms": ("mlp.save_checkpoint", "self_ms", "ms"),
    "dual.rogers_loss.ms": ("dual.rogers_loss", "self_ms", "ms"),
    "dual.estimate_sigma.ms": ("dual.estimate_sigma", "self_ms", "ms"),
    "convergence.run_convergence.self_ms": ("convergence.run_convergence", "self_ms", "ms"),
}


def _current(owner, attr):
    # class attributes are read from the class dict, so a method wrapper is
    # seen as the plain function that was assigned
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


# Every binding as found at import, before any wrapper can exist.
_ORIGINALS = {(id(owner), attr): _current(owner, attr) for _, _, targets in _SPECS for owner, attr in targets}


def assert_clean():
    """Raise unless every traced name is bound to its original object."""
    for layer, _, targets in _SPECS:
        for owner, attr in targets:
            cur = _current(owner, attr)
            if hasattr(cur, _MARK) or cur is not _ORIGINALS[(id(owner), attr)]:
                raise RuntimeError(f"tracing wrapper left on {layer} ({attr})")


class Tracer:
    """Installs the wrappers and aggregates per-layer calls and self time."""

    def __init__(self):
        self.stats = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "coords": 0} for layer, _, _ in _SPECS}
        self._stack = [0.0]  # child time accumulated by each open span
        self._installed = []

    def _span(self, layer, fn):
        stats, stack = self.stats[layer], self._stack
        coords = layer == "qmc.sobol_points"

        def wrapped(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                stats["calls"] += 1
                stats["total_s"] += dt
                stats["self_s"] += dt - child
                if coords:
                    stats["coords"] += int(args[0]) * int(args[1])

        return wrapped

    def _count(self, layer, fn):
        stats = self.stats[layer]

        def wrapped(*args, **kwargs):
            stats["calls"] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self):
        assert_clean()
        for layer, kind, targets in _SPECS:
            # one wrapper per original object, shared by all its bindings
            made = {}
            for owner, attr in targets:
                orig = _current(owner, attr)
                if id(orig) not in made:
                    w = (self._span if kind == "span" else self._count)(layer, orig)
                    w.__name__ = getattr(orig, "__name__", attr)
                    setattr(w, _MARK, layer)
                    made[id(orig)] = w
                setattr(owner, attr, made[id(orig)])
                self._installed.append((owner, attr, orig))

    def uninstall(self):
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)
        assert_clean()

    def attributed_s(self):
        """Seconds covered by spans: the sum of every span's self time."""
        return self._stack[0]

    def per_op(self, ops):
        """The PER_LAYER metrics divided by the traced op count."""
        out = {}
        for metric, (layer, field, unit) in PER_LAYER.items():
            s = self.stats[layer]
            value = s["self_s"] * 1000.0 if field == "self_ms" else s[field]
            out[metric] = {"value": value / ops, "unit": unit}
        return out
