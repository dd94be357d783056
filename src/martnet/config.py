"""Key-value experiment configuration: parsing, defaults, model assembly.

The format is one ``key = value`` pair per line; blank lines and lines
starting with ``#`` are skipped. Keys split into model parameters (model,
S0, U0, mu, sigma, theta, alpha, rho, beta, K, T) and run controls (net,
steps, batch, iters, seed, bridge, out). Unknown or repeated keys are
errors, as are values that fail to parse and parameters of the other model
(bsm takes sigma, heston U0, theta, alpha, rho and beta); nothing is
silently ignored.
"""

import numpy as np

from .errors import UsageError
from .fields import make_bsm_model, make_heston_model
from .schemes import NETS

_FLOAT_KEYS = ("S0", "U0", "mu", "sigma", "theta", "alpha", "rho", "beta", "K", "T")
_INT_KEYS = ("steps", "batch", "iters", "seed")
_STR_KEYS = ("model", "net", "bridge", "out")

MODEL_KEYS = ("model",) + _FLOAT_KEYS
RUN_KEYS = ("net",) + _INT_KEYS + ("bridge", "out")

BSM_DEFAULTS = {"model": "bsm", "S0": 100.0, "mu": 0.0, "sigma": 0.32, "K": 100.0, "T": 1.0}
HESTON_DEFAULTS = {
    "model": "heston",
    "S0": 100.0,
    "U0": 0.32,
    "mu": 0.0,
    "theta": 0.25,
    "alpha": 3.0,
    "rho": 0.3,
    "beta": 0.4,
    "K": 100.0,
    "T": 1.0,
}
# model name: (defaults, Brownian dimension d)
_MODELS = {"bsm": (BSM_DEFAULTS, 1), "heston": (HESTON_DEFAULTS, 2)}
_MAX_SEED = 2**63 - 1

RUN_DEFAULTS = {"net": "nvnet", "batch": 512, "iters": 300, "seed": 0, "bridge": "on", "out": "run.csv"}


def parse_config_text(text, origin="<config>"):
    """Parse key=value lines into a typed dict; raises UsageError on defects."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{origin}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in out:
            raise UsageError(f"{origin}:{lineno}: repeated key {key!r}")
        if key in _STR_KEYS:
            out[key] = value
        elif key in _FLOAT_KEYS:
            try:
                out[key] = float(value)
            except ValueError:
                raise UsageError(f"{origin}:{lineno}: {key} needs a number, got {value!r}")
        elif key in _INT_KEYS:
            try:
                out[key] = int(value)
            except ValueError:
                raise UsageError(f"{origin}:{lineno}: {key} needs an integer, got {value!r}")
        else:
            raise UsageError(f"{origin}:{lineno}: unknown configuration key {key!r}")
    return out


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    return parse_config_text(text, origin=str(path))


def resolve_config(cfg):
    """Merge a parsed config over the model and run defaults.

    Only the chosen model's parameters are accepted: ``sigma`` under heston
    or ``U0``, ``theta``, ``alpha``, ``rho``, ``beta`` under bsm is an error.
    """
    name = str(cfg.get("model", "bsm")).lower()
    if name not in _MODELS:
        raise UsageError(f"unknown model: {name!r}")
    defaults, d = _MODELS[name]
    merged = dict(defaults)
    merged.update(RUN_DEFAULTS)
    for key, value in cfg.items():
        if key == "model":
            continue
        if key in merged or key in RUN_KEYS:
            merged[key] = value
        elif key in MODEL_KEYS:
            raise UsageError(f"configuration key {key!r} does not apply to model {name!r}")
        else:
            raise UsageError(f"unknown configuration key {key!r}")
    merged["model"] = name
    if merged["net"] not in NETS:
        raise UsageError(f"unknown net: {merged['net']!r}")
    if merged["bridge"] not in ("on", "off"):
        raise UsageError(f"bridge must be on or off, got {merged['bridge']!r}")
    if "steps" not in merged:
        merged["steps"] = NETS[merged["net"]].steps
    for key in ("steps", "batch", "iters"):
        if merged[key] < 1:
            raise UsageError(f"{key} must be >= 1")
    if merged["bridge"] == "on" and merged["batch"] < 2:
        raise UsageError("batch must be >= 2 with the bridge on: its volatility is estimated across paths")
    seed = int(merged["seed"])  # a seed may still be its config-file text
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {merged['seed']}")
    if seed + d - 1 > _MAX_SEED:  # network j is seeded seed + j and checkpointed as int64
        raise UsageError(f"seed must be <= {_MAX_SEED - d + 1} for model {name!r}, got {merged['seed']}")
    for key in _FLOAT_KEYS:
        if key in merged and not np.isfinite(merged[key]):
            raise UsageError(f"{key} must be finite, got {merged[key]!r}")
    if merged["T"] <= 0:
        raise UsageError("T must be positive")
    return merged


def build_model(cfg):
    """ModelSpec from a resolved config dict."""
    if cfg["model"] == "bsm":
        return make_bsm_model(cfg["S0"], cfg["mu"], cfg["sigma"], strike=cfg["K"])
    return make_heston_model(
        cfg["S0"], cfg["U0"], cfg["mu"], cfg["theta"], cfg["alpha"], cfg["rho"], cfg["beta"],
        strike=cfg["K"],
    )


def snapshot_text(cfg):
    """Canonical key=value rendering of a resolved config (stable order)."""
    keys = [k for k in MODEL_KEYS if k in cfg] + [k for k in RUN_KEYS if k in cfg]
    lines = []
    for key in keys:
        value = cfg[key]
        if isinstance(value, float):
            value = np.format_float_positional(value, trim="-")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
