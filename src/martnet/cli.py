"""Command-line front end: train, converge, oracle, report subcommands."""

import argparse
import os
import sys

from .atomic import atomic_open
from .config import BSM_DEFAULTS, build_model, load_config, resolve_config, snapshot_text
from .convergence import run_convergence
from .dual import MartingaleNetConfig, train
from .errors import MartnetError, UsageError
from .mlp import init_mlp, save_checkpoint
from .oracles import DEFAULT_TREE_STEPS, binomial_american_put, bs_european_put
from .report import write_loss_csv, write_report
from .schemes import NETS, SCHEMES, uniform_partition


def _build_parser():
    parser = argparse.ArgumentParser(prog="martnet", description="dual martingale pricing experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train martingale networks on the dual loss")
    p.add_argument("--model", choices=("bsm", "heston"), default=None)
    p.add_argument("--net", choices=tuple(NETS), default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bridge", choices=("on", "off"), default=None)
    p.add_argument("--out", default=None, help="loss CSV path; its directory becomes the run directory")
    p.add_argument("--config", default=None, help="key=value configuration file")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("converge", help="weak-order ladder on the lognormal model")
    p.add_argument("--scheme", choices=tuple(SCHEMES), required=True)
    p.add_argument("--steps", default=None, help="comma-separated ascending step counts")
    p.add_argument("--points", type=int, default=65536)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--protocol", choices=("auto", "direct", "paired"), default="auto")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("oracle", help="reference prices for spot checks")
    p.add_argument("--S0", type=float, default=BSM_DEFAULTS["S0"])
    p.add_argument("--K", type=float, default=BSM_DEFAULTS["K"])
    p.add_argument("--sigma", type=float, default=BSM_DEFAULTS["sigma"])
    p.add_argument("--T", type=float, default=BSM_DEFAULTS["T"])
    p.add_argument("--r", type=float, default=BSM_DEFAULTS["mu"])
    p.add_argument("--steps", type=int, default=DEFAULT_TREE_STEPS)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("report", help="summarize a run directory's loss CSV")
    p.add_argument("--run", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def _cmd_train(args):
    cfg = load_config(args.config) if args.config else {}
    for key in ("model", "net", "steps", "batch", "iters", "seed", "bridge", "out"):
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    resolved = resolve_config(cfg)
    model = build_model(resolved)

    out_csv = os.path.abspath(resolved["out"])
    run_dir = os.path.dirname(out_csv)
    try:
        os.makedirs(run_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create run directory {run_dir}: {exc}") from exc
    with atomic_open(os.path.join(run_dir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(snapshot_text(resolved))

    partition = uniform_partition(resolved["T"], resolved["steps"])
    net_config = MartingaleNetConfig(
        scheme=NETS[resolved["net"]].config,
        d_M=model.d,
        partition=partition,
        batch=resolved["batch"],
    )
    seed = resolved["seed"]
    mlps = [init_mlp(model.N + 2, 1, seed=seed + j) for j in range(model.d)]
    result = train(
        net_config,
        mlps,
        resolved["iters"],
        model,
        seed=seed,
        bridge=resolved["bridge"] == "on",
        out_dir=run_dir,
        checkpoint_every=100,
    )
    write_loss_csv(out_csv, result.losses, result.wall_ms, result.centering_residuals)
    save_checkpoint(os.path.join(run_dir, "final.ckpt"), result.mlps)
    title = f"{resolved['model']} {resolved['net']} steps={resolved['steps']}"
    txt_path, _ = write_report(run_dir, csv_name=os.path.basename(out_csv), title=title)
    with open(txt_path, "r", encoding="utf-8") as fh:
        sys.stdout.write(fh.read())
    return 0


def _cmd_converge(args):
    counts = SCHEMES[args.scheme].ladder
    if args.steps is not None:
        try:
            counts = [int(tok) for tok in args.steps.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"bad step list: {args.steps!r}")
    model = build_model(BSM_DEFAULTS)
    rows = run_convergence(
        model, args.scheme, counts, args.points, seed=args.seed, protocol=args.protocol
    )
    sys.stdout.write(f"{'steps':>8} {'abs_err':>14} {'slope':>8}\n")
    for row in rows:
        slope = f"{row.slope:8.3f}" if row.slope is not None else "     n/a"
        sys.stdout.write(f"{row.steps:>8} {row.abs_err:>14.6e} {slope}\n")
    return 0


def _cmd_oracle(args):
    tree = binomial_american_put(args.S0, args.K, args.sigma, args.T, args.r, steps=args.steps)
    euro = bs_european_put(args.S0, args.K, args.sigma, args.T, args.r)
    sys.stdout.write(f"binomial american put ({args.steps} steps): {tree:.6f}\n")
    sys.stdout.write(f"closed-form european put: {euro:.6f}\n")
    return 0


def _cmd_report(args):
    txt_path, _ = write_report(args.run)
    with open(txt_path, "r", encoding="utf-8") as fh:
        sys.stdout.write(fh.read())
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MartnetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
