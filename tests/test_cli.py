import os
import re
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from martnet.atomic import atomic_open
from martnet.cli import main
from martnet.config import parse_config_text, resolve_config, build_model, snapshot_text
from martnet.report import read_loss_csv, write_loss_csv, plateau_iteration, render_svg, write_report
from martnet.errors import UsageError, WriteError


def test_config_parse_roundtrip():
    cfg = parse_config_text("model=bsm\n# comment\nbatch=64\n\nsigma=0.32\n")
    assert cfg == {"model": "bsm", "batch": 64, "sigma": 0.32}


def _line_value(text):
    # a value survives a key = value line only without line breaks and surrounding blanks
    return text == text.strip() and len(text.splitlines()) <= 1


_positive = st.integers(min_value=1, max_value=2**40)
_shared_values = dict(
    S0=st.floats(1.0, 1e3),
    mu=st.floats(-1.0, 1.0),
    K=st.floats(1.0, 1e3),
    T=st.floats(1e-3, 10.0),
    net=st.sampled_from(["resnet", "nvnet", "nnet"]),
    steps=_positive,
    batch=_positive,
    iters=_positive,
    # heston seeds its second network seed + 1, which must fit an int64
    seed=st.integers(min_value=0, max_value=2**63 - 2),
    bridge=st.sampled_from(["on", "off"]),
    out=st.text(max_size=40).filter(_line_value),
)
_bsm_values = dict(_shared_values, model=st.sampled_from(["bsm", "BSM"]), sigma=st.floats(1e-3, 2.0))
_heston_values = dict(
    _shared_values,
    U0=st.floats(1e-3, 1.0),
    theta=st.floats(1e-3, 1.0),
    alpha=st.floats(1e-3, 10.0),
    rho=st.floats(-1.0, 1.0),
    beta=st.floats(1e-3, 2.0),
)
_config_dicts = st.one_of(
    st.fixed_dictionaries({}, optional=_bsm_values),
    st.fixed_dictionaries({"model": st.sampled_from(["heston", "Heston"])}, optional=_heston_values),
)


@settings(max_examples=100)
@given(_config_dicts)
def test_property_config_snapshot_round_trip(given_cfg):
    # one path cannot estimate the bridge's volatility (test_train_bridge_batch_one_is_a_usage_error)
    assume(given_cfg.get("batch", 2) >= 2 or given_cfg.get("bridge") == "off")
    cfg = resolve_config(given_cfg)
    assert resolve_config(parse_config_text(snapshot_text(cfg))) == cfg


@pytest.mark.parametrize(
    "model,key", [("bsm", k) for k in ("U0", "theta", "alpha", "rho", "beta")] + [("heston", "sigma")]
)
def test_other_model_key_rejected(model, key):
    with pytest.raises(UsageError, match=f"'{key}'"):
        resolve_config({"model": model, key: 0.5})


@pytest.mark.parametrize("model,seed", [("bsm", 2**63), ("heston", 2**63 - 1), ("heston", 2**63)])
def test_seed_past_int64_rejected(model, seed):
    # network j is seeded seed + j, and every network seed must fit an int64
    with pytest.raises(UsageError, match="seed"):
        resolve_config({"model": model, "seed": seed})


@pytest.mark.parametrize("model,seed", [("bsm", 2**63 - 1), ("heston", 2**63 - 2)])
def test_largest_seed_accepted(model, seed):
    assert resolve_config({"model": model, "seed": seed})["seed"] == seed


@pytest.mark.parametrize("seed", [-1, -(2**63)])
def test_negative_seed_rejected(seed):
    with pytest.raises(UsageError, match="seed"):
        resolve_config({"model": "bsm", "seed": seed})


def test_config_parse_errors():
    with pytest.raises(UsageError):
        parse_config_text("model bsm\n")
    with pytest.raises(UsageError):
        parse_config_text("model=bsm\nmodel=heston\n")
    with pytest.raises(UsageError):
        parse_config_text("volatility=0.3\n")


def test_resolve_defaults():
    cfg = resolve_config({"model": "bsm"})
    assert cfg["batch"] == 512 and cfg["iters"] == 300
    assert cfg["net"] == "nvnet" and cfg["steps"] == 4
    cfg2 = resolve_config({"model": "bsm", "net": "resnet"})
    assert cfg2["steps"] == 1024
    with pytest.raises(UsageError):
        resolve_config({"model": "garch"})
    with pytest.raises(UsageError):
        resolve_config({"model": "bsm", "net": "transformer"})


@pytest.mark.parametrize("key,value", [("T", float("nan")), ("sigma", float("inf"))])
def test_non_finite_float_rejected(key, value):
    with pytest.raises(UsageError, match=key):
        resolve_config({"model": "bsm", key: value})


def test_build_model_heston_defaults():
    cfg = resolve_config({"model": "heston"})
    model = build_model(cfg)
    assert model.name == "heston" and model.N == 2
    np.testing.assert_allclose(model.x0, [100.0, 0.32])


def test_snapshot_is_parseable():
    cfg = resolve_config({"model": "bsm", "seed": "7"})
    text = snapshot_text(cfg)
    again = resolve_config(parse_config_text(text))
    assert again["seed"] == 7 and again["model"] == "bsm"


def test_loss_csv_roundtrip(tmp_path):
    path = tmp_path / "run.csv"
    losses = np.array([20.0, 15.5, 14.25])
    wall = np.array([10.0, 11.0, 12.0])
    resid = np.array([1e-17, 0.0, 3.3e-16])
    write_loss_csv(path, losses, wall, resid)
    it, lo, wa = read_loss_csv(path)
    np.testing.assert_array_equal(it, [1, 2, 3])
    np.testing.assert_array_equal(lo, losses)
    np.testing.assert_array_equal(wa, wall)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert rows[0] == ["iteration", "loss", "wall_ms", "centering_residual"]
    np.testing.assert_array_equal([float(r[3]) for r in rows[1:]], resid)


def test_atomic_open_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write("half of the new ")
            raise RuntimeError("writer failed")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["config.txt"]
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["config.txt"]


@pytest.mark.parametrize("case", ["open", "replace"])
def test_atomic_open_os_error_names_path(tmp_path, case):
    # a path that cannot be opened or renamed onto is a WriteError (a MartnetError) naming it
    if case == "open":
        path = tmp_path / "missing" / "config.txt"
    else:
        path = tmp_path / "config.txt"
        path.mkdir()
    with pytest.raises(WriteError, match=re.escape(str(path))) as info:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write("new\n")
    assert isinstance(info.value.__cause__, OSError)
    # nothing is created when the open fails, and the temp file is gone after a failed rename
    assert os.listdir(tmp_path) == ([] if case == "open" else ["config.txt"])


def test_atomic_open_block_error_passes_through(tmp_path):
    # an OSError raised by the caller's own block is not rewrapped
    boom = OSError("writer failed")
    with pytest.raises(OSError) as info:
        with atomic_open(tmp_path / "config.txt", "w", encoding="utf-8"):
            raise boom
    assert info.value is boom
    assert os.listdir(tmp_path) == []


def test_loss_csv_failed_write_keeps_previous(tmp_path):
    path = tmp_path / "run.csv"
    write_loss_csv(path, [20.0, 15.0], [1.0, 1.0], [0.0, 0.0])
    before = path.read_bytes()
    with pytest.raises(ValueError):  # the second row fails after the header and first row
        write_loss_csv(path, [19.0, "bad"], [1.0, 1.0], [0.0, 0.0])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["run.csv"]


def test_plateau_iteration_definition():
    losses = [30.0, 20.0, 15.0, 12.1, 12.05, 12.0, 12.4]
    # threshold = 12.0 * 1.01: first hit is iteration 4
    assert plateau_iteration(np.arange(1, 8), losses) == 4


def test_render_svg_wellformed():
    # a run's title is its CSV's file name, which may hold XML's special characters
    for title in ("losses", "r&d.csv", "<a> 'b' \"c\""):
        svg = render_svg(np.arange(1, 11), np.linspace(20, 12, 10), title=title)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        root = ElementTree.fromstring(svg)
        assert root.find("{http://www.w3.org/2000/svg}polyline") is not None
        assert root.find("{http://www.w3.org/2000/svg}text").text == title


def test_oracle_subcommand(capsys):
    assert main(["oracle"]) == 0
    out = capsys.readouterr().out
    assert "12.66" in out


def test_converge_subcommand(capsys):
    assert main(["converge", "--scheme", "nv", "--steps", "1,2", "--points", "2048"]) == 0
    out = capsys.readouterr().out
    assert "slope" in out


def test_train_and_report_subcommands(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("model=bsm\nnet=nvnet\nsteps=2\nbatch=32\niters=3\nseed=1\n")
    run_dir = tmp_path / "run1"
    assert main(["train", "--config", str(cfg), "--out", str(run_dir / "run.csv")]) == 0
    assert (run_dir / "run.csv").exists()
    assert (run_dir / "config.txt").exists()
    assert (run_dir / "final.ckpt").exists()
    assert (run_dir / "report.svg").exists()
    # train prints the report.txt it wrote, once
    assert capsys.readouterr().out == (run_dir / "report.txt").read_text(encoding="utf-8")
    assert main(["report", "--run", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "plateau" in out


_BAD_LOSS_CSVS = {
    "non-numeric": b"iteration,loss,wall_ms\n1,2.5,3.0\n2,oops,3.0\n",
    "short-row": b"iteration,loss,wall_ms\n1,2.5,3.0\n2,2.5\n",
    "not-utf8": b"iteration,loss,wall_ms\n1,2.5,\xff\xfe\n",
    "nan-loss": b"iteration,loss,wall_ms\n1,2.5,3.0\n2,nan,3.0\n",
    "inf-loss": b"iteration,loss,wall_ms\n1,2.5,3.0\n2,-inf,3.0\n",
    "inf-wall": b"iteration,loss,wall_ms\n1,2.5,3.0\n2,2.5,inf\n",
    "negative-wall": b"iteration,loss,wall_ms\n1,2.5,3.0\n2,2.5,-5.0\n",
    "repeated-iteration": b"iteration,loss,wall_ms\n1,2.5,3.0\n1,2.0,3.0\n",
    "decreasing-iteration": b"iteration,loss,wall_ms\n2,2.5,3.0\n1,2.0,3.0\n",
}


@pytest.mark.parametrize("case", [*_BAD_LOSS_CSVS, "missing-dir"])
def test_report_bad_run_directory(tmp_path, capsys, case):
    # a damaged or absent run directory is a usage error naming the path, not a traceback
    run_dir = tmp_path / "run"
    if case in _BAD_LOSS_CSVS:
        run_dir.mkdir()
        (run_dir / "run.csv").write_bytes(_BAD_LOSS_CSVS[case])
    assert main(["report", "--run", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(run_dir) in err
    if case not in ("not-utf8", "missing-dir"):
        assert "line 3" in err
    assert not (run_dir / "report.svg").exists()


def test_train_unwritable_run_directory(tmp_path, capsys):
    # a run directory that cannot be created is a usage error naming it, not a traceback
    blocker = tmp_path / "X"
    blocker.write_text("a regular file\n")
    assert main(["train", "--iters", "1", "--out", str(blocker / "run.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err
    assert blocker.read_text() == "a regular file\n"


def test_train_reproducible_csv(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("model=bsm\nnet=nvnet\nsteps=2\nbatch=32\niters=3\nseed=5\n")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out", str(d1 / "run.csv")]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(d2 / "run.csv")]) == 0
    it1, lo1, _ = read_loss_csv(d1 / "run.csv")
    it2, lo2, _ = read_loss_csv(d2 / "run.csv")
    np.testing.assert_array_equal(it1, it2)
    np.testing.assert_array_equal(lo1, lo2)


def test_malformed_config_no_partial_dir(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model=bsm\nbatch=not_a_number\n")
    run_dir = tmp_path / "never"
    assert main(["train", "--config", str(cfg), "--out", str(run_dir / "run.csv")]) == 2
    assert not run_dir.exists()


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("model=bsm\nnet=nvnet\nsteps=2\nbatch=32\niters=3\nseed=5\n")
    run_dir = tmp_path / "r"
    assert main(["train", "--config", str(cfg), "--iters", "2", "--out", str(run_dir / "run.csv")]) == 0
    it, lo, _ = read_loss_csv(run_dir / "run.csv")
    assert len(lo) == 2
    lines = (run_dir / "run.csv").read_text().splitlines()
    assert lines[0].endswith(",centering_residual")
    assert all(float(line.split(",")[3]) < 1e-12 for line in lines[1:])


@pytest.mark.parametrize(
    "argv", [["train", "--seed", "-1", "--iters", "1"], ["converge", "--scheme", "nv", "--seed", "-3", "--points", "64"]]
)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    run_dir = tmp_path / "run"
    if argv[0] == "train":
        argv = [*argv, "--out", str(run_dir / "run.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert not run_dir.exists()


def test_train_seed_past_int64_is_a_usage_error(tmp_path, capsys):
    # rejected before config.txt or run.csv is written, not at the checkpoint
    run_dir = tmp_path / "run"
    argv = ["train", "--model", "heston", "--seed", str(2**63 - 1), "--iters", "1", "--out", str(run_dir / "run.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert not run_dir.exists()


def test_train_bridge_batch_one_is_a_usage_error(tmp_path, capsys):
    # rejected before config.txt is written, not inside the first iteration's loss
    run_dir = tmp_path / "run"
    argv = ["train", "--model", "bsm", "--batch", "1", "--iters", "2", "--steps", "2"]
    assert main([*argv, "--out", str(run_dir / "run.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "batch" in err and "bridge" in err
    assert not run_dir.exists()
    off_dir = tmp_path / "off"
    assert main([*argv, "--bridge", "off", "--out", str(off_dir / "run.csv")]) == 0
    assert len(read_loss_csv(off_dir / "run.csv")[1]) == 2


def test_unknown_scheme_rejected():
    with pytest.raises(SystemExit):
        main(["converge", "--scheme", "heun", "--steps", "1,2"])
