"""Run reporting: loss-CSV reading, plateau summary, text and SVG output."""

import csv
import os

import numpy as np

from .atomic import atomic_open
from .errors import UsageError


def read_loss_csv(path):
    """Read an iteration,loss,wall_ms[,...] CSV; returns three numpy arrays."""
    iterations, losses, wall = [], [], []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:3]] != ["iteration", "loss", "wall_ms"]:
                raise UsageError(f"{path}: expected header iteration,loss,wall_ms")
            for row in reader:
                if not row:
                    continue
                try:
                    iterations.append(int(row[0]))
                    losses.append(float(row[1]))
                    wall.append(float(row[2]))
                except (ValueError, IndexError):
                    raise UsageError(f"{path}, line {reader.line_num}: expected iteration,loss,wall_ms, got {row}")
    except (UnicodeDecodeError, csv.Error) as exc:
        raise UsageError(f"{path} is not a CSV text file: {exc}")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    if not losses:
        raise UsageError(f"{path}: no data rows")
    return np.array(iterations), np.array(losses), np.array(wall)


def write_loss_csv(path, losses, wall_ms, centering_residuals):
    """Write the loss curve and the largest |mean M| per iteration.

    Iterations are 1-based; loss and residual at full precision.
    """
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,loss,wall_ms,centering_residual\n")
        for i, (l, w, r) in enumerate(zip(losses, wall_ms, centering_residuals), start=1):
            fh.write(f"{i},{repr(float(l))},{float(w):.3f},{repr(float(r))}\n")


def plateau_iteration(iterations, losses):
    """First iteration whose loss is within 1% of the run minimum."""
    losses = np.asarray(losses, dtype=np.float64)
    lo = float(losses.min())
    threshold = lo + 0.01 * abs(lo)
    idx = int(np.argmax(losses <= threshold))
    return int(np.asarray(iterations)[idx])


def summarize(iterations, losses, wall_ms):
    return {
        "iterations": int(len(losses)),
        "final_loss": float(losses[-1]),
        "min_loss": float(np.min(losses)),
        "plateau_iteration": plateau_iteration(iterations, losses),
        "total_wall_s": float(np.sum(wall_ms)) / 1000.0,
    }


def render_text(summary, title="training run"):
    lines = [
        f"report: {title}",
        f"iterations:        {summary['iterations']}",
        f"final loss:        {summary['final_loss']:.6f}",
        f"minimum loss:      {summary['min_loss']:.6f}",
        f"plateau iteration: {summary['plateau_iteration']} (first within 1% of minimum)",
        f"total wall time:   {summary['total_wall_s']:.1f} s",
    ]
    return "\n".join(lines) + "\n"


def render_svg(iterations, losses, title="loss", width=720, height=400):
    """Self-contained SVG polyline of the loss curve with axis labels."""
    iterations = np.asarray(iterations, dtype=np.float64)
    losses = np.asarray(losses, dtype=np.float64)
    left, right, top, bottom = 60.0, 20.0, 30.0, 40.0
    pw = width - left - right
    ph = height - top - bottom
    x0, x1 = float(iterations.min()), float(iterations.max())
    y0, y1 = float(losses.min()), float(losses.max())
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return left + (x - x0) / (x1 - x0) * pw

    def py(y):
        return top + (y1 - y) / (y1 - y0) * ph

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(iterations, losses))
    yticks = np.linspace(y0, y1, 5)
    xticks = np.linspace(x0, x1, 5)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="18" font-family="sans-serif" font-size="13">{title}</text>',
    ]
    for yt in yticks:
        yy = py(yt)
        parts.append(
            f'<line x1="{left}" y1="{yy:.2f}" x2="{width - right}" y2="{yy:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{yy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{yt:.2f}</text>'
        )
    for xt in xticks:
        xx = px(xt)
        parts.append(
            f'<text x="{xx:.2f}" y="{height - bottom + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{xt:.0f}</text>'
        )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>'
    )
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#2060c0" stroke-width="1.5"/>')
    parts.append(
        f'<text x="{(left + width - right) / 2:.0f}" y="{height - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">iteration</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report(run_dir, csv_name=None, title=None):
    """Build report.txt and report.svg beside a run's loss CSV."""
    if csv_name is None:
        try:
            names = os.listdir(run_dir)
        except OSError as exc:
            raise UsageError(f"cannot list run directory {run_dir}: {exc}")
        candidates = sorted(n for n in names if n.endswith(".csv"))
        if len(candidates) != 1:
            raise UsageError(f"{run_dir}: expected exactly one .csv, found {candidates}")
        csv_name = candidates[0]
    csv_path = os.path.join(run_dir, csv_name)
    iterations, losses, wall = read_loss_csv(csv_path)
    summary = summarize(iterations, losses, wall)
    text = render_text(summary, title=title or csv_name)
    svg = render_svg(iterations, losses, title=title or csv_name)
    txt_path = os.path.join(run_dir, "report.txt")
    svg_path = os.path.join(run_dir, "report.svg")
    with atomic_open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with atomic_open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return txt_path, svg_path
