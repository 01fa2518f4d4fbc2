"""Plot-ready result files: CSV time series plus a JSON summary.

The CSV output is deterministic byte for byte across identical runs:
fixed column order, rows sorted by (time, arc id, cell index), and
every number printed with 17 significant digits.  The summary is
deterministic too apart from its wall-clock figures.  Networks without
a tracer field report the neutral placeholder 0.5 in the tracer column.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .simulate import TRACER_PLACEHOLDER, RunResult

__all__ = ["write_timeseries"]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_timeseries(result: RunResult, destination: str | Path) -> dict[str, Path]:
    """Write densities.csv, fluxes.csv, coefficients.csv, summary.json.

    A run recorded without profiles has no densities.csv; the other
    three files are written all the same.  Raises OSError when the
    destination is not writable.
    """
    dest = Path(destination)
    dest.mkdir(parents=True, exist_ok=True)

    order = sorted(range(len(result.arc_ids)), key=lambda k: result.arc_ids[k])
    paths = {
        "fluxes": dest / "fluxes.csv",
        "coefficients": dest / "coefficients.csv",
        "summary": dest / "summary.json",
    }

    if result.density is not None:
        paths["densities"] = dest / "densities.csv"
        offsets = np.concatenate(
            [[0], np.cumsum([result.cells_per_arc[a] for a in result.arc_ids])]
        )
        with open(paths["densities"], "w", newline="") as fh:
            fh.write("time,arc_id,cell,density,tracer\n")
            for ti, t in enumerate(result.times):
                time_txt = _fmt(t)
                for k in order:
                    arc_id = result.arc_ids[k]
                    rho = result.density[ti, offsets[k] : offsets[k + 1]]
                    if result.tracer is not None:
                        phi = result.tracer[ti, offsets[k] : offsets[k + 1]]
                    else:
                        phi = np.full(rho.shape, TRACER_PLACEHOLDER)
                    for cell, (r, p) in enumerate(zip(rho, phi)):
                        fh.write(f"{time_txt},{arc_id},{cell},{_fmt(r)},{_fmt(p)}\n")

    with open(paths["fluxes"], "w", newline="") as fh:
        fh.write("time,arc_id,flux\n")
        for ti, t in enumerate(result.times):
            time_txt = _fmt(t)
            for k in order:
                fh.write(f"{time_txt},{result.arc_ids[k]},{_fmt(result.arc_fluxes[ti, k])}\n")

    with open(paths["coefficients"], "w", newline="") as fh:
        fh.write("time,junction_id,from_arc,to_arc,coefficient\n")
        junction_ids = sorted(result.coefficients)
        for ti, t in enumerate(result.times):
            time_txt = _fmt(t)
            for jid in junction_ids:
                matrix = result.coefficients[jid][ti]
                incoming, outgoing = result.junction_arcs[jid]
                for col, src in enumerate(incoming):
                    for row, dst in enumerate(outgoing):
                        fh.write(
                            f"{time_txt},{jid},{src},{dst},{_fmt(matrix[row, col])}\n"
                        )

    summary = dict(result.summary)
    summary["first_arrival_coefficients"] = {
        jid: {"time": t, "column": column.tolist()}
        for jid, (t, column) in sorted(result.first_arrival_coefficients.items())
    }
    with open(paths["summary"], "w", newline="") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
