"""Plot-ready result files: CSV time series plus a JSON summary.

The CSV output is deterministic byte for byte across identical runs:
fixed column order, rows sorted by (time, arc id, cell index), and
every number printed with 17 significant digits.  The summary is
deterministic too apart from its wall-clock figures.  Networks without
a tracer field report the neutral placeholder 0.5 in the tracer column.

Each file is written one sample at a time.  The text in front of each
value (arc id and cell, or junction and arc pair) is the same in every
sample, so it is built once per file.  Per sample the values are
gathered in file order, each distinct float64 bit pattern among them is
formatted once, and the sample's rows go out as one string.  A sample
whose values repeat the previous one's bit for bit, as every sample
past a run's fixed point does, reuses that sample's text.  The writer
therefore holds at most two samples' text at a time, and its memory
does not grow with the number of samples.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .simulate import TRACER_PLACEHOLDER, RunResult

__all__ = ["write_timeseries"]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _texts(values: np.ndarray) -> list[str]:
    """`_fmt` of each float64 in `values`, one call per distinct bit pattern.

    Keying on the bits, not the value, keeps -0.0 apart from 0.0.
    """
    keys = values.view(np.int64).tolist()
    memo = dict(zip(keys, values.tolist()))
    for key, value in memo.items():
        memo[key] = _fmt(value)
    return list(map(memo.__getitem__, keys))


def _sample_texts(samples):
    """`_texts` of each sample in turn; a sample whose bits equal the
    previous sample's reuses its list."""
    bits = texts = None
    for values in samples:
        if bits is None or not np.array_equal(values.view(np.int64), bits):
            bits, texts = values.view(np.int64), _texts(values)
        yield texts


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
        cells = np.concatenate([np.arange(offsets[k], offsets[k + 1]) for k in order])
        heads = [
            f",{result.arc_ids[k]},{cell},"
            for k in order
            for cell in range(result.cells_per_arc[result.arc_ids[k]])
        ]
        with open(paths["densities"], "w", newline="") as fh:
            fh.write("time,arc_id,cell,density,tracer\n")
            rhos = _sample_texts(sample.take(cells) for sample in result.density)
            if result.tracer is None:
                phis = repeat(repeat(_fmt(TRACER_PLACEHOLDER)))
            else:
                phis = _sample_texts(sample.take(cells) for sample in result.tracer)
            for t, rho, phi in zip(result.times, rhos, phis):
                time_txt = _fmt(t)
                fh.write(
                    "".join(
                        [f"{time_txt}{head}{r},{p}\n" for head, r, p in zip(heads, rho, phi)]
                    )
                )

    with open(paths["fluxes"], "w", newline="") as fh:
        fh.write("time,arc_id,flux\n")
        heads = [f",{result.arc_ids[k]}," for k in order]
        fluxes = _sample_texts(sample.take(order) for sample in result.arc_fluxes)
        for t, flux in zip(result.times, fluxes):
            time_txt = _fmt(t)
            fh.write("".join([f"{time_txt}{head}{f}\n" for head, f in zip(heads, flux)]))

    with open(paths["coefficients"], "w", newline="") as fh:
        fh.write("time,junction_id,from_arc,to_arc,coefficient\n")
        junction_ids = sorted(result.coefficients)
        matrices = [result.coefficients[jid] for jid in junction_ids]
        heads = [
            f",{jid},{src},{dst},"
            for jid in junction_ids
            for src in result.junction_arcs[jid][0]
            for dst in result.junction_arcs[jid][1]
        ]
        # a matrix is (n_out, n_in) and the file runs over incoming arcs
        # first, so each sample's matrix is read transposed
        coefs = _sample_texts(
            np.concatenate([m[ti].T for m in matrices], axis=None) for ti in range(len(result.times))
        )
        # a network without junctions has no coefficient rows
        for t, coef in zip(result.times if matrices else (), coefs):
            time_txt = _fmt(t)
            fh.write("".join([f"{time_txt}{head}{c}\n" for head, c in zip(heads, coef)]))

    summary = dict(result.summary)
    summary["first_arrival_coefficients"] = {
        jid: {"time": t, "column": column.tolist()}
        for jid, (t, column) in sorted(result.first_arrival_coefficients.items())
    }
    with open(paths["summary"], "w", newline="") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
