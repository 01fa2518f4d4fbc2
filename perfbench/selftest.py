"""Show that every output check can fail.

usage: python3 perfbench/selftest.py   (from the root of a tagflow checkout)

Runs each workload once with seed 1, requires its checks to pass on
the real output, then perturbs that output in one place per check and
requires the check to report it.  Exit code 0 when every perturbation
was caught.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import tagflow  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def perturbed(out: dict, change) -> dict:
    twin = copy.deepcopy(out)
    change(twin)
    return twin


def diamond_cases(out: dict):
    net = out["net"]
    k = out["arc_ids"].index(net.junctions[0].outgoing[0])
    yield "diamond mass accounting", lambda o: o["rho_end"].__setitem__(0, o["rho_end"][0] + 1e-6)
    yield "diamond junction balance", lambda o: o["last_fluxes"].__setitem__(
        o["arc_first_iface"][k], o["last_fluxes"][o["arc_first_iface"][k]] + 1e-12
    )


def roundabout_cases(out: dict):
    def flux(o):
        o["result"].summary["final_fluxes"]["S3"] *= 1.02

    def split(o):
        o["result"].coefficients["J4"][-1][0, 0] *= 1.02

    def settled(o):
        o["result"].equilibrium_time = None

    yield "roundabout final flux vs closed form", flux
    yield "roundabout final split vs closed form", split
    yield "roundabout equilibrium reached", settled


def grid_cases(out: dict):
    column = out["result"].arc_ids.index(out["net"].junctions[0].incoming[0])

    def admitted(o):
        o["result"].arc_fluxes[-1, column] += 0.01

    def mass(o):
        o["result"].summary["mass_residual"] = 1e-9

    yield "generic-grid admitted total vs oracle", admitted
    yield "generic-grid mass residual", mass


def main() -> int:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    missed = []
    try:
        suites = {
            "diamond-chain": (diamond_cases, lambda o, i: checks.check_diamond(o)),
            "roundabout": (roundabout_cases, lambda o, i: checks.check_roundabout(o, i, tagflow)),
            "generic-grid": (grid_cases, lambda o, i: checks.check_grid(o, tagflow)),
        }
        for name, (cases, check) in suites.items():
            make_inputs, execute = workloads.WORKLOADS[name]
            inputs = make_inputs(SEED, workdir)
            out = execute(tagflow, inputs, workdir)["outputs"]
            errors = check(out, inputs)
            print(f"{name}: unperturbed output {'passes' if not errors else 'FAILS: ' + '; '.join(errors)}")
            if errors:
                missed.append(f"{name} unperturbed")
            for label, change in cases(out):
                errors = check(perturbed(out, change), inputs)
                print(f"  {label}: {'caught: ' + errors[0] if errors else 'MISSED'}")
                if not errors:
                    missed.append(label)

            if name == "roundabout":
                paths = out["csv_paths"]
                digest = checks.csv_digest(paths)[0]
                flipped = workdir / "flipped"
                flipped.mkdir()
                copies = [Path(shutil.copy(p, flipped / p.name)) for p in paths]
                data = bytearray(copies[0].read_bytes())
                data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
                copies[0].write_bytes(bytes(data))
                records = [{"ok": True, "csv_sha256": d} for d in (digest, digest, checks.csv_digest(copies)[0])]
                problems: list[str] = []
                run.disagree(records, "CSV output", lambda r: r["csv_sha256"], problems)
                caught = not records[2]["ok"] and records[0]["ok"]
                print(f"  roundabout CSV identical across iterations: {'caught' if caught else 'MISSED'}")
                if not caught:
                    missed.append("CSV identity")

        records = [{"ok": True, "calls": c} for c in (1394, 1394, 1395)]
        run.disagree(records, "junctions.linprog.calls", lambda r: r["calls"], [])
        caught = not records[2]["ok"]
        print(f"call counts repeat across traced iterations: {'caught' if caught else 'MISSED'}")
        if not caught:
            missed.append("count repeatability")

        # a layer whose function is gone must be reported, not read as 0 calls
        renamed = types.SimpleNamespace(**{k: v for k, v in vars(tagflow.junctions).items() if k != "linprog"})
        recorder = spans.Recorder()
        recorder.install({**sys.modules, "tagflow.junctions": renamed})
        caught = recorder.missing == ["junctions.linprog"]
        print(f"trace target missing from the program: {'caught' if caught else 'MISSED'}")
        if not caught:
            missed.append("missing trace target")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if missed:
        print("missed: " + ", ".join(missed))
        return 1
    print("every check failed on its perturbed output")
    return 0


if __name__ == "__main__":
    sys.exit(main())
