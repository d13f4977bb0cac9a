"""The three benchmark workloads: inputs, pipeline, and output checks.

Every workload drives the public API (mostly `run_cli`) with inputs
drawn from the seed.  The seed sets values, never sizes, so the work
done does not depend on it.  `make_inputs` is set-up; `run` is the
timed pipeline and ends when the last output is written; `check`
parses the outputs and counts operations and failed operations.

An operation is one ladder point, one Cesaro point, one discrepancy
point, one Denjoy-Koksma case or one eps point.
"""

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

import checks
from circlestab import (
    GOLDEN_MEAN,
    AtomicMeasure,
    LebesgueMeasure,
    cesaro_average,
    continued_fraction,
    run_cli,
    wasserstein,
)

# Input sizes; "tiny" exists for the smoke test only.
SIZES = {
    "full": {
        "ar_ladder": range(5, 16), "ar_orbit_len": 10 ** 5,
        "snap_ladder": range(5, 24),
        "discrepancy_ladder": [10 ** k for k in range(2, 7)],
        "dk_cases": 1000,
        "cesaro_ladder": [10 ** k for k in range(2, 6)],
        # the 1e6-atom rotation grid would add ~6 s per pass to the W
        # atomic-Lebesgue path that equidistribution already covers
        "rotation_ladder": [10 ** k for k in range(2, 6)],
        "diffeo_ladder": [10 ** k for k in range(2, 7)],
        "orbit_len": 10 ** 6,
    },
    "tiny": {
        "ar_ladder": range(5, 8), "ar_orbit_len": 10 ** 3,
        "snap_ladder": range(5, 8),
        "discrepancy_ladder": [100, 1000],
        "dk_cases": 10,
        "cesaro_ladder": [100, 1000],
        "rotation_ladder": [100, 1000],
        "diffeo_ladder": [100, 1000],
        "orbit_len": 10 ** 4,
    },
}

DEPTH = 30  # continued-fraction depth; the deepest ladder index is 23


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return path


def _config(path, **fields):
    return _write_json(path, dict(fields, alpha="golden", depth=DEPTH))


def _cli(argv):
    """run_cli with stdout and stderr captured; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run_cli([str(a) for a in argv])
    return code, out.getvalue()


def _read_csv(path):
    with open(path) as fh:
        return [(r["family_id"], float(r["size_param"]),
                 float(r["w_distance"]), r["measure_kind"])
                for r in csv.DictReader(fh)]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


class Ops:
    """Operations attempted and the keys of the ones that failed."""

    def __init__(self, keys):
        self.keys = list(keys)
        self.failed = {}

    def fail(self, failures):
        """Record failures; a key off the list fails its whole stage."""
        for key, reason in failures:
            for k in ([key] if key in self.keys
                      else [k for k in self.keys if k[0] == key[0]]):
                self.failed.setdefault(k, reason)

    def fail_all(self, keys, reason):
        self.fail((k, reason) for k in keys)

    def scan(self, prefix, keys, code, summary_path):
        """Account for one scan subcommand: exit code and in-band failures."""
        keys = [(prefix, k) for k in keys]
        if code != 0:
            self.fail_all(keys, f"exit code {code}")
            return False
        for f in _read_json(summary_path)["failures"]:
            self.fail([((prefix, f["param"]), f["error"])])
        return True


# ------------------------------------------------------- equidistribution

def _equidistribution_inputs(rng, size, workdir):
    bump = float(rng.uniform(0.5, 1.0))
    return {
        "bump": bump,
        "cesaro_x0": float(rng.uniform()),
        "dk_seed": int(rng.integers(2 ** 31)),
        "ar_config": _config(
            os.path.join(workdir, "ar_config.json"),
            family="attractor_repeller", ladder=list(size["ar_ladder"]),
            bump_strength=bump, orbit_len=size["ar_orbit_len"]),
        "snap_config": _config(
            os.path.join(workdir, "snap_config.json"),
            family="rational_snap", ladder=list(size["snap_ladder"])),
    }


def _equidistribution_run(inp, size, workdir):
    out = {}
    for name in ("ar", "snap"):
        csv_path = os.path.join(workdir, f"{name}.csv")
        json_path = os.path.join(workdir, f"{name}.json")
        out[name] = (_cli(["stability", "--config", inp[f"{name}_config"],
                           "--output", csv_path, "--json", json_path])[0],
                     csv_path, json_path)
    disc_path = os.path.join(workdir, "discrepancy.json")
    out["discrepancy"] = (_cli(["discrepancy", "--mode", "enclosure",
                                "--ladder", *size["discrepancy_ladder"],
                                "--output", disc_path])[0], disc_path)
    code, text = _cli(["dk-check", "--cases", size["dk_cases"],
                       "--seed", inp["dk_seed"]])
    dk_path = os.path.join(workdir, "dk.txt")
    with open(dk_path, "w") as fh:
        fh.write(text)
    out["dk"] = (code, dk_path)
    # criterion 5 has no subcommand: the library Cesaro ladder
    m, d0 = LebesgueMeasure(), AtomicMeasure.dirac(inp["cesaro_x0"])
    ws = [wasserstein(m, cesaro_average(d0, GOLDEN_MEAN, n))
          for n in size["cesaro_ladder"]]
    cesaro_path = os.path.join(workdir, "cesaro.csv")
    with open(cesaro_path, "w") as fh:
        fh.write("n,w_distance\n")
        fh.writelines(f"{n},{w:.17g}\n"
                      for n, w in zip(size["cesaro_ladder"], ws))
    out["cesaro"] = ws
    return out


def _equidistribution_check(inp, size, out, ops, taps):
    profile = continued_fraction(GOLDEN_MEAN, DEPTH)
    for name, ladder in (("ar", size["ar_ladder"]),
                         ("snap", size["snap_ladder"])):
        code, csv_path, json_path = out[name]
        if not ops.scan(name, ladder, code, json_path):
            continue
        j_of = {profile.convergents[j].delta: j for j in ladder}
        rows = [(j_of.get(s), s, w) for _, s, w, _ in _read_csv(csv_path)]
        if name == "ar":
            ops.fail(checks.criterion2_failures(rows))
        else:
            ops.fail(checks.snap_failures(
                [(j, profile.convergents[j].q if j is not None else None, w)
                 for j, _, w in rows]))

    code, disc_path = out["discrepancy"]
    if code != 0:
        ops.fail_all([("discrepancy", n) for n in size["discrepancy_ladder"]],
                     f"exit code {code}")
    else:
        ops.fail(checks.discrepancy_failures(_read_json(disc_path)["points"]))

    code, dk_path = out["dk"]
    with open(dk_path) as fh:
        text = fh.read()
    if code != 0 or not text.startswith("violations: "):
        ops.fail_all([("dk", k) for k in range(size["dk_cases"])],
                     f"dk-check exit code {code}")
    else:
        ops.fail(checks.dk_failures(int(text.split()[1]), size["dk_cases"]))

    ops.fail(checks.cesaro_failures(size["cesaro_ladder"], out["cesaro"]))
    return {}


# ------------------------------------------------------------- discretize

# Indices k of the conjugacy draws (h_a, h_b) = diffeo_draw(k) whose
# discretizations have 8 cycles in all over N = 1e2..1e6.  Every cycle
# costs one W call against the 2^21-atom reference (about 0.45 s), and
# over the first 48 draws the total ran from 5 to 15 cycles, so the seed
# picks among these draws to keep the work per pass the same.
DIFFEO_DRAWS = (0, 7, 8, 10, 17, 19, 22, 24, 28, 46)


def diffeo_draw(k):
    """(h_a, h_b) uniform on [0.1, 0.3] x [-0.1, 0.1], draw number k."""
    rng = np.random.default_rng([k, 99])
    return float(rng.uniform(0.1, 0.3)), float(rng.uniform(-0.1, 0.1))


def _discretize_inputs(rng, size, workdir):
    h_a, h_b = diffeo_draw(DIFFEO_DRAWS[rng.integers(len(DIFFEO_DRAWS))])
    return {
        "h_a": h_a, "h_b": h_b,
        "rotation_config": _config(os.path.join(workdir, "rotation_config.json"),
                                   family="rotation",
                                   ladder=size["rotation_ladder"]),
        "diffeo_config": _config(os.path.join(workdir, "diffeo_config.json"),
                                 family="diffeo", ladder=size["diffeo_ladder"],
                                 h_a=[h_a], h_b=[h_b]),
    }


def _discretize_run(inp, size, workdir):
    out = {}
    for fam in ("rotation", "diffeo"):
        csv_path = os.path.join(workdir, f"{fam}.csv")
        json_path = os.path.join(workdir, f"{fam}.json")
        out[fam] = (_cli(["discretize", "--config", inp[f"{fam}_config"],
                          "--output", csv_path, "--json", json_path])[0],
                    csv_path, json_path)
    return out


def _discretize_check(inp, size, out, ops, taps):
    rows = []
    for fam in ("rotation", "diffeo"):
        code, csv_path, json_path = out[fam]
        if ops.scan(fam, size[f"{fam}_ladder"], code, json_path):
            rows += [(fam, round(1.0 / s), kind, w)
                     for _, s, w, kind in _read_csv(csv_path)]
    ops.fail(checks.rotation_failures(
        [(N, kind, w) for fam, N, kind, w in rows if fam == "rotation"],
        GOLDEN_MEAN))
    ops.fail(checks.convexity_failures(rows))
    ops.fail(checks.basin_failures(taps))
    return {}


# --------------------------------------------------------------- response

def _response_inputs(rng, size, workdir):
    e1 = 1e-2 * float(rng.uniform(0.8, 1.2))
    return {"eps": [e1, e1 / 10]}


def _response_run(inp, size, workdir):
    path = os.path.join(workdir, "response.json")
    code = _cli(["response", "--eps", *inp["eps"],
                 "--orbit-len", size["orbit_len"], "--json", path])[0]
    return code, path


def _response_check(inp, size, out, ops, taps):
    code, path = out
    if code != 0:
        ops.fail_all([("eps", e) for e in inp["eps"]], f"exit code {code}")
        return {"fd_rel_err": math.nan}
    doc = _read_json(path)
    ops.fail(checks.response_failures(doc))
    return {"fd_rel_err": checks.fd_rel_err(doc)}


# workload: (inputs, run, check)
_STAGES = {
    "equidistribution": (_equidistribution_inputs, _equidistribution_run,
                         _equidistribution_check),
    "discretize": (_discretize_inputs, _discretize_run, _discretize_check),
    "response": (_response_inputs, _response_run, _response_check),
}


def make_inputs(workload, seed, size, workdir):
    """Workload inputs drawn from the seed; config files go to workdir."""
    rng = np.random.default_rng([seed, list(_STAGES).index(workload)])
    return _STAGES[workload][0](rng, SIZES[size], workdir)


def run(workload, inputs, size, workdir):
    return _STAGES[workload][1](inputs, SIZES[size], workdir)


def operation_keys(workload, inputs, size):
    """Keys of the operations one pass attempts."""
    if workload == "equidistribution":
        return ([("ar", j) for j in size["ar_ladder"]]
                + [("snap", j) for j in size["snap_ladder"]]
                + [("discrepancy", n) for n in size["discrepancy_ladder"]]
                + [("dk", k) for k in range(size["dk_cases"])]
                + [("cesaro", n) for n in size["cesaro_ladder"]])
    if workload == "discretize":
        return ([("rotation", N) for N in size["rotation_ladder"]]
                + [("diffeo", N) for N in size["diffeo_ladder"]])
    return [("eps", e) for e in inputs["eps"]]


def check(workload, inputs, size, outputs, taps):
    """(Ops, extra outputs) for one pass; outputs None if run raised."""
    ops = Ops(operation_keys(workload, inputs, SIZES[size]))
    if outputs is None:
        ops.fail_all(ops.keys, "the pipeline raised")
        return ops, {"fd_rel_err": math.nan} if workload == "response" else {}
    extra = _STAGES[workload][2](inputs, SIZES[size], outputs, ops, taps)
    return ops, extra
