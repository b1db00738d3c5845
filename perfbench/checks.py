"""Correctness checks on the files one workload run leaves behind.

Each check returns ``(name, ok)``; the benchmark counts every check it makes
and every one that fails.  The oracles are independent of the package: the
closed-form eigenvalues of the discrete heat operator, the triangle
inequality (y_t - A y = f forces every regularity constant to be >= 1), the
requested pole targets, and the grid-study criteria the acceptance tests
assert.
"""

import csv
import glob
import hashlib
import json
import math
import os

import numpy as np

POLE_TOL = 1e-6
EIG_TOL = 1e-8
# (study, exponent or None, kind, limit): the max/min ratio over the grid
# must stay below (kind "<") or above (kind ">") the limit.
GRID_CRITERIA = (("gamma", 0.2, "<", 1.5), ("gamma", 0.75, ">", 4.0),
                 ("h5", None, "<", 1.3), ("adjoint", None, "<", 1.5))


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _complex(token):
    return complex(token[:-1] + "j" if token.endswith("i") else token)


def heat_eigenvalues(n, c2):
    """Closed-form spectrum of the centered FD Laplacian plus c2 on n nodes."""
    h = 1.0 / (n + 1)
    k = np.arange(1, n + 1)
    return c2 - (4.0 / h**2) * np.sin(k * np.pi * h / 2.0) ** 2


def check_report(out_dir, heat_model=None):
    """Checks on a ``stabreg report`` output directory."""
    out = []
    for row in _rows(os.path.join(out_dir, "verify.csv")):
        out.append((f"verify:{row['check']}", row["status"] == "PASS"))
    for row in _rows(os.path.join(out_dir, "maxreg.csv")):
        tag = f"maxreg:p={row['p']},T={row['T']}"
        c = float(row["C_estimate"])
        out.append((f"{tag}:verdict", row["verdict"] == "plateau"))
        out.append((f"{tag}:C>=1", math.isfinite(c) and c >= 1.0))
    poles = _rows(os.path.join(out_dir, "achieved_poles.csv"))
    out.append(("poles:present", bool(poles)))
    for row in poles:
        err = abs(_complex(row["achieved"]) - _complex(row["target"]))
        out.append((f"poles:k={row['k']}", err <= POLE_TOL))
    if heat_model is not None:
        exact = heat_eigenvalues(heat_model["n"], heat_model["c2"])
        exact = np.sort(exact[exact >= 0.0])[::-1]
        got = [complex(float(r["re_lambda"]), float(r["im_lambda"]))
               for r in _rows(os.path.join(out_dir, "spectrum.csv"))
               if r["unstable"] == "1"]
        ok = len(got) == len(exact) and all(
            abs(g - e) <= EIG_TOL * max(1.0, abs(e)) for g, e in zip(got, exact))
        out.append(("spectrum:unstable=closed_form", ok))
    return out


def check_grid(out_dir):
    """Checks on the grid-study rows: every criterion's max/min ratio."""
    with open(os.path.join(out_dir, "grid.json")) as fh:
        rows = json.load(fh)
    out = []
    for study, exponent, kind, limit in GRID_CRITERIA:
        vals = [r[-1] for r in rows[study] if exponent is None or r[1] == exponent]
        ratio = max(vals) / min(vals) if vals and min(vals) > 0 else math.nan
        ok = ratio < limit if kind == "<" else ratio > limit
        out.append((f"grid:{study}{'' if exponent is None else exponent}{kind}{limit}", ok))
    return out


def digests(out_dir):
    """sha256 of every CSV and JSON result in ``out_dir``."""
    out = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))
                       + glob.glob(os.path.join(out_dir, "*.json"))):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out
