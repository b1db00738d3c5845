"""Workload inputs and the in-process runner for the stabreg benchmark.

Each workload is a closed loop with one caller: one run of it starts only
after the previous one has finished.

* ``heat-report``: ``stabreg report`` on the translated heat model (README
  parameters apart from the sizes below: spectral mode, target -2, the
  regularity grid of three exponents and three horizons).  Real float64 loop; the time goes to
  the regularity scans and the imaginary-axis scans, which the CLI runs more
  than once on the same data.
* ``coupled-report``: ``stabreg report`` on the coupled model with its
  library-default targets and interior control, same ``[maxreg]`` grid.  Its
  feedback is complex, so the kernel runs in complex128; kernel and synthesis
  work shows here and not on heat.
* ``grid-study``: the three grid studies run as library calls in one process
  (exponent crossover, square-root bound, adjoint bound).  No regularity scan,
  kernel or CLI code runs; spectra, fractional powers and power-iteration
  norms dominate.  It is deterministic, so the seed is unused.

Sizes are smaller than the README's (heat n = 32, coupled n = 12, 8 random
forcings on 500 cells) so that several fresh-process runs fit one benchmark
run.  The scans' quadrature node count does not depend on them, so each
horizon still takes as many time steps as at full size.

Run as a script, this module executes one workload in the current process:

    python3 perfbench/workloads.py --workload heat-report --out DIR --seed 1234
        [--trace-file SPANS.json] [--setup-only]
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

NAMES = ("heat-report", "coupled-report", "grid-study")

HEAT = {"n": 32, "c2": 16.0}

MAXREG_SECTION = """
[maxreg]
p_grid = 1.5 2 4
t_grid = 10 20 40
forcing_count = 8
n_cells = 500
seed = {seed}
"""

CONFIGS = {
    "heat-report": """[model]
type = heat
n = {n}
c2 = {c2}
advection_b = 0.0
omega = 0.2 0.4
q = 2.0
epsilon = 0.01

[synthesis]
mode = spectral
targets = -2
""".format(**HEAT) + MAXREG_SECTION,
    "coupled-report": """[model]
type = coupled
n = 12

[synthesis]
mode = spectral
use_interior = true
""" + MAXREG_SECTION,
}

GRIDS = {
    "gamma": [16, 32, 64, 128, 256, 512],
    "h5": [16, 32, 64, 128, 256, 512],
    "adjoint": [16, 32, 64, 128, 256],
}


_REPORT_LAYERS = (
    "cli.build_model", "cli.build_closed_loop", "cli.cmd_spectrum",
    "cli.cmd_dirichlet_map", "cli.cmd_synthesize", "cli.cmd_verify",
    "maxreg.plateau_scan_multi", "maxreg.imaginary_axis_bound",
    "maxreg.maxreg_constants_multi", "maxreg.lp_time_norm",
    "maxreg.build_forcing_grid", "_kernels.lti_norm_scan",
    "operators.spectrum", "operators.spectral_norm", "operators.resolvent",
    "operators.resolvent_perturbation_residual",
    "operators.adjoint_decomposition_residual", "operators.decay_estimate",
    "synthesis.reduce", "synthesis.place_poles", "synthesis.build_feedback",
    "matio.write_csv",
)
# Entry points each workload must reach; a traced run in which one of them
# records no call fails, so a rename cannot turn into a silent zero.
EXPECTED = {
    "heat-report": _REPORT_LAYERS + ("heat.synthesize_heat_feedback",
                                     "heat.verify_stabilization"),
    "coupled-report": _REPORT_LAYERS + ("coupled.synthesize_coupled_feedback",
                                        "coupled.verify_coupled_stabilization"),
    "grid-study": ("operators.spectrum", "operators.spectral_norm",
                   "operators.real_power", "synthesis.reduce",
                   "synthesis.place_poles", "synthesis.build_feedback",
                   "heat.gamma_bound_scan", "heat.h5_bound_scan",
                   "coupled.adjoint_bound_scan",
                   "coupled.synthesize_coupled_feedback"),
}


def write_config(name, seed, path):
    """Write the INI input of a CLI workload for ``seed``; returns the path."""
    with open(path, "w") as fh:
        fh.write(CONFIGS[name].format(seed=seed))
    return path


def cli_argv(command, config, out_dir, seed):
    """Arguments for ``stabreg <command>`` on a CLI workload."""
    return [command, "--config", config, "--out", out_dir, "--seed", str(seed),
            "--parallel", "1"]


def grid_setup():
    """Import the library and build the smallest model of each study."""
    from stabreg import coupled, heat
    hcfg = heat.HeatConfig(n=GRIDS["gamma"][0], c2=16.0, q=2.0)
    heat.build_heat_operator(hcfg)
    heat.build_dirichlet_map(hcfg)
    ccfg = coupled.CoupledConfig(n=GRIDS["adjoint"][0])
    f_law, j_law, _ = coupled.synthesize_coupled_feedback(ccfg, targets=[-2.0, -3.0])
    coupled.compose_coupled_loop(ccfg, f_law, j_law)


def grid_study(out_dir):
    """Run the three grid studies and write their rows as ``grid.json``."""
    from stabreg import coupled, heat
    rows = {
        "gamma": heat.gamma_bound_scan(GRIDS["gamma"], [0.2, 0.75],
                                       heat.HeatConfig(c2=16.0, q=2.0)),
        "h5": heat.h5_bound_scan(GRIDS["h5"],
                                 heat.HeatConfig(c2=16.0, advection_b=5.0)),
        "adjoint": coupled.adjoint_bound_scan(GRIDS["adjoint"],
                                              coupled.CoupledConfig(n=16),
                                              targets=[-2.0, -3.0]),
    }
    rows = {k: [[float(x) for x in row] for row in v] for k, v in rows.items()}
    with open(os.path.join(out_dir, "grid.json"), "w") as fh:
        json.dump(rows, fh, sort_keys=True)
        fh.write("\n")
    return 0


def run(name, out_dir, seed, setup_only=False):
    """Run one workload in this process; returns its exit code."""
    os.makedirs(out_dir, exist_ok=True)
    if name == "grid-study":
        if setup_only:
            grid_setup()
            return 0
        return grid_study(out_dir)
    from stabreg import cli
    config = write_config(name, seed, os.path.join(out_dir, "input.ini"))
    command = "synthesize" if setup_only else "report"
    return cli.main(cli_argv(command, config, out_dir, seed))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, SRC)
    tracer = None
    if args.trace_file:
        from tracer import Tracer
        tracer = Tracer(args.workload)
        tracer.install()
    code = run(args.workload, args.out, args.seed, args.setup_only)
    if tracer is not None:
        tracer.dump(args.trace_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
