"""Configuration-driven experiment runner.

Subcommands: spectrum | dirichlet-map | synthesize | simulate | maxreg |
verify | report.  Configuration is flat key-value INI text with section
headers ([model], [synthesis], [simulate], [maxreg], [output]); an unknown
section or key is a configuration error.  Every run writes a manifest next to
its outputs; CSVs are deterministic for a fixed config + seed.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure, 4 rank-check failure.
"""

import argparse
import configparser
import os
import sys

import numpy as np
import scipy

from . import __version__, coupled, heat, matio, maxreg
from .errors import (
    ConfigError,
    NumericalError,
    RankCheckFailure,
    StabregError,
)
from .operators import (
    Operator,
    adjoint_decomposition_residual,
    compose_closed_loop,
    resolvent_perturbation_residual,
    spectral_abscissa,
    spectral_norm,
    spectrum,
)
from .synthesis import unstable_projection

SPECTRUM_HEADER = "k,re_lambda,im_lambda,unstable"
POLES_HEADER = "k,mode,target,achieved"
VERIFY_HEADER = "check,value,threshold,status"
DIRICHLET_HEADER = "column,label,norm"
TRAJECTORY_HEADER = "t,norm_y,norm_yt"


# Accepted keys per section; [model] keys depend on the model type.  Keys are
# matched after configparser lower-cases them ([simulate] T is "t").
_MODEL_KEYS = {
    "heat": {"n", "c2", "advection_b", "omega", "q", "epsilon"},
    "coupled": {"n", "nu", "kappa", "gamma_buoy", "theta_e", "ye_advect",
                "c2_f", "c2_h", "omega", "q", "epsilon"},
    "abstract": {"operator_file", "green_file", "green_gamma", "feedback_file"},
}
_SECTION_KEYS = {
    "synthesis": {"mode", "targets", "use_interior"},
    "simulate": {"t", "n_cells", "forcing"},
    "maxreg": {"p_grid", "t_grid", "forcing_count", "n_cells", "seed"},
    "output": {"dir"},
}

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _get(cfgp, section, key, default=None, cast=str):
    if not cfgp.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    raw = cfgp.get(section, key).strip()
    try:
        if cast is bool:
            if raw.lower() not in _BOOLS:
                raise ValueError(f"expected one of {', '.join(_BOOLS)}")
            return _BOOLS[raw.lower()]
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _get_floats(cfgp, section, key, default=None):
    if not cfgp.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing [{section}] {key}")
        return list(default)
    raw = cfgp.get(section, key).split()
    try:
        return [float(t) for t in raw]
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _get_complex_list(cfgp, section, key):
    if not cfgp.has_option(section, key):
        return None
    raw = cfgp.get(section, key).split()
    return [matio.parse_complex(t) for t in raw] if raw else None


class ModelBundle:
    """Everything a subcommand needs, built once from the parsed config."""

    def __init__(self, kind, operator, green, model_cfg, extra=None):
        self.kind = kind
        self.operator = operator
        self.green = green
        self.model_cfg = model_cfg
        self.extra = extra or {}


def load_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not parser.has_section("model"):
        raise ConfigError("config needs a [model] section")
    _check_keys(parser)
    return parser


def _check_keys(parser):
    """Reject unknown sections and keys, so a typo cannot be silently ignored."""
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    kind = parser.get("model", "type", fallback=None)
    # a missing or unknown type is reported by build_model, so skip its keys
    model_keys = _MODEL_KEYS.get(kind, set(parser.options("model")))
    allowed = dict(_SECTION_KEYS, model=model_keys | {"type"})
    for section in parser.sections():
        if section not in allowed:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(set(parser.options(section)) - allowed[section])
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")


def build_model(cfgp):
    kind = _get(cfgp, "model", "type")
    if kind == "heat":
        omega = _get_floats(cfgp, "model", "omega", (0.2, 0.4))
        mc = heat.HeatConfig(
            n=_get(cfgp, "model", "n", 64, int),
            c2=_get(cfgp, "model", "c2", 16.0, float),
            advection_b=_get(cfgp, "model", "advection_b", 0.0, float),
            omega=tuple(omega),
            q=_get(cfgp, "model", "q", 2.0, float),
            epsilon=_get(cfgp, "model", "epsilon", 0.01, float),
        )
        return ModelBundle(kind, heat.build_heat_operator(mc),
                           heat.build_dirichlet_map(mc), mc)
    if kind == "coupled":
        omega = _get_floats(cfgp, "model", "omega", (0.25, 0.45))
        mc = coupled.CoupledConfig(
            n=_get(cfgp, "model", "n", 48, int),
            nu=_get(cfgp, "model", "nu", 1.0, float),
            kappa=_get(cfgp, "model", "kappa", 1.0, float),
            gamma_buoy=_get(cfgp, "model", "gamma_buoy", 0.1, float),
            theta_e_profile=_get(cfgp, "model", "theta_e", 0.5, float),
            ye_advect=_get(cfgp, "model", "ye_advect", 0.0, float),
            c2_f=_get(cfgp, "model", "c2_f", 16.0, float),
            c2_h=_get(cfgp, "model", "c2_h", 16.0, float),
            omega=tuple(omega),
            q=_get(cfgp, "model", "q", 2.0, float),
            epsilon=_get(cfgp, "model", "epsilon", 0.01, float),
        )
        return ModelBundle(kind, coupled.build_block_operator(mc),
                           coupled.build_thermal_dirichlet_map(mc), mc)
    if kind == "abstract":
        op_path = _get(cfgp, "model", "operator_file")
        if not os.path.exists(op_path):
            raise ConfigError(f"operator file not found: {op_path}")
        entries = matio.read_matrix(op_path)
        if np.abs(entries.imag).max(initial=0.0) == 0.0:
            entries = entries.real
        op = Operator(entries, label="abstract operator")
        green = None
        if cfgp.has_option("model", "green_file"):
            g_path = cfgp.get("model", "green_file")
            if not os.path.exists(g_path):
                raise ConfigError(f"green-map file not found: {g_path}")
            gm = matio.read_matrix(g_path)
            if np.abs(gm.imag).max(initial=0.0) == 0.0:
                gm = gm.real
            from .operators import GreenMap
            green = GreenMap(gm, gamma=_get(cfgp, "model", "green_gamma", 0.25, float))
        extra = {}
        if cfgp.has_option("model", "feedback_file"):
            extra["feedback"] = matio.read_matrix(cfgp.get("model", "feedback_file"))
        return ModelBundle(kind, op, green, None, extra)
    raise ConfigError(f"unknown model type {kind!r} (expected heat | coupled | abstract)")


def build_closed_loop(cfgp, bundle):
    """Synthesize per [synthesis] and compose; returns (loop-like, mode, info).

    For heat: a ClosedLoop.  For coupled: a CoupledLoop.  For abstract: a
    ClosedLoop with the feedback file (or zero feedback).
    """
    mode = _get(cfgp, "synthesis", "mode", "spectral") if cfgp.has_section("synthesis") else "spectral"
    targets = _get_complex_list(cfgp, "synthesis", "targets") if cfgp.has_section("synthesis") else None
    if bundle.kind == "heat":
        law, info = heat.synthesize_heat_feedback(bundle.model_cfg, mode=mode, targets=targets)
        return heat.closed_loop_heat(bundle.model_cfg, law), mode, info
    if bundle.kind == "coupled":
        use_interior = (_get(cfgp, "synthesis", "use_interior", True, bool)
                        if cfgp.has_section("synthesis") else True)
        f_law, j_law, info = coupled.synthesize_coupled_feedback(
            bundle.model_cfg, targets=targets, use_interior=use_interior)
        return coupled.compose_coupled_loop(bundle.model_cfg, f_law, j_law), mode, info
    if bundle.green is None:
        raise ConfigError("abstract model needs green_file to compose a closed loop")
    fb = bundle.extra.get("feedback")
    cl = compose_closed_loop(bundle.operator, bundle.green, fb)
    return cl, "abstract", {}


def _manifest(out_dir, args, cfgp):
    lines = [
        f"command: {args.command}",
        f"stabreg: {__version__}",
        f"numpy: {np.__version__}",
        f"scipy: {scipy.__version__}",
        f"seed: {_scan_seed(cfgp, args.seed)}",
        "config:",
    ]
    for section in cfgp.sections():
        lines.append(f"  [{section}]")
        for key, value in cfgp.items(section):
            lines.append(f"  {key} = {value}")
    matio.write_text(os.path.join(out_dir, "manifest.txt"), "\n".join(lines) + "\n")


def _scan_seed(cfgp, seed_override):
    """Seed of the regularity scans: --seed, else [maxreg] seed, else 0."""
    if seed_override is not None:
        return seed_override
    return _get(cfgp, "maxreg", "seed", 0, int) if cfgp.has_section("maxreg") else 0


def _maxreg_params(cfgp, seed_override):
    sec = "maxreg"
    p_grid = _get_floats(cfgp, sec, "p_grid", (1.5, 2.0, 4.0)) if cfgp.has_section(sec) else [1.5, 2.0, 4.0]
    t_grid = _get_floats(cfgp, sec, "t_grid", (10.0, 20.0, 40.0)) if cfgp.has_section(sec) else [10.0, 20.0, 40.0]
    n_random = _get(cfgp, sec, "forcing_count", 32, int) if cfgp.has_section(sec) else 32
    n_cells = _get(cfgp, sec, "n_cells", 2000, int) if cfgp.has_section(sec) else 2000
    return p_grid, t_grid, n_random, n_cells, _scan_seed(cfgp, seed_override)


def cmd_spectrum(args, cfgp, out_dir, seed, bundle=None):
    if bundle is None:
        bundle = build_model(cfgp)
    sp = spectrum(bundle.operator)
    rows = [(k + 1, lam.real, lam.imag, k < sp.unstable_count)
            for k, lam in enumerate(sp.eigenvalues)]
    matio.write_csv(os.path.join(out_dir, "spectrum.csv"), SPECTRUM_HEADER, rows)
    return 0


def cmd_dirichlet_map(args, cfgp, out_dir, seed, bundle=None):
    if bundle is None:
        bundle = build_model(cfgp)
    if bundle.green is None:
        raise ConfigError("model provides no boundary lifting map")
    matio.write_matrix(os.path.join(out_dir, "dirichlet_map.txt"), bundle.green.entries)
    h = bundle.model_cfg.h if bundle.model_cfg is not None else 1.0
    rows = [(j + 1, label, heat.state_norm_q(bundle.green.entries[:, j], h, 2.0))
            for j, label in enumerate(bundle.green.input_labels)]
    matio.write_csv(os.path.join(out_dir, "dirichlet_map.csv"), DIRICHLET_HEADER, rows)
    return 0


def cmd_synthesize(args, cfgp, out_dir, seed, bundle=None, built=None):
    if bundle is None:
        bundle = build_model(cfgp)
    if built is None:
        built = build_closed_loop(cfgp, bundle)
    loop, mode, info = built
    if bundle.kind == "coupled":
        fmat = loop.f_law.as_matrix
        matio.write_matrix(os.path.join(out_dir, "interior_matrix.txt"), loop.j_law.as_matrix)
    else:
        fmat = loop.feedback_matrix()
    matio.write_matrix(os.path.join(out_dir, "feedback_matrix.txt"), fmat)
    targets = info.get("targets", np.array([]))
    achieved = info.get("achieved", np.array([]))
    rows = []
    tsort = sorted(np.asarray(targets, dtype=complex), key=lambda z: (-z.real, -z.imag))
    asort = sorted(np.asarray(achieved, dtype=complex), key=lambda z: (-z.real, -z.imag))
    for k, (t, a) in enumerate(zip(tsort, asort)):
        rows.append((k + 1, mode, t, a))
    matio.write_csv(os.path.join(out_dir, "achieved_poles.csv"), POLES_HEADER, rows)
    return 0


def cmd_simulate(args, cfgp, out_dir, seed):
    bundle = build_model(cfgp)
    loop, mode, _ = build_closed_loop(cfgp, bundle)
    composed = loop.composed
    a = maxreg.operator_matrix(composed)
    sec = "simulate"
    horizon = _get(cfgp, sec, "T", 10.0, float) if cfgp.has_section(sec) else 10.0
    n_cells = _get(cfgp, sec, "n_cells", 2000, int) if cfgp.has_section(sec) else 2000
    spec_f = (_get(cfgp, sec, "forcing", "constant") if cfgp.has_section(sec) else "constant").split()
    if spec_f[0] == "constant":
        f = maxreg.constant_forcing(np.ones(a.shape[0]), horizon)
    elif spec_f[0] == "random":
        f = maxreg.piecewise_random_forcing(a.shape[0], horizon, n_cells, seed=seed or 0)
    elif spec_f[0] == "single_mode":
        index = int(spec_f[1]) if len(spec_f) > 1 else 0
        modes = maxreg.single_mode_forcings(a, horizon)
        if index >= len(modes):
            raise ConfigError(f"mode index {index} out of range (n = {len(modes)})")
        f = modes[index]
    else:
        raise ConfigError(f"unknown forcing kind {spec_f[0]!r}")
    refine = max(1, int(np.ceil(n_cells / f.n_cells)))
    t, y = maxreg.solution_map(composed, f, refine=refine)
    cell = np.minimum((np.arange(len(t)) - 1) // refine, f.n_cells - 1).clip(0)
    fvals = f.values[cell]
    dy = y @ a.T + fvals
    rows = [(t[i], float(np.linalg.norm(y[i])), float(np.linalg.norm(dy[i])))
            for i in range(len(t))]
    matio.write_csv(os.path.join(out_dir, "trajectory.csv"), TRAJECTORY_HEADER, rows)
    return 0


def _plateau_reports(composed, p_grid, t_grid, n_random, n_cells, seed, workers):
    sets = maxreg.build_forcing_grid(composed, t_grid, n_random=n_random,
                                     seed=seed, n_cells_max=n_cells)
    return maxreg.plateau_scan_multi(composed, p_grid, t_grid, sets,
                                     workers=workers or 1)


def cmd_maxreg(args, cfgp, out_dir, seed):
    bundle = build_model(cfgp)
    loop, mode, _ = build_closed_loop(cfgp, bundle)
    p_grid, t_grid, n_random, n_cells, mseed = _maxreg_params(cfgp, seed)
    reports = _plateau_reports(loop.composed, p_grid, t_grid, n_random, n_cells,
                               mseed, args.parallel)
    rows = maxreg.report_rows(bundle.kind, mode, reports)
    matio.write_csv(os.path.join(out_dir, "maxreg.csv"), maxreg.CSV_HEADER, rows)
    return 0


def _identity_rows(cl, seed, n_lambda=20):
    """Structural identity residuals for a composed ClosedLoop."""
    rows = []
    rng = np.random.default_rng(seed)
    drift = cl.drift_A.entries
    a_f = cl.feedback_part()
    right = max(spectral_abscissa(cl.drift_A), float(np.max(np.linalg.eigvals(a_f).real)))
    worst = 0.0
    for _ in range(n_lambda):
        lam = complex(right + 1.0 + 49.0 * rng.random(), -50.0 + 100.0 * rng.random())
        worst = max(worst, resolvent_perturbation_residual(cl, lam))
    rows.append(("resolvent_identity_max", worst, 1e-8, "PASS" if worst <= 1e-8 else "FAIL"))
    resid32 = adjoint_decomposition_residual(cl)
    rows.append(("adjoint_decomposition", resid32, 1e-8,
                 "PASS" if resid32 <= 1e-8 else "FAIL"))
    sp = spectrum(cl.drift_A)
    pn = unstable_projection(sp).entries
    idem = spectral_norm(pn @ pn - pn)
    rows.append(("projection_idempotency", idem, 1e-8, "PASS" if idem <= 1e-8 else "FAIL"))
    comm = spectral_norm(pn @ drift - drift @ pn) / max(spectral_norm(drift), 1e-300)
    rows.append(("projection_commutation", comm, 1e-6, "PASS" if comm <= 1e-6 else "FAIL"))
    return rows


def cmd_verify(args, cfgp, out_dir, seed, bundle=None, built=None):
    if bundle is None:
        bundle = build_model(cfgp)
    if built is None:
        built = build_closed_loop(cfgp, bundle)
    loop, mode, _ = built
    p_grid, t_grid, n_random, n_cells, mseed = _maxreg_params(cfgp, seed)
    scan = dict(p_grid=p_grid, t_horizons=t_grid, n_random=n_random,
                seed=mseed, n_cells=n_cells, workers=args.parallel)
    rows = _identity_rows(loop.loop if bundle.kind == "coupled" else loop, mseed)
    if bundle.kind == "coupled":
        report = coupled.verify_coupled_stabilization(loop, **scan)
    elif bundle.kind == "heat":
        report = heat.verify_stabilization(loop, **scan)
    else:
        report = None
    if report is not None:
        rows.extend(report.summary_rows())
    matio.write_csv(os.path.join(out_dir, "verify.csv"), VERIFY_HEADER, rows)
    reports = report.scans if report is not None else _plateau_reports(
        loop.composed, p_grid, t_grid, n_random, n_cells, mseed, args.parallel)
    matio.write_csv(os.path.join(out_dir, "maxreg.csv"), maxreg.CSV_HEADER,
                    maxreg.report_rows(bundle.kind, mode, reports))
    return 0


def cmd_report(args, cfgp, out_dir, seed):
    """Every artifact from one model bundle and one closed loop."""
    bundle = build_model(cfgp)
    cmd_spectrum(args, cfgp, out_dir, seed, bundle)
    if bundle.green is not None:
        cmd_dirichlet_map(args, cfgp, out_dir, seed, bundle)
    built = build_closed_loop(cfgp, bundle)
    cmd_synthesize(args, cfgp, out_dir, seed, bundle, built)
    cmd_verify(args, cfgp, out_dir, seed, bundle, built)
    summary = [("spectrum", "spectrum.csv"), ("poles", "achieved_poles.csv"),
               ("verify", "verify.csv"), ("maxreg", "maxreg.csv")]
    matio.write_csv(os.path.join(out_dir, "summary.csv"), "artifact,file",
                    summary)
    return 0


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "dirichlet-map": cmd_dirichlet_map,
    "synthesize": cmd_synthesize,
    "simulate": cmd_simulate,
    "maxreg": cmd_maxreg,
    "verify": cmd_verify,
    "report": cmd_report,
}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="stabreg",
        description="Boundary-feedback stabilization & maximal-regularity toolkit")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI config file path")
    parser.add_argument("--out", default=None, help="output directory (overrides [output] dir)")
    parser.add_argument("--seed", type=int, default=None, help="override the scan seed")
    parser.add_argument("--parallel", type=int, default=1, help="worker threads for scans")
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        cfgp = load_config(args.config)
        out_dir = args.out or (_get(cfgp, "output", "dir", "out")
                               if cfgp.has_section("output") else "out")
        os.makedirs(out_dir, exist_ok=True)
        _manifest(out_dir, args, cfgp)
        return _COMMANDS[args.command](args, cfgp, out_dir, args.seed)
    except RankCheckFailure as exc:
        print(f"stabreg: rank check failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(exc.report.table(), file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"stabreg: configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"stabreg: numerical failure: {exc}", file=sys.stderr)
        return 3
    except StabregError as exc:
        print(f"stabreg: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
