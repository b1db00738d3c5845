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
import dataclasses
import inspect
import os
import sys
from functools import cached_property

import numpy as np

from . import __version__, coupled, heat, matio, maxreg
from .errors import (
    ConfigError,
    NumericalError,
    RankCheckFailure,
    StabregError,
)
from .operators import (
    GreenMap,
    Operator,
    adjoint_decomposition_residual,
    compose_closed_loop,
    pair_spectra,
    resolvent_perturbation_residual,
    spectral_abscissa,
    spectral_norm,
)
from .synthesis import spectral_feedback, unstable_projection

SPECTRUM_HEADER = "k,re_lambda,im_lambda,unstable"
POLES_HEADER = "k,mode,target,achieved"
VERIFY_HEADER = "check,value,threshold,status"
DIRICHLET_HEADER = "column,label,norm"
TRAJECTORY_HEADER = "t,norm_y,norm_yt"


# Accepted keys of the sections whose keys do not depend on the model type;
# [model] and [synthesis] keys come from the model class (see _model_keys and
# _synthesis_keys).  Keys are matched after configparser lower-cases them
# ([simulate] T is "t").
_SECTION_KEYS = {
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
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _get_int(cfgp, section, key, default, minimum):
    """Integer value of ``[section] key`` that must be at least ``minimum``."""
    value = _get(cfgp, section, key, default, int)
    if value < minimum:
        raise ConfigError(f"[{section}] {key} = {value}: must be >= {minimum}")
    return value


def _floats(raw):
    """Whitespace-separated floats."""
    return [float(t) for t in raw.split()]


def _finite_float(raw):
    """A finite float: a model parameter of inf or nan is a configuration error."""
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError("must be finite")
    return value


def _complex_list(raw):
    """Whitespace-separated finite ``a+bi`` tokens; an empty value means None."""
    values = [matio.parse_complex(t) for t in raw.split()]
    if not all(np.isfinite(values)):
        raise ValueError("every value must be finite")
    return values or None


def _read_matrix_file(path, what):
    if not os.path.exists(path):
        raise ConfigError(f"{what} file not found: {path}")
    return matio.read_matrix(path)


def _real_if_real(m):
    return m.real if np.abs(m.imag).max(initial=0.0) == 0.0 else m


@dataclasses.dataclass(frozen=True)
class AbstractModel:
    """``type = abstract``: operator, lifting and feedback read from matrix files.

    Follows the model protocol of ``heat.HeatConfig``.  It reads the
    ``[synthesis] targets`` key alone, has no verify.csv rows of its own, and
    its grid step is 1.0.
    """

    operator_file: str
    green_file: str = None
    green_gamma: float = 0.25
    feedback_file: str = None
    h = 1.0

    @cached_property
    def operator(self):
        return Operator(_real_if_real(_read_matrix_file(self.operator_file, "operator")),
                        label="abstract operator")

    @cached_property
    def lifting(self):
        if self.green_file is None:
            return None
        return GreenMap(_real_if_real(_read_matrix_file(self.green_file, "green-map")),
                        gamma=self.green_gamma)

    def synthesize(self, targets=None):
        """Compose the closed loop: with ``targets``, the feedback of
        ``synthesis.spectral_feedback`` on the operator and green map (mode
        ``spectral``); else the feedback file's (zero without one), and nothing
        is synthesized.  Giving both is a configuration error."""
        operator, green = self.operator, self.lifting
        if green is None:
            raise ConfigError("abstract model needs green_file to compose a closed loop")
        if targets is not None and self.feedback_file is not None:
            raise ConfigError("[synthesis] targets and [model] feedback_file both set a "
                              "feedback: give one of them")
        mode, info = "abstract", {}
        if targets is not None:
            mode = "spectral"
            feedback, _, info = spectral_feedback(operator.spectral, operator, green, targets)
        else:
            feedback = (None if self.feedback_file is None
                        else _real_if_real(_read_matrix_file(self.feedback_file, "feedback")))
        loop = compose_closed_loop(operator, green, feedback)
        return loop, {"feedback_matrix": loop.feedback_matrix}, mode, info

    def verify(self, loop, info):
        """No rows of its own."""
        return []


_MODELS = {"heat": heat.HeatConfig, "coupled": coupled.CoupledConfig,
           "abstract": AbstractModel}
_FIELD_KEYS = {"theta_e_profile": "theta_e"}      # dataclass field -> [model] key
_CASTS = {int: int, float: _finite_float, str: str, tuple: lambda raw: tuple(_floats(raw)),
          object: _finite_float}      # object: theta_e, a scalar
_SYNTHESIS_CASTS = {"mode": str, "targets": _complex_list, "use_interior": bool}


def _model_keys(model):
    """[model] key -> dataclass field of a model class."""
    return {_FIELD_KEYS.get(f.name, f.name): f for f in dataclasses.fields(model)}


def _synthesis_keys(model):
    """The [synthesis] keys a model reads: the keyword arguments of its synthesize."""
    return set(inspect.signature(model.synthesize).parameters) - {"self"}


def load_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"--config = {path}: cannot read ({exc.strerror})") from exc
    if not parser.has_section("model"):
        raise ConfigError("config needs a [model] section")
    _check_keys(parser)
    return parser


def _check_keys(parser):
    """Reject unknown sections and keys, so a typo cannot be silently ignored."""
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    model = _MODELS.get(parser.get("model", "type", fallback=None))
    if model is None:       # a missing or unknown type is reported by build_model
        model_keys, synthesis_keys = set(parser.options("model")), set(_SYNTHESIS_CASTS)
    else:
        model_keys, synthesis_keys = set(_model_keys(model)), _synthesis_keys(model)
    allowed = dict(_SECTION_KEYS, model=model_keys | {"type"}, synthesis=synthesis_keys)
    for section in parser.sections():
        if section not in allowed:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(set(parser.options(section)) - allowed[section])
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")


def build_model(cfgp):
    kind = _get(cfgp, "model", "type")
    if kind not in _MODELS:
        raise ConfigError(f"unknown model type {kind!r} (expected heat | coupled | abstract)")
    values = {}
    for key, f in _model_keys(_MODELS[kind]).items():
        if not cfgp.has_option("model", key) and f.default is not dataclasses.MISSING:
            continue        # keeps the dataclass default
        values[f.name] = _get(cfgp, "model", key, cast=_CASTS[f.type])
    model = _MODELS[kind](**values)
    # built here, so a bad operator or lifting fails every command alike
    model.operator, model.lifting
    return model


def build_closed_loop(cfgp, model):
    """Synthesize per the [synthesis] keys the model reads and compose.

    Returns (loop, matrices, mode, info): the ClosedLoop, the matrices
    ``synthesize`` writes (by file stem), the synthesis mode and its info.
    """
    values = {key: _get(cfgp, "synthesis", key, cast=_SYNTHESIS_CASTS[key])
              for key in _synthesis_keys(model)
              if cfgp.has_option("synthesis", key)}
    return model.synthesize(**values)


def _manifest(out_dir, args, cfgp):
    lines = [
        f"command: {args.command}",
        f"stabreg: {__version__}",
        f"numpy: {np.__version__}",
        f"seed: {_scan_seed(cfgp, args.seed)}",
        f"generator: {maxreg.GENERATOR}",
        "config:",
    ]
    for section in cfgp.sections():
        lines.append(f"  [{section}]")
        for key, value in cfgp.items(section):
            lines.append(f"  {key} = {value}")
    matio.write_text(os.path.join(out_dir, "manifest.txt"), "\n".join(lines) + "\n")


def _scan_seed(cfgp, seed_override):
    """Seed of the random forcings and identity points: --seed, else [maxreg]
    seed, else 0; the generator's seeds are the integers in [0, 2**64)."""
    if seed_override is None:
        name, seed = "[maxreg] seed", _get(cfgp, "maxreg", "seed", 0, int)
    else:
        name, seed = "--seed", seed_override
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{name} = {seed}: must lie in [0, 2**64)")
    return seed


def _maxreg_params(cfgp, seed_override):
    """The [maxreg] settings of the regularity scan, with their defaults."""
    sec = "maxreg"
    p_grid = _get(cfgp, sec, "p_grid", [1.5, 2.0, 4.0], _floats)
    if not (p_grid and all(1.0 < p < np.inf for p in p_grid)):
        raise ConfigError(f"[maxreg] p_grid = {cfgp.get(sec, 'p_grid')!r}: need one "
                          "or more exponents, each in (1, inf)")
    t_grid = _get(cfgp, sec, "t_grid", [10.0, 20.0, 40.0], _floats)
    if not (len(t_grid) >= 3 and 0.0 < t_grid[0] and t_grid[-1] < np.inf
            and all(a < b for a, b in zip(t_grid, t_grid[1:]))):
        raise ConfigError(f"[maxreg] t_grid = {cfgp.get(sec, 't_grid')!r}: need 3 "
                          "or more increasing horizons, each positive and finite")
    n_random = _get_int(cfgp, sec, "forcing_count", 32, 0)
    n_cells = _get_int(cfgp, sec, "n_cells", 2000, 1)
    return p_grid, t_grid, n_random, n_cells, _scan_seed(cfgp, seed_override)


def _plateau_reports(cfgp, args, composed):
    """The regularity scan of ``composed`` that the [maxreg] settings ask for.

    Builds the forcing family and runs the scan; returns one MaxRegReport per
    exponent.
    """
    p_grid, t_grid, n_random, n_cells, seed = _maxreg_params(cfgp, args.seed)
    sets = maxreg.build_forcing_grid(composed, t_grid, n_random, seed, n_cells)
    return maxreg.plateau_scan_multi(composed, p_grid, t_grid, sets)


def cmd_spectrum(args, cfgp, out_dir, model):
    sp = model.operator.spectral
    rows = [(k + 1, lam.real, lam.imag, k < sp.unstable_count)
            for k, lam in enumerate(sp.eigenvalues)]
    matio.write_csv(os.path.join(out_dir, "spectrum.csv"), SPECTRUM_HEADER, rows)
    return 0


def cmd_dirichlet_map(args, cfgp, out_dir, model):
    green = model.lifting
    if green is None:
        raise ConfigError("model provides no boundary lifting map")
    matio.write_matrix(os.path.join(out_dir, "dirichlet_map.txt"), green.entries)
    rows = [(j + 1, label, heat.state_norm_q(green.entries[:, j], model.h, 2.0))
            for j, label in enumerate(green.input_labels)]
    matio.write_csv(os.path.join(out_dir, "dirichlet_map.csv"), DIRICHLET_HEADER, rows)
    return 0


def cmd_synthesize(args, cfgp, out_dir, model, built=None):
    if built is None:
        built = build_closed_loop(cfgp, model)
    _, matrices, mode, info = built
    for stem, matrix in matrices.items():
        matio.write_matrix(os.path.join(out_dir, f"{stem}.txt"), matrix)
    targets = info.get("targets", np.array([]))
    achieved = info.get("achieved", np.array([]))
    tsort = sorted(np.asarray(targets, dtype=complex), key=lambda z: (-z.real, -z.imag))
    paired = pair_spectra(tsort, achieved)
    rows = [(k + 1, mode, t, a) for k, (t, a) in enumerate(zip(tsort, paired))]
    matio.write_csv(os.path.join(out_dir, "achieved_poles.csv"), POLES_HEADER, rows)
    return 0


def _forcing_spec(raw, dim):
    """(kind, mode index) of ``[simulate] forcing``: constant | random | single_mode [K].

    K defaults to 0 and must satisfy 0 <= K < dim; anything else, including
    an extra token, is a configuration error.
    """
    tokens = raw.split()
    kind = tokens[0] if tokens else ""
    arity = 2 if kind == "single_mode" else 1
    if kind not in ("constant", "random", "single_mode") or len(tokens) > arity:
        raise ConfigError(f"[simulate] forcing = {raw!r}: expected constant, random "
                          "or single_mode K")
    if kind != "single_mode":
        return kind, None
    index = tokens[1] if len(tokens) > 1 else "0"
    if not (index.isascii() and index.isdigit() and int(index) < dim):
        raise ConfigError(f"[simulate] forcing = {raw!r}: mode index K must be an "
                          f"integer with 0 <= K < {dim} (the state dimension)")
    return kind, int(index)


def cmd_simulate(args, cfgp, out_dir, model):
    composed = build_closed_loop(cfgp, model)[0].composed
    a = maxreg.operator_matrix(composed)
    sec = "simulate"
    horizon = _get(cfgp, sec, "T", 10.0, float)
    if not 0.0 < horizon < np.inf:
        raise ConfigError(f"[simulate] T = {horizon:g}: must be positive and finite")
    n_cells = _get_int(cfgp, sec, "n_cells", 2000, 1)
    kind, index = _forcing_spec(_get(cfgp, sec, "forcing", "constant"), a.shape[0])
    if kind == "constant":
        f = maxreg.constant_forcing(np.ones(a.shape[0]), horizon)
    elif kind == "random":
        f = maxreg.piecewise_random_forcing(a.shape[0], horizon, n_cells,
                                            seed=_scan_seed(cfgp, args.seed))
    else:
        f = maxreg.ForcingSignal(maxreg.mode_forcings(a, horizon).values[:, :, index], horizon)
    refine = max(1, int(np.ceil(n_cells / f.n_cells)))
    t, y, nyt = maxreg.solution_map(composed, f, refine=refine)
    rows = [(t[i], float(np.linalg.norm(y[i])), float(nyt[i])) for i in range(len(t))]
    matio.write_csv(os.path.join(out_dir, "trajectory.csv"), TRAJECTORY_HEADER, rows)
    return 0


def cmd_maxreg(args, cfgp, out_dir, model):
    loop, _, mode, _ = build_closed_loop(cfgp, model)
    reports = _plateau_reports(cfgp, args, loop.composed)
    rows = maxreg.report_rows(_get(cfgp, "model", "type"), mode, reports)
    matio.write_csv(os.path.join(out_dir, "maxreg.csv"), maxreg.CSV_HEADER, rows)
    return 0


def _identity_rows(cl, seed):
    """Structural identity residuals for a composed ClosedLoop.

    The resolvent identity is checked at 20 points right of both spectra,
    the drift's and the B-less loop's, placed by uniforms of the seed.
    """
    drift = cl.drift_A.entries
    right = max(spectral_abscissa(cl.drift_A), spectral_abscissa(cl.feedback_part))
    points = [complex(right + 1.0 + 49.0 * u, -50.0 + 100.0 * v)
              for u, v in maxreg.random_uniform(seed, (20, 2))]
    pn = unstable_projection(cl.drift_A.spectral).entries
    comm = spectral_norm(pn @ drift - drift @ pn) / max(spectral_norm(drift), 1e-300)
    checks = [("resolvent_identity_max", resolvent_perturbation_residual(cl, points), 1e-8),
              ("adjoint_decomposition", adjoint_decomposition_residual(cl), 1e-8),
              ("projection_idempotency", spectral_norm(pn @ pn - pn), 1e-8),
              ("projection_commutation", comm, 1e-6)]
    return [(name, value, tol, "PASS" if value <= tol else "FAIL")
            for name, value, tol in checks]


def cmd_verify(args, cfgp, out_dir, model, built=None):
    if built is None:
        built = build_closed_loop(cfgp, model)
    loop, _, mode, info = built
    identity = _identity_rows(loop, _scan_seed(cfgp, args.seed))     # fails before the scan
    scans = _plateau_reports(cfgp, args, loop.composed)
    rows = identity + model.verify(loop, info) + maxreg.verify_rows(scans)
    passed = all(row[3] == "PASS" for row in rows)
    rows.append(("overall", float(passed), 1.0, "PASS" if passed else "FAIL"))
    matio.write_csv(os.path.join(out_dir, "verify.csv"), VERIFY_HEADER, rows)
    matio.write_csv(os.path.join(out_dir, "maxreg.csv"), maxreg.CSV_HEADER,
                    maxreg.report_rows(_get(cfgp, "model", "type"), mode, scans))
    return 0


def cmd_report(args, cfgp, out_dir, model):
    """Every artifact from one model and one closed loop."""
    cmd_spectrum(args, cfgp, out_dir, model)
    if model.lifting is not None:
        cmd_dirichlet_map(args, cfgp, out_dir, model)
    built = build_closed_loop(cfgp, model)
    cmd_synthesize(args, cfgp, out_dir, model, built)
    cmd_verify(args, cfgp, out_dir, model, built)
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
    # the scan runs serially; the flag stays for command lines that pass 1
    parser.add_argument("--parallel", type=int, choices=(1,), default=1,
                        help="scan threads: the scan is serial, so 1 only")
    return parser


def _make_out_dir(path, source):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{source} = {path}: cannot create output directory "
                          f"({exc.strerror})") from exc


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        cfgp = load_config(args.config)
        out_dir = args.out or _get(cfgp, "output", "dir", "out")
        _make_out_dir(out_dir, "--out" if args.out else "[output] dir")
        _manifest(out_dir, args, cfgp)
        return _COMMANDS[args.command](args, cfgp, out_dir, build_model(cfgp))
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
