import collections
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as la

import stabreg
from stabreg import cli, matio, maxreg, synthesis
from stabreg import operators as ops
from stabreg.errors import NumericalError


def run(args):
    return cli.main(args)


def write_config(path, text):
    path.write_text(text)
    return str(path)


HEAT_CFG = """
[model]
type = heat
n = 32
c2 = 16.0
omega = 0.2 0.4

[synthesis]
mode = spectral
targets = -2

[maxreg]
p_grid = 2
t_grid = 4 8 12
forcing_count = 6
n_cells = 400
seed = 11

[output]
dir = {out}
"""


COUPLED_CFG = """
[model]
type = coupled
n = 24
c2_f = 16.0
c2_h = 16.0
gamma_buoy = 0.1
theta_e = 0.5
omega = 0.25 0.45

[synthesis]
targets = -2 -3

[maxreg]
p_grid = 2
t_grid = 4 8 12
forcing_count = 4
n_cells = 300
seed = 2

[output]
dir = {out}
"""


# the heat config of CI's console-script step
TINY_HEAT_CFG = """
[model]
type = heat
n = 16
c2 = 16.0

[synthesis]
targets = -2

[maxreg]
p_grid = 2
t_grid = 4 8 12
forcing_count = 2
n_cells = 100

[output]
dir = {out}
"""


ABSTRACT_CFG = """
[model]
type = abstract
operator_file = {dir}/op.txt
green_file = {dir}/g.txt
green_gamma = 0.3
feedback_file = {dir}/f.txt

[maxreg]
p_grid = 2
t_grid = 4 8 12
forcing_count = 4
n_cells = 200
seed = 5

[output]
dir = {out}
"""


def write_abstract_files(directory):
    """Operator, green-map and feedback files that ABSTRACT_CFG reads."""
    matio.write_matrix(directory / "op.txt", np.array([[-1.0, 0.3], [0.0, -2.0]]))
    matio.write_matrix(directory / "g.txt", np.array([[1.0], [0.5]]))
    matio.write_matrix(directory / "f.txt", np.array([[0.2, -0.1]]))


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_spectrum_heat_unstable_row(tmp_path):
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "out"))
    assert run(["spectrum", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "spectrum.csv")
    assert header == "k,re_lambda,im_lambda,unstable"
    unstable = [r for r in rows if r[3] == "1"]
    assert len(unstable) == 1
    assert float(unstable[0][1]) == pytest.approx(16 - np.pi**2, abs=2e-2)
    assert (tmp_path / "out" / "manifest.txt").exists()


def test_spectrum_stable_model_no_unstable_rows(tmp_path):
    text = HEAT_CFG.format(out=tmp_path / "out").replace("c2 = 16.0", "c2 = 4.0")
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["spectrum", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "out" / "spectrum.csv")
    assert all(r[3] == "0" for r in rows)


def test_malformed_config_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("type = heat\nn = 32\n")   # no section header
    assert run(["spectrum", "--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_config_exit_2(tmp_path):
    assert run(["spectrum", "--config", str(tmp_path / "nope.ini")]) == 2


@pytest.mark.parametrize("path", ["afile", "afile/sub"])
@pytest.mark.parametrize("source", ["--out", "[output] dir"])
def test_bad_out_path_exit_2(tmp_path, capsys, path, source):
    # an existing file, or a directory under one, cannot be the output directory
    (tmp_path / "afile").write_text("")
    out = str(tmp_path / path)
    in_config = source == "[output] dir"
    cfg = write_config(tmp_path / "c.ini",
                       HEAT_CFG.format(out=out if in_config else tmp_path / "out"))
    flags = [] if in_config else ["--out", out]
    assert run(["spectrum", "--config", cfg, *flags]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"{source} = {out}:" in err


def test_config_directory_exit_2(tmp_path, capsys):
    assert run(["spectrum", "--config", str(tmp_path)]) == 2
    assert f"--config = {tmp_path}:" in capsys.readouterr().err


def test_synthesize_achieved_pole(tmp_path):
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "out"))
    assert run(["synthesize", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "achieved_poles.csv")
    assert header == "k,mode,target,achieved"
    achieved = matio.parse_complex(rows[0][3])
    assert achieved.real == pytest.approx(-2.0, abs=1e-6)
    fmat = matio.read_matrix(tmp_path / "out" / "feedback_matrix.txt")
    assert fmat.shape == (2, 32)


def test_synthesize_pairs_each_target_with_its_pole(tmp_path):
    text = HEAT_CFG.format(out=tmp_path / "out").replace(
        "c2 = 16.0", "c2 = 49.0").replace("targets = -2", "targets = -3+2i -3-2i")
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["synthesize", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "out" / "achieved_poles.csv")
    assert len(rows) == 2
    for row in rows:
        assert abs(matio.parse_complex(row[3]) - matio.parse_complex(row[2])) <= 1e-6


def test_synthesize_empty_window_exit_4(tmp_path, capsys):
    text = HEAT_CFG.format(out=tmp_path / "out")
    text = text.replace("omega = 0.2 0.4", "omega = 0.311 0.318")
    text = text.replace("mode = spectral", "mode = localized")
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["synthesize", "--config", cfg]) == 4
    assert "rank check failed" in capsys.readouterr().err


def test_dirichlet_map_outputs(tmp_path):
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "out"))
    assert run(["dirichlet-map", "--config", cfg]) == 0
    d = matio.read_matrix(tmp_path / "out" / "dirichlet_map.txt")
    assert d.shape == (32, 2)
    header, rows = read_csv(tmp_path / "out" / "dirichlet_map.csv")
    assert header == "column,label,norm"
    assert len(rows) == 2


def test_simulate_trajectory(tmp_path):
    text = HEAT_CFG.format(out=tmp_path / "out") + (
        "\n[simulate]\nforcing = single_mode 0\nT = 5\nn_cells = 200\n")
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["simulate", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "trajectory.csv")
    assert header == "t,norm_y,norm_yt"
    assert len(rows) == 201
    assert float(rows[0][1]) == 0.0


def test_simulate_default_constant_forcing(tmp_path):
    # no forcing key: f = 1 on one cell, so y(T) settles at -A_F^{-1} 1
    text = TINY_HEAT_CFG.format(out=tmp_path / "out") + "\n[simulate]\nT = 20\nn_cells = 50\n"
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["simulate", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 52
    assert lines[1] == "0,0,4"      # y(0) = 0 and y'(0) = f, with |1| = sqrt(16)
    cfgp = cli.load_config(cfg)
    a = maxreg.operator_matrix(cli.build_closed_loop(cfgp, cli.build_model(cfgp))[0].composed)
    steady = np.linalg.norm(np.linalg.solve(a, np.ones(a.shape[0])))
    assert float(lines[-1].split(",")[1]) == pytest.approx(steady, rel=1e-9)


def test_simulate_derivative_matches_expm_oracle(tmp_path):
    # the default target -24.03 and f = 1 on one cell: y_t(t) = e^{t A_F} 1
    # falls to 2.1e-48 at t = 5, and every norm_yt row reads it to 1e-9
    # relative (y_t formed as A y + f read rounding noise from t = 0.8 on)
    text = (TINY_HEAT_CFG.replace("targets = -2\n", "").format(out=tmp_path / "out")
            + "\n[simulate]\nT = 5\nn_cells = 50\n")
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["simulate", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "out" / "trajectory.csv")
    got = np.array(rows, dtype=float)
    assert len(rows) == 51
    cfgp = cli.load_config(cfg)
    a = maxreg.operator_matrix(cli.build_closed_loop(cfgp, cli.build_model(cfgp))[0].composed)
    exact = [np.linalg.norm(la.expm(t * a) @ np.ones(a.shape[0])) for t in got[:, 0]]
    assert exact[-1] < 1e-47
    assert np.allclose(got[:, 2], exact, rtol=1e-9, atol=0.0)


def test_simulate_random_forcing_matches_expm_oracle(tmp_path):
    # 40 random cells, one step each: every node's |y| against the exact
    # per-cell flow of (y, 1) under [[A, f_j], [0, 0]]
    text = HEAT_CFG.replace("n = 32", "n = 16").format(out=tmp_path / "out") + (
        "\n[simulate]\nforcing = random\nT = 2\nn_cells = 40\n")
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["simulate", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "out" / "trajectory.csv")
    got = np.array(rows, dtype=float)
    assert len(rows) == 41
    assert np.allclose(got[:, 0], np.arange(41) * (2.0 / 40), rtol=1e-12, atol=0.0)
    cfgp = cli.load_config(cfg)
    a = maxreg.operator_matrix(cli.build_closed_loop(cfgp, cli.build_model(cfgp))[0].composed)
    n = a.shape[0]
    f = maxreg.piecewise_random_forcing(n, 2.0, 40, seed=11)     # [maxreg] seed
    y = np.zeros(n)
    norms = [0.0]
    for fj in f.values[:, :, 0]:
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = a * f.time_step
        aug[:n, n] = fj * f.time_step
        y = (la.expm(aug) @ np.append(y, 1.0))[:n]
        norms.append(np.linalg.norm(y))
    assert np.allclose(got[:, 1], norms, rtol=1e-10, atol=1e-12)


def test_maxreg_csv_contract(tmp_path):
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "out"))
    assert run(["maxreg", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "maxreg.csv")
    assert header == "model,mode,p,T,C_estimate,imag_sup,verdict,C_upper"
    assert len(rows) == 3     # one p, three horizons
    assert all(r[6] == "plateau" for r in rows)
    # p = 2: the Plancherel bound, one value for every horizon, above each estimate
    assert len({r[7] for r in rows}) == 1
    assert all(float(r[4]) <= float(r[7]) for r in rows)


def test_maxreg_forcing_count_zero(tmp_path):
    text = HEAT_CFG.format(out=tmp_path / "out").replace("forcing_count = 6", "forcing_count = 0")
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["maxreg", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "out" / "maxreg.csv")
    assert len(rows) == 3


def test_verify_deterministic_byte_identical(tmp_path):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=out1))
    assert run(["verify", "--config", cfg]) == 0
    assert run(["verify", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("verify.csv", "maxreg.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verify_identity_rows_pass(tmp_path):
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "out"))
    assert run(["verify", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "verify.csv")
    assert header == "check,value,threshold,status"
    by_name = {r[0]: r for r in rows}
    assert float(by_name["resolvent_identity_max"][1]) <= 1e-8
    assert float(by_name["adjoint_decomposition"][1]) <= 1e-8
    assert by_name["overall"][3] == "PASS"


def test_verify_overall_covers_identity_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_identity_rows",
                        lambda cl, seed: [("resolvent_identity_max", 1.0, 1e-8, "FAIL")])
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "out"))
    assert run(["verify", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "out" / "verify.csv")
    assert rows[-1] == ["overall", "0", "1", "FAIL"]
    assert [r[0] for r in rows].count("overall") == 1


def test_abstract_model_identity_rows(tmp_path):
    write_abstract_files(tmp_path)
    text = ABSTRACT_CFG.format(dir=tmp_path, out=tmp_path / "out")
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["verify", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "out" / "verify.csv")
    by_name = {r[0]: r for r in rows}
    assert float(by_name["resolvent_identity_max"][1]) <= 1e-8
    assert float(by_name["adjoint_decomposition"][1]) <= 1e-8
    assert rows[-1] == ["overall", "1", "1", "PASS"]


def test_abstract_defective_block_fails_adjoint_row(tmp_path):
    write_abstract_files(tmp_path)
    matio.write_matrix(tmp_path / "op.txt", np.array([[-1.0, 10.0], [0.0, -1.0]]))
    matio.write_matrix(tmp_path / "g.txt", np.array([[1.0], [0.0]]))
    cfg = write_config(tmp_path / "c.ini",
                       ABSTRACT_CFG.format(dir=tmp_path, out=tmp_path / "out"))
    with pytest.warns(UserWarning):
        assert run(["report", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "out" / "verify.csv")
    by_name = {r[0]: r for r in rows}
    assert by_name["adjoint_decomposition"][1:] == ["inf", "1e-08", "FAIL"]
    assert rows[-1] == ["overall", "0", "1", "FAIL"]


def unstable_abstract_config(tmp_path):
    """diag(1, -2), unstable, with the feedback [3, 0] through green [1; 1]:
    the stable closed loop [[-2, 0], [6, -2]], a Jordan block."""
    write_abstract_files(tmp_path)
    matio.write_matrix(tmp_path / "op.txt", np.diag([1.0, -2.0]))
    matio.write_matrix(tmp_path / "g.txt", np.array([[1.0], [1.0]]))
    matio.write_matrix(tmp_path / "f.txt", np.array([[3.0, 0.0]]))
    return write_config(tmp_path / "c.ini",
                        ABSTRACT_CFG.format(dir=tmp_path, out=tmp_path / "out"))


def test_abstract_unstable_operator_report_passes(tmp_path):
    # the default split takes the generator drift - 2I, so the adjoint row verifies
    cfg = unstable_abstract_config(tmp_path)
    with (pytest.warns(UserWarning, match="eigenvector basis condition"),
          pytest.warns(UserWarning, match="numerically defective")):
        assert run(["report", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "out" / "verify.csv")
    by_name = {r[0]: r for r in rows}
    assert float(by_name["adjoint_decomposition"][1]) <= 1e-8
    assert float(by_name["resolvent_identity_max"][1]) <= 1e-8
    assert rows[-1] == ["overall", "1", "1", "PASS"]


def test_abstract_real_feedback_file_keeps_the_loop_real(tmp_path):
    # a real feedback file is read as real, as the operator and green files
    # are, so the loop and its whole scan stay in float64
    cfgp = cli.load_config(unstable_abstract_config(tmp_path))
    loop = cli.build_closed_loop(cfgp, cli.build_model(cfgp))[0]
    assert loop.feedback_matrix.dtype == np.float64
    assert loop.composed.entries.dtype == np.float64


def test_abstract_report_decomposes_each_operator_once(tmp_path, monkeypatch):
    # the diagonal drift by eigh (its 1 x 1 blocks are no sine grid), eig of
    # the closed loop and, the loop being a Jordan block, eig of its adjoint;
    # the adjoint check's -generator = 2I - drift takes its decomposition
    # from the drift's
    calls = collections.Counter()
    for module, name in ((np.linalg, "eig"), (np.linalg, "eigh"), (ops, "_grid_eigenpairs")):
        def counted(*args, _solver=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    cfg = unstable_abstract_config(tmp_path)
    with (pytest.warns(UserWarning, match="eigenvector basis condition"),
          pytest.warns(UserWarning, match="numerically defective")):
        assert run(["report", "--config", cfg]) == 0
    assert calls == {"eig": 2, "eigh": 1}


def targets_abstract_config(tmp_path, operator, green, targets):
    """ABSTRACT_CFG on ``operator`` and ``green``, with ``[synthesis] targets``
    in place of its feedback file."""
    write_abstract_files(tmp_path)
    matio.write_matrix(tmp_path / "op.txt", operator)
    matio.write_matrix(tmp_path / "g.txt", green)
    text = ABSTRACT_CFG.format(dir=tmp_path, out=tmp_path / "out")
    text = text.replace(f"feedback_file = {tmp_path}/f.txt\n", "")
    assert "feedback_file" not in text
    return write_config(tmp_path / "c.ini", text + f"\n[synthesis]\ntargets = {targets}\n")


def test_abstract_targets_fail_the_rank_check(tmp_path, capsys):
    # diag(2, 2, -1): the double unstable eigenvalue needs two channels, and
    # one green column reaches one direction of its eigenspace alone
    cfg = targets_abstract_config(tmp_path, np.diag([2.0, 2.0, -1.0]),
                                  np.array([[1.0], [1.0], [0.0]]), "-1 -2")
    assert run(["synthesize", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert "rank check failed" in err and "hautus_margin" in err and "FAIL" in err


def test_abstract_targets_stabilize_an_unstable_operator(tmp_path):
    # diag(1, -2) with green [1; 1] and the target -3: spectral_feedback moves
    # the unstable 1 to -3 and leaves -2, and the report passes
    cfg = targets_abstract_config(tmp_path, np.diag([1.0, -2.0]), np.array([[1.0], [1.0]]), "-3")
    assert run(["report", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "out" / "verify.csv")
    assert rows[-1] == ["overall", "1", "1", "PASS"]
    _, poles = read_csv(tmp_path / "out" / "achieved_poles.csv")
    assert poles == [["1", "spectral", "-3+0i", "-3+0i"]]
    cfgp = cli.load_config(cfg)
    loop = cli.build_closed_loop(cfgp, cli.build_model(cfgp))[0]
    assert ops.match_spectra(np.linalg.eigvals(loop.composed.entries), [-3.0, -2.0]) <= 1e-10


def test_abstract_targets_and_feedback_file_exclude_each_other(tmp_path, capsys):
    write_abstract_files(tmp_path)
    text = ABSTRACT_CFG.format(dir=tmp_path, out=tmp_path / "out") + "\n[synthesis]\ntargets = -3\n"
    assert run(["synthesize", "--config", write_config(tmp_path / "c.ini", text)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "feedback_file" in err


def test_coupled_report_reduces_once(tmp_path, monkeypatch):
    # the hautus_margins row reads the synthesis's reduced pair
    calls = []
    reduce = synthesis.reduce
    monkeypatch.setattr(synthesis, "reduce", lambda *a, **k: calls.append(a) or reduce(*a, **k))
    cfg = write_config(tmp_path / "c.ini", COUPLED_CFG.format(out=tmp_path / "out"))
    assert run(["report", "--config", cfg]) == 0
    assert len(calls) == 1
    _, rows = read_csv(tmp_path / "out" / "verify.csv")
    assert [r[3] for r in rows if r[0] == "hautus_margins"] == ["PASS"]


def test_verify_identity_failure_exits_before_the_scan(tmp_path, monkeypatch):
    def failing(cl, seed):
        raise NumericalError("identity rows failed")
    scans = []
    monkeypatch.setattr(cli, "_identity_rows", failing)
    monkeypatch.setattr(maxreg, "plateau_scan_multi", lambda *a, **k: scans.append(a))
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "out"))
    assert run(["verify", "--config", cfg]) == 3
    assert scans == []


def test_heat_report_leaves_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs about 13 ms of import; np.unique would load it
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "out"))
    src = os.path.dirname(os.path.dirname(stabreg.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); from stabreg import cli; "
            f"code = cli.main(['report', '--config', {cfg!r}]); "
            f"print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["0", "False"]


def test_cli_leaves_numpy_polynomial_unloaded(tmp_path):
    # numpy.polynomial costs about 1 MB and 3 ms of import; the Gauss-Legendre
    # rule of the eigenmode quadrature is written out instead
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "out"))
    src = os.path.dirname(os.path.dirname(stabreg.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); from stabreg import cli; "
            f"loaded = 'numpy.polynomial' in sys.modules; "
            f"code = cli.main(['report', '--config', {cfg!r}]); "
            f"print(code, loaded, 'numpy.polynomial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["0", "False", "False"]


def test_verify_writes_scan_rows_for_every_model(tmp_path):
    # abstract 1x1 loop that its feedback destabilizes: -1 * (1 - 1 * 2) = +1
    matio.write_matrix(tmp_path / "op.txt", np.array([[-1.0]]))
    matio.write_matrix(tmp_path / "g.txt", np.array([[1.0]]))
    matio.write_matrix(tmp_path / "f.txt", np.array([[2.0]]))
    cfg = write_config(tmp_path / "a.ini",
                       ABSTRACT_CFG.format(dir=tmp_path, out=tmp_path / "abstract"))
    assert run(["verify", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "abstract" / "verify.csv")
    by_name = {r[0]: r for r in rows}
    assert by_name["imag_axis_sup"][1:] == ["inf", "inf", "FAIL"]
    assert by_name["C_upper_p=2"][1] == "inf" and by_name["C_upper_p=2"][3] == "FAIL"
    assert by_name["plateau_p=2"][3] == "FAIL"
    assert rows[-1] == ["overall", "0", "1", "FAIL"]
    # coupled: its own rows end with decay_rate, then the scan's rows follow
    cfg = write_config(tmp_path / "c.ini", COUPLED_CFG.format(out=tmp_path / "coupled"))
    assert run(["verify", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "coupled" / "verify.csv")
    names = [r[0] for r in rows]
    i = names.index("imag_axis_sup")
    assert rows[i][3] == "PASS"
    assert names[i - 1] == "decay_rate"
    assert names[i + 1:] == ["C_upper_p=2", "plateau_p=2", "overall"]
    assert rows[i + 1][3] == "PASS"


def test_coupled_verify_and_report(tmp_path):
    text = COUPLED_CFG.format(out=tmp_path / "out").replace(
        "targets = -2 -3", "mode = spectral\ntargets = -2 -3")    # the one coupled mode
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["report", "--config", cfg]) == 0
    out = tmp_path / "out"
    for name in ("spectrum.csv", "achieved_poles.csv", "verify.csv",
                 "maxreg.csv", "summary.csv", "interior_matrix.txt"):
        assert (out / name).exists()
    _, rows = read_csv(out / "achieved_poles.csv")
    assert {r[1] for r in rows} == {"spectral"}
    _, rows = read_csv(out / "verify.csv")
    by_name = {r[0]: r for r in rows}
    assert by_name["overall"][3] == "PASS"


def test_seed_flag_changes_manifest(tmp_path):
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "out"))
    assert run(["spectrum", "--config", cfg, "--seed", "99"]) == 0
    assert "seed: 99" in (tmp_path / "out" / "manifest.txt").read_text()


def test_config_seed_in_manifest(tmp_path):
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "out"))
    assert run(["spectrum", "--config", cfg]) == 0
    assert "seed: 11" in (tmp_path / "out" / "manifest.txt").read_text()


def test_manifest_names_generator(tmp_path):
    # the line after the seed names the stream that drew the seeded outputs;
    # the largest seed is accepted
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "out"))
    assert run(["spectrum", "--config", cfg, "--seed", str(2**64 - 1)]) == 0
    lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    k = lines.index(f"seed: {2**64 - 1}")
    assert lines[k + 1] == "generator: splitmix64+box-muller"


def test_heat_default_targets_end_to_end(tmp_path):
    # without [synthesis] targets the one unstable mode goes to -|lambda_2| - 1
    text = TINY_HEAT_CFG.format(out=tmp_path / "out").replace("targets = -2\n", "")
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["report", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "out" / "verify.csv")
    assert rows[-1] == ["overall", "1", "1", "PASS"]
    _, poles = read_csv(tmp_path / "out" / "achieved_poles.csv")
    assert len(poles) == 1
    target = matio.parse_complex(poles[0][2])
    assert target == pytest.approx(-24.0311, abs=1e-4)
    assert abs(matio.parse_complex(poles[0][3]) - target) <= 1e-6


def test_synthesize_use_interior_values(tmp_path):
    # the accepted spellings of a bool key: no gives a zero interior law and
    # the boundary law of use_interior=False, on gives the files of true
    outs = {}
    for value in ("no", "on", "true"):
        outs[value] = out = tmp_path / value
        text = COUPLED_CFG.format(out=out).replace(
            "targets = -2 -3", f"targets = -2 -3\nuse_interior = {value}")
        assert run(["synthesize", "--config", write_config(tmp_path / "c.ini", text)]) == 0
    assert not np.any(matio.read_matrix(outs["no"] / "interior_matrix.txt"))
    cfgp = cli.load_config(str(tmp_path / "c.ini"))
    loop = cli.build_model(cfgp).synthesize(targets=[-2, -3], use_interior=False)[0]
    matio.write_matrix(tmp_path / "want.txt", loop.feedback_matrix)
    assert ((outs["no"] / "feedback_matrix.txt").read_bytes()
            == (tmp_path / "want.txt").read_bytes())
    for name in ("feedback_matrix.txt", "interior_matrix.txt", "achieved_poles.csv"):
        assert (outs["on"] / name).read_bytes() == (outs["true"] / name).read_bytes()


def test_bad_bool_exit_2(tmp_path, capsys):
    text = COUPLED_CFG.format(out=tmp_path / "out").replace(
        "targets = -2 -3", "targets = -2 -3\nuse_interior = ture")
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["synthesize", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "use_interior" in err


@pytest.mark.parametrize("template", [HEAT_CFG, COUPLED_CFG, ABSTRACT_CFG],
                         ids=["heat", "coupled", "abstract"])
def test_verify_and_report_scan_once(tmp_path, monkeypatch, template):
    write_abstract_files(tmp_path)
    cfg = write_config(tmp_path / "c.ini",
                       template.format(dir=tmp_path, out=tmp_path / "out"))
    assert run(["maxreg", "--config", cfg, "--out", str(tmp_path / "standalone")]) == 0
    standalone = (tmp_path / "standalone" / "maxreg.csv").read_bytes()
    calls = collections.Counter()

    def counted(name):
        original = getattr(maxreg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(maxreg, name, wrapper)

    counted("plateau_scan_multi")
    counted("imaginary_axis_bound")
    for command in ("verify", "report"):
        calls.clear()
        out = tmp_path / command
        assert run([command, "--config", cfg, "--out", str(out)]) == 0
        assert calls == {"plateau_scan_multi": 1, "imaginary_axis_bound": 1}
        assert (out / "maxreg.csv").read_bytes() == standalone


@pytest.mark.parametrize(("template", "state_dim", "matrices"),
                         [(HEAT_CFG, 32, 3), (COUPLED_CFG, 48, 5)], ids=["heat", "coupled"])
def test_report_decomposes_each_state_matrix_once(tmp_path, monkeypatch, template,
                                                  state_dim, matrices):
    # heat: the drift, the closed loop and -A; coupled adds the open-loop
    # block and the B-less loop drift (I - GF), which differs from the
    # closed loop by the interior term
    cfg = write_config(tmp_path / "c.ini", template.format(out=tmp_path / "out"))
    digests = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(a, *args, **kwargs):
            a = np.asarray(a)
            # the state matrix itself, not the stack of small matrices of a
            # grid's batched eig
            if a.shape == (state_dim, state_dim):
                digests.append(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest())
            return original(a, *args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("eig", "eigvals", "eigh", "eigvalsh"):
        counted(np.linalg, name)
    # the closed form is a decomposition too: of the grids of
    # sine-diagonalizable blocks (the heat drift and -A, the coupled -A and
    # open-loop block)
    counted(ops, "_grid_eigenpairs")
    assert run(["report", "--config", cfg]) == 0
    assert len(digests) == matrices and len(set(digests)) == matrices


def test_benchmark_heat_report_makes_no_eigh_call(tmp_path, monkeypatch):
    # the heat-report benchmark's model and regularity grid: the drift and -A
    # are symmetric tridiagonal with constant diagonals, so both decompose in
    # closed form and LAPACK's syevd (whose divide and conquer wakes the BLAS
    # helper thread from n = 26 up) is never called
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return eigh(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    text = "\n".join(["[model]", "type = heat", "n = 32", "c2 = 16.0",
                      "[synthesis]", "targets = -2",
                      "[maxreg]", "p_grid = 1.5 2 4", "t_grid = 10 20 40",
                      "forcing_count = 8", "n_cells = 500", "seed = 1234",
                      "[output]", f"dir = {tmp_path / 'out'}"])
    assert run(["report", "--config", write_config(tmp_path / "c.ini", text)]) == 0
    assert calls == []
    _, rows = read_csv(tmp_path / "out" / "verify.csv")
    assert rows[-1] == ["overall", "1", "1", "PASS"]


def test_model_keys_are_each_model_fields():
    # the grid-model base of heat and coupled declares no field of its own
    assert {kind: set(cli._model_keys(model)) for kind, model in cli._MODELS.items()} == {
        "heat": {"n", "c2", "advection_b", "omega", "q", "epsilon"},
        "coupled": {"n", "nu", "kappa", "gamma_buoy", "theta_e", "ye_advect", "c2_f",
                    "c2_h", "omega", "q", "epsilon"},
        "abstract": {"operator_file", "green_file", "green_gamma", "feedback_file"},
    }


def test_unknown_key_exit_2(tmp_path, capsys):
    write_abstract_files(tmp_path)
    cases = [("t_grid = 4 8 12", "t_grid = 4 8 12\np_gird = 2", "p_gird"),
             ("c2 = 16.0", "c2 = 16.0\nc2_f = 16.0", "c2_f"),     # coupled key on heat
             ("[output]", "[outptu]", "[outptu]"),
             # each model reads only its own [synthesis] keys
             ("targets = -2", "targets = -2\nuse_interior = true", "use_interior")]
    cases = [(HEAT_CFG, "spectrum") + case for case in cases] + [
        (ABSTRACT_CFG, "spectrum", "[maxreg]", "[synthesis]\nmode = spectral\n\n[maxreg]",
         "mode"),
        (COUPLED_CFG, "synthesize", "targets = -2 -3", "targets = -2 -3\nmode = localized",
         "mode"),
        # a stable heat model (c2 = 4) skips synthesis but still reads the mode
        (HEAT_CFG.replace("c2 = 16.0", "c2 = 4.0"), "maxreg", "mode = spectral",
         "mode = bogus", "mode")]
    for template, command, old, new, name in cases:
        text = template.format(dir=tmp_path, out=tmp_path / "out").replace(old, new)
        assert new in text
        cfg = write_config(tmp_path / "c.ini", text)
        assert run([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and name in err


def _simulate(lines):
    return ("[output]", "[simulate]\n" + lines + "\n\n[output]")


def _coupled(old, new):
    """An edit marked for COUPLED_CFG; a plain (old, new) pair edits HEAT_CFG."""
    return (COUPLED_CFG, old, new)


@pytest.mark.parametrize("command, edit, flags, name", [
    ("simulate", _simulate("forcing ="), [], "[simulate] forcing"),
    ("simulate", _simulate("forcing = single_mode x"), [], "[simulate] forcing"),
    ("simulate", _simulate("forcing = single_mode -1"), [], "[simulate] forcing"),
    ("simulate", _simulate("forcing = single_mode 32"), [], "[simulate] forcing"),
    ("simulate", _simulate("forcing = constant 7"), [], "[simulate] forcing"),
    ("simulate", _simulate("forcing = random\nn_cells = 0"), [], "[simulate] n_cells"),
    ("simulate", _simulate("forcing = random\nn_cells = -3"), [], "[simulate] n_cells"),
    ("maxreg", ("n_cells = 400", "n_cells = -5"), [], "[maxreg] n_cells"),
    ("maxreg", ("n_cells = 400", "n_cells = 0"), [], "[maxreg] n_cells"),
    ("maxreg", ("forcing_count = 6", "forcing_count = -1"), [], "[maxreg] forcing_count"),
    ("spectrum", ("seed = 11", "seed = -4"), [], "[maxreg] seed"),
    ("spectrum", ("", ""), ["--seed", "-1"], "--seed"),
    # the generator's seeds are the integers in [0, 2**64)
    ("spectrum", ("seed = 11", "seed = 18446744073709551616"), [], "[maxreg] seed"),
    ("spectrum", ("", ""), ["--seed", "18446744073709551616"], "--seed"),
    ("spectrum", ("", ""), ["--parallel", "0"], "--parallel"),
    # the scan is serial: 1 is the flag's one value
    ("spectrum", ("", ""), ["--parallel", "2"], "--parallel"),
    ("maxreg", ("t_grid = 4 8 12", "t_grid = 4 8 nan"), [], "[maxreg] t_grid"),
    ("maxreg", ("t_grid = 4 8 12", "t_grid = 4 8 inf"), [], "[maxreg] t_grid"),
    ("maxreg", ("t_grid = 4 8 12", "t_grid = 0 8 12"), [], "[maxreg] t_grid"),
    ("maxreg", ("t_grid = 4 8 12", "t_grid = 4 8"), [], "[maxreg] t_grid"),
    ("maxreg", ("t_grid = 4 8 12", "t_grid = 8 4 12"), [], "[maxreg] t_grid"),
    ("verify", ("p_grid = 2", "p_grid = 1"), [], "[maxreg] p_grid"),
    ("verify", ("p_grid = 2", "p_grid = nan"), [], "[maxreg] p_grid"),
    ("verify", ("p_grid = 2", "p_grid ="), [], "[maxreg] p_grid"),
    ("simulate", _simulate("T = 0"), [], "[simulate] T"),
    ("simulate", _simulate("T = -1"), [], "[simulate] T"),
    ("simulate", _simulate("T = nan"), [], "[simulate] T"),
    ("simulate", _simulate("T = inf"), [], "[simulate] T"),
    # str.isdigit accepts digits that int() rejects or reads as another value
    ("simulate", _simulate("forcing = single_mode \u00b2"), [], "[simulate] forcing"),
    ("simulate", _simulate("forcing = single_mode \u0661"), [], "[simulate] forcing"),
    ("spectrum", ("omega = 0.2 0.4", "omega = 0.2"), [], "[model] omega"),
    ("spectrum", ("omega = 0.2 0.4", "omega = 0.2 0.4 0.6"), [], "[model] omega"),
    ("spectrum", ("omega = 0.2 0.4", "omega ="), [], "[model] omega"),
    ("spectrum", _coupled("omega = 0.25 0.45", "omega = 0.2"), [], "[model] omega"),
    ("spectrum", _coupled("omega = 0.25 0.45", "omega = 0.2 0.4 0.6"), [], "[model] omega"),
    ("spectrum", _coupled("omega = 0.25 0.45", "omega ="), [], "[model] omega"),
    ("synthesize", ("targets = -2", "targets = nan"), [], "[synthesis] targets"),
    ("synthesize", _coupled("targets = -2 -3", "targets = -2 -inf"), [],
     "[synthesis] targets"),
    ("synthesize", ("targets = -2", "targets = -2x"), [], "[synthesis] targets"),
    # a non-finite model parameter is rejected before it reaches the model
    ("synthesize", ("c2 = 16.0", "c2 = inf"), [], "[model] c2"),
    ("synthesize", _coupled("c2_h = 16.0", "c2_h = inf"), [], "[model] c2_h"),
    # a finite kappa whose ratio c2_h/kappa overflows to inf
    ("spectrum", _coupled("c2_h = 16.0", "c2_h = 16.0\nkappa = 1e-310"), [], "c2_h/kappa"),
    ("spectrum", ("type = heat", "type = bogus"), [], "model type 'bogus'"),
    ("spectrum", ("type = heat\n", ""), [], "missing [model] type"),
    ("maxreg", ("p_grid = 2", "p_grid = 2 abc"), [], "[maxreg] p_grid"),
    ("maxreg", ("t_grid = 4 8 12", "t_grid = 4 8 x"), [], "[maxreg] t_grid"),
], ids=["forcing-empty", "mode-not-int", "mode-negative", "mode-too-large",
        "constant-extra-token", "simulate-cells-0", "simulate-cells-negative",
        "maxreg-cells-negative", "maxreg-cells-0", "forcing-count-negative",
        "config-seed-negative", "flag-seed-negative", "config-seed-2-64", "flag-seed-2-64",
        "parallel-0", "parallel-2",
        "t-grid-nan", "t-grid-inf", "t-grid-zero", "t-grid-two-horizons",
        "t-grid-decreasing", "p-grid-1", "p-grid-nan", "p-grid-empty",
        "simulate-T-0", "simulate-T-negative", "simulate-T-nan", "simulate-T-inf",
        "mode-superscript-digit", "mode-arabic-indic-digit",
        "heat-omega-one-value", "heat-omega-three-values", "heat-omega-empty",
        "coupled-omega-one-value", "coupled-omega-three-values", "coupled-omega-empty",
        "targets-nan", "targets-neg-inf", "targets-unparsable", "c2-inf", "c2_h-inf",
        "c2_h-over-kappa-overflows",
        "type-unknown", "type-missing", "p-grid-not-a-number", "t-grid-not-a-number"])
def test_bad_input_exit_2(tmp_path, capsys, command, edit, flags, name):
    template, old, new = edit if len(edit) == 3 else (HEAT_CFG, *edit)
    text = template.format(out=tmp_path / "out").replace(old, new)
    assert new in text
    cfg = write_config(tmp_path / "c.ini", text)
    try:
        code = run([command, "--config", cfg, *flags])
    except SystemExit as exc:       # argparse rejects a bad flag value
        code = exc.code
    assert code == 2
    assert name in capsys.readouterr().err


def test_empty_operator_exit_2(tmp_path, capsys):
    write_abstract_files(tmp_path)
    (tmp_path / "op.txt").write_text("0 0\n")
    cfg = write_config(tmp_path / "c.ini",
                       ABSTRACT_CFG.format(dir=tmp_path, out=tmp_path / "out"))
    assert run(["spectrum", "--config", cfg]) == 2
    assert "'abstract operator' is empty" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_command_builds_the_lifting(tmp_path, capsys, command):
    # a bad lifting stops every command with exit 2, also the commands that
    # never read it: an exponent outside (0, 1), and the first discrete
    # resonance at n = 16, 4.5e-3 from pi, which the continuum guard lets through
    write_abstract_files(tmp_path)
    abstract = ABSTRACT_CFG.format(dir=tmp_path, out=tmp_path / "out").replace(
        "green_gamma = 0.3", "green_gamma = 1.5")
    resonant = HEAT_CFG.format(out=tmp_path / "out").replace(
        "n = 32", "n = 16").replace("c2 = 16.0", "c2 = 9.84154838270477")
    for text, message in ((abstract, "gamma must lie strictly in (0,1)"),
                          (resonant, "numerically singular")):
        cfg = write_config(tmp_path / "c.ini", text)
        assert run([command, "--config", cfg]) == 2
        assert message in capsys.readouterr().err


def test_simulate_random_seed_matches_manifest(tmp_path):
    text = HEAT_CFG.format(out=tmp_path / "config") + (
        "\n[simulate]\nforcing = random\nT = 5\nn_cells = 200\n")
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["simulate", "--config", cfg]) == 0          # [maxreg] seed = 11
    assert "seed: 11" in (tmp_path / "config" / "manifest.txt").read_text()
    for seed in ("11", "0"):
        assert run(["simulate", "--config", cfg, "--seed", seed,
                    "--out", str(tmp_path / seed)]) == 0
    trajectory = (tmp_path / "config" / "trajectory.csv").read_bytes()
    assert trajectory == (tmp_path / "11" / "trajectory.csv").read_bytes()
    assert trajectory != (tmp_path / "0" / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("module", ["scipy", "scipy.signal", "scipy.optimize",
                                    "scipy.sparse", "scipy.spatial", "scipy.special"])
def test_import_leaves_scipy_signal_out(module):
    # scipy.linalg alone costs about 0.3 s and 27 MB at import, scipy.signal
    # about 0.5 s, scipy.optimize with sparse, spatial and special about
    # 0.25 s and 21 MB; the runtime needs numpy only
    src = os.path.dirname(os.path.dirname(stabreg.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import stabreg, stabreg.cli; " \
        f"print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_runtime_runs_without_numpy_random(tmp_path):
    # a process in which importing numpy.random fails runs the tiny heat
    # report and a random-forcing simulation: every draw is the package's own
    text = TINY_HEAT_CFG.format(out=tmp_path / "out") + (
        "\n[simulate]\nforcing = random\nT = 5\nn_cells = 50\n")
    cfg = write_config(tmp_path / "c.ini", text)
    src = os.path.dirname(os.path.dirname(stabreg.__file__))
    for command in ("report", "simulate"):
        code = (f"import sys; sys.path.insert(0, {src!r}); sys.modules['numpy.random'] = None; "
                f"from stabreg import cli; sys.exit(cli.main([{command!r}, '--config', {cfg!r}]))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
    verify = (tmp_path / "out" / "verify.csv").read_text().splitlines()
    assert verify[-1] == "overall,1,1,PASS"
    assert (tmp_path / "out" / "trajectory.csv").exists()


@pytest.mark.parametrize("template", [HEAT_CFG, COUPLED_CFG, ABSTRACT_CFG],
                         ids=["heat", "coupled", "abstract"])
def test_report_runs_without_scipy(tmp_path, template):
    # a process in which importing scipy fails runs a whole report
    write_abstract_files(tmp_path)
    cfg = write_config(tmp_path / "c.ini", template.format(dir=tmp_path, out=tmp_path / "out"))
    src = os.path.dirname(os.path.dirname(stabreg.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); sys.modules['scipy'] = None; "
            f"from stabreg import cli; sys.exit(cli.main(['report', '--config', {cfg!r}]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "out" / "summary.csv").exists()
