import collections

import numpy as np
import pytest

from stabreg import cli, matio, maxreg


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


def test_synthesize_achieved_pole(tmp_path):
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "out"))
    assert run(["synthesize", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "achieved_poles.csv")
    assert header == "k,mode,target,achieved"
    achieved = matio.parse_complex(rows[0][3])
    assert achieved.real == pytest.approx(-2.0, abs=1e-6)
    fmat = matio.read_matrix(tmp_path / "out" / "feedback_matrix.txt")
    assert fmat.shape == (2, 32)


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


def test_maxreg_csv_contract(tmp_path):
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "out"))
    assert run(["maxreg", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "maxreg.csv")
    assert header == "model,mode,p,T,C_estimate,imag_sup,verdict"
    assert len(rows) == 3     # one p, three horizons
    assert all(r[6] == "plateau" for r in rows)


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


def test_abstract_model_identity_rows(tmp_path):
    op = np.array([[-1.0, 0.3], [0.0, -2.0]])
    green = np.array([[1.0], [0.5]])
    fb = np.array([[0.2, -0.1]])
    matio.write_matrix(tmp_path / "op.txt", op)
    matio.write_matrix(tmp_path / "g.txt", green)
    matio.write_matrix(tmp_path / "f.txt", fb)
    text = f"""
[model]
type = abstract
operator_file = {tmp_path / 'op.txt'}
green_file = {tmp_path / 'g.txt'}
green_gamma = 0.3
feedback_file = {tmp_path / 'f.txt'}

[maxreg]
p_grid = 2
t_grid = 4 8 12
forcing_count = 4
n_cells = 200
seed = 5

[output]
dir = {tmp_path / 'out'}
"""
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["verify", "--config", cfg]) == 0
    _, rows = read_csv(tmp_path / "out" / "verify.csv")
    by_name = {r[0]: r for r in rows}
    assert float(by_name["resolvent_identity_max"][1]) <= 1e-8
    assert float(by_name["adjoint_decomposition"][1]) <= 1e-8


def test_coupled_verify_and_report(tmp_path):
    text = COUPLED_CFG.format(out=tmp_path / "out")
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["report", "--config", cfg]) == 0
    out = tmp_path / "out"
    for name in ("spectrum.csv", "achieved_poles.csv", "verify.csv",
                 "maxreg.csv", "summary.csv", "interior_matrix.txt"):
        assert (out / name).exists()
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


def test_bad_bool_exit_2(tmp_path, capsys):
    text = COUPLED_CFG.format(out=tmp_path / "out").replace(
        "targets = -2 -3", "targets = -2 -3\nuse_interior = ture")
    cfg = write_config(tmp_path / "c.ini", text)
    assert run(["synthesize", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "use_interior" in err


@pytest.mark.parametrize("template", [HEAT_CFG, COUPLED_CFG], ids=["heat", "coupled"])
def test_verify_and_report_scan_once(tmp_path, monkeypatch, template):
    cfg = write_config(tmp_path / "c.ini", template.format(out=tmp_path / "out"))
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


def test_verify_parallel_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "p1"))
    assert run(["verify", "--config", cfg, "--parallel", "1"]) == 0
    assert run(["verify", "--config", cfg, "--parallel", "2",
                "--out", str(tmp_path / "p2")]) == 0
    for name in ("verify.csv", "maxreg.csv"):
        assert (tmp_path / "p1" / name).read_bytes() == (tmp_path / "p2" / name).read_bytes()
