import collections
import os
import subprocess
import sys

import numpy as np
import pytest

import stabreg
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


def test_maxreg_csv_contract(tmp_path):
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "out"))
    assert run(["maxreg", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "out" / "maxreg.csv")
    assert header == "model,mode,p,T,C_estimate,imag_sup,verdict"
    assert len(rows) == 3     # one p, three horizons
    assert all(r[6] == "plateau" for r in rows)


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
    assert names[i + 1:] == ["plateau_p=2", "overall"]


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


def test_verify_parallel_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "c.ini", HEAT_CFG.format(out=tmp_path / "p1"))
    assert run(["verify", "--config", cfg, "--parallel", "1"]) == 0
    assert run(["verify", "--config", cfg, "--parallel", "2",
                "--out", str(tmp_path / "p2")]) == 0
    for name in ("verify.csv", "maxreg.csv"):
        assert (tmp_path / "p1" / name).read_bytes() == (tmp_path / "p2" / name).read_bytes()


def test_unknown_key_exit_2(tmp_path, capsys):
    write_abstract_files(tmp_path)
    cases = [("t_grid = 4 8 12", "t_grid = 4 8 12\np_gird = 2", "p_gird"),
             ("c2 = 16.0", "c2 = 16.0\nc2_f = 16.0", "c2_f"),     # coupled key on heat
             ("[output]", "[outptu]", "[outptu]"),
             # each model reads only its own [synthesis] keys
             ("targets = -2", "targets = -2\nuse_interior = true", "use_interior")]
    cases = [(HEAT_CFG, "spectrum") + case for case in cases] + [
        (ABSTRACT_CFG, "spectrum", "[maxreg]", "[synthesis]\ntargets = -2\n\n[maxreg]",
         "targets"),
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
    ("spectrum", ("", ""), ["--parallel", "0"], "--parallel"),
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
], ids=["forcing-empty", "mode-not-int", "mode-negative", "mode-too-large",
        "constant-extra-token", "simulate-cells-0", "simulate-cells-negative",
        "maxreg-cells-negative", "maxreg-cells-0", "forcing-count-negative",
        "config-seed-negative", "flag-seed-negative", "parallel-0",
        "t-grid-nan", "t-grid-inf", "t-grid-zero", "t-grid-two-horizons",
        "t-grid-decreasing", "p-grid-1", "p-grid-nan", "p-grid-empty",
        "simulate-T-0", "simulate-T-negative", "simulate-T-nan", "simulate-T-inf",
        "mode-superscript-digit", "mode-arabic-indic-digit",
        "heat-omega-one-value", "heat-omega-three-values", "heat-omega-empty",
        "coupled-omega-one-value", "coupled-omega-three-values", "coupled-omega-empty"])
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


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.optimize", "scipy.sparse",
                                    "scipy.spatial", "scipy.special"])
def test_import_leaves_scipy_signal_out(module):
    # scipy.signal costs about 0.5 s and 27 MB at import, scipy.optimize with
    # sparse, spatial and special about 0.25 s and 21 MB; only scipy.linalg is
    # needed
    src = os.path.dirname(os.path.dirname(stabreg.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import stabreg, stabreg.cli; " \
        f"print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
