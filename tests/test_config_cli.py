"""Config grammar, load-time admissibility checks, CLI runs, file formats."""

import csv
import struct
from pathlib import Path

import numpy as np
import pytest

from chks.cli import main
from chks.config import ConfigError, generate_field, load_config
from chks.fields_io import read_field, write_field
from chks.grid import Grid
from chks.potentials import AdmissibilityError, ProliferationSpec
from chks.state import solve_forward

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = """
seed = 7
[grid]
nx = 8
ny = 8
[model]
potential = regular
prolif = logistic
h0 = 0.5
[initial]
phi0 = constant 0.4
a0 = constant 0.8
n0 = constant 0.0
sigma0 = constant 0.5
[control]
b1 = 0.0
b2 = 0.0
b3 = 1.0
u0 = constant 0.2
[time]
T = 0.25
Nt = 8
"""


def test_minimal_config_accepted(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.grid.nx == 8
    assert cfg.nt == 8
    assert cfg.seed == 7
    assert cfg.u0.values.shape == (8, 8, 8)


def test_bundled_configs_load():
    for name in ("simulate.cfg", "verify.cfg", "optimize_inverse_crime.cfg",
                 "trivial_optimum.cfg"):
        cfg = load_config(CONFIG_DIR / name)
        assert cfg.grid.nx == 16


def test_seed_override(tmp_path):
    path = write_cfg(tmp_path, MINIMAL)
    cfg = load_config(path, seed_override=123)
    assert cfg.seed == 123


def test_chi_out_of_range_cites_condition(tmp_path):
    bad = MINIMAL.replace("[model]", "[model]\nchi_phi = 1.5")
    with pytest.raises(ConfigError, match=r"\(2\.3\)"):
        load_config(write_cfg(tmp_path, bad))


def test_log_potential_zero_prolif_rejected(tmp_path):
    bad = MINIMAL.replace("potential = regular", "potential = logarithmic")
    bad = bad.replace("prolif = logistic\nh0 = 0.5", "prolif = zero")
    bad = bad.replace("phi0 = constant 0.4", "phi0 = constant 0.5")
    with pytest.raises(ConfigError, match=r"\(2\.11\)"):
        load_config(write_cfg(tmp_path, bad))


def test_nonpositive_a0_rejected(tmp_path):
    bad = MINIMAL.replace("a0 = constant 0.8", "a0 = constant 0.0")
    with pytest.raises(ConfigError, match=r"\(2\.12\)"):
        load_config(write_cfg(tmp_path, bad))


def test_sigma0_out_of_range_rejected(tmp_path):
    bad = MINIMAL.replace("sigma0 = constant 0.5", "sigma0 = constant 1.5")
    with pytest.raises(ConfigError, match=r"\(2\.13\)"):
        load_config(write_cfg(tmp_path, bad))


def test_inadmissible_u0_rejected(tmp_path):
    bad = MINIMAL.replace("u0 = constant 0.2", "u0 = constant -0.2")
    with pytest.raises(ConfigError, match=r"\(2\.14\)"):
        load_config(write_cfg(tmp_path, bad))


def test_parse_error_carries_line_number(tmp_path):
    bad = MINIMAL + "\nnot a statement\n"
    with pytest.raises(ConfigError, match=r"line \d+"):
        load_config(write_cfg(tmp_path, bad))


def test_nonfinite_proliferation_rejected(tmp_path):
    # The config reader rejects an infinite number at its line; condition
    # (2.4) still guards ProliferationSpec built directly.
    bad = MINIMAL.replace("h0 = 0.5", "h0 = inf")
    line_no = bad.splitlines().index("h0 = inf") + 1
    with pytest.raises(ConfigError, match=rf"line {line_no}: \[model\] h0 must be a finite number"):
        load_config(write_cfg(tmp_path, bad))
    with pytest.raises(AdmissibilityError, match=r"\(2\.4\)"):
        ProliferationSpec(kind="logistic", h0=np.inf)


def test_negative_umax_rejected(tmp_path):
    bad = MINIMAL.replace("[control]", "[control]\nu_max = -1.0")
    with pytest.raises(ConfigError, match=r"\(6\.4\)|\(2\.15\)"):
        load_config(write_cfg(tmp_path, bad))


def test_cli_simulate_homogeneous_mean_phi_closed_form(tmp_path):
    # With zero proliferation and constant data, the mean_phi column of
    # series.csv follows the implicit-Euler decay (1 + m*tau)^-k exactly.
    text = MINIMAL.replace("prolif = logistic\nh0 = 0.5", "prolif = zero")
    text = text.replace("[model]", "[model]\nm = 2.0")
    out = tmp_path / "homog"
    assert main(["simulate", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 0
    with open(out / "series.csv") as fh:
        rows = list(csv.DictReader(fh))
    tau = 0.25 / 8
    for k, row in enumerate(rows):
        expected = 0.4 * (1.0 + 2.0 * tau) ** (-k)
        assert float(row["mean_phi"]) == pytest.approx(expected, rel=1e-12)


def test_phi0_outside_log_domain_rejected(tmp_path):
    bad = MINIMAL.replace("potential = regular", "potential = logarithmic")
    bad = bad.replace("prolif = logistic\nh0 = 0.5", "prolif = constant\nh0 = 0.5")
    bad = bad.replace("phi0 = constant 0.4", "phi0 = constant 1.4")
    with pytest.raises(ConfigError, match=r"\(2\.10\)"):
        load_config(write_cfg(tmp_path, bad))


def test_generator_field_ranges():
    grid = Grid(16, 16)
    rng = np.random.default_rng(5)
    f = generate_field(grid, "random_smooth 0.2 0.8 3", rng)
    assert f.min() == pytest.approx(0.2)
    assert f.max() == pytest.approx(0.8)
    c = generate_field(grid, "constant 0.7", rng)
    assert np.all(c == 0.7)
    cos = generate_field(grid, "cosine 0.5 0.2 1 1", rng)
    assert abs(cos - 0.5).max() <= 0.2 + 1e-12


def test_field_snapshot_roundtrip_bit_exact(tmp_path):
    grid = Grid(5, 3, 2.0, 1.0)
    data = np.random.default_rng(1).standard_normal(grid.shape)
    path = tmp_path / "f.fld"
    write_field(path, grid, data)
    grid2, data2 = read_field(path)
    assert grid2 == grid
    assert data2.tobytes() == data.tobytes()


def test_field_snapshot_layout(tmp_path):
    # 32-byte header {magic, u32 nx, u32 ny, f64 lx, f64 ly}, then
    # little-endian f64 row-major with y outer and x inner.
    grid = Grid(2, 2, 1.0, 1.0)
    data = np.array([[1.0, 3.0], [2.0, 4.0]])  # data[i, j], i = x index
    path = tmp_path / "f.fld"
    write_field(path, grid, data)
    raw = path.read_bytes()
    assert len(raw) == 32 + 8 * 4
    magic, nx, ny, lx, ly = struct.unpack("<8sIIdd", raw[:32])
    assert magic == b"CHKSFLD1"
    assert (nx, ny) == (2, 2)
    assert (lx, ly) == (1.0, 1.0)
    vals = struct.unpack("<4d", raw[32:])
    assert vals == (1.0, 2.0, 3.0, 4.0)  # (x0,y0), (x1,y0), (x0,y1), (x1,y1)


def test_field_snapshot_overwrite_matches_fresh_write(tmp_path):
    # Snapshots are rewritten in place: over a longer junk file and over an
    # older snapshot of the same size the bytes equal those of a new file.
    grid = Grid(5, 3, 2.0, 1.0)
    data = np.random.default_rng(2).standard_normal(grid.shape)
    fresh = tmp_path / "fresh.fld"
    write_field(fresh, grid, data)
    junk = tmp_path / "junk.fld"
    junk.write_bytes(b"\xff" * 3 * fresh.stat().st_size)
    older = tmp_path / "older.fld"
    write_field(older, grid, -data)
    for path in (junk, older):
        write_field(path, grid, data)
        assert path.read_bytes() == fresh.read_bytes()


def test_cli_simulate_and_determinism(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    cfg = str(CONFIG_DIR / "simulate.cfg")
    assert main(["simulate", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", cfg, "--out", str(out2)]) == 0
    series1 = (out1 / "series.csv").read_bytes()
    series2 = (out2 / "series.csv").read_bytes()
    assert series1 == series2
    for snap in sorted(out1.glob("*.fld")):
        assert snap.read_bytes() == (out2 / snap.name).read_bytes()
    header = series1.decode().splitlines()[0]
    assert header == "step,time,energy,mean_phi,sigma_min,sigma_max,a_min,clamp_events"
    assert len(list(out1.glob("phi_*.fld"))) == 33


def test_cli_simulate_rejects_bad_config(tmp_path):
    bad = write_cfg(tmp_path, MINIMAL.replace("sigma0 = constant 0.5",
                                              "sigma0 = constant 1.5"))
    assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("phrase", [
    "constant abc", "constant", "cosine 0.5", "file truncated.fld", "file bad_magic.fld",
    "constant 0.4 0.9", "cosine 0.5 0.2 1 1 7", "random_smooth 0 1 2 9",
])
def test_cli_simulate_rejects_malformed_field_generator(tmp_path, capsys, phrase):
    grid = Grid(8, 8)
    write_field(tmp_path / "good.fld", grid, np.full(grid.shape, 0.4))
    good = (tmp_path / "good.fld").read_bytes()
    (tmp_path / "truncated.fld").write_bytes(good[:-8])
    (tmp_path / "bad_magic.fld").write_bytes(b"CHKSFLD0" + good[8:])
    bad = write_cfg(tmp_path, MINIMAL.replace("phi0 = constant 0.4", f"phi0 = {phrase}"))
    assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert repr(phrase) in capsys.readouterr().err


@pytest.mark.parametrize("old, new, bad", [
    ("seed = 7", "seed = abc", "seed = abc"),
    ("[time]", "[time]\ns_stab = abc", "s_stab = abc"),
    ("[control]", "[control]\nu_max = abc", "u_max = abc"),
    ("T = 0.25", "T = nan", "T = nan"),
    ("b1 = 0.0", "b1 = nan", "b1 = nan"),
    ("[control]", "[contrl]\nb_1 = 5", "[contrl]"),
    ("[control]", "[control]\nb_1 = 5", "b_1 = 5"),
    ("nx = 8", "nx = -3", "nx = -3"),
    ("nx = 8", "nx = 0", "nx = 0"),
    ("ny = 8", "ny = 8\nlx = -1", "lx = -1"),
    ("ny = 8", "ny = 8\nlx = inf", "lx = inf"),
    ("T = 0.25", "T = inf", "T = inf"),
    ("b3 = 1.0", "b3 = 1.0\nb3 = 5.0", "b3 = 5.0"),
    ("[time]", "[time]\ns_stab = -5", "s_stab = -5"),
    ("Nt = 8", "Nt = 8\n[optimize]\nmax_iters = -1", "max_iters = -1"),
    ("Nt = 8", "Nt = 8\n[optimize]\nbacktrack = 2", "backtrack = 2"),
    ("Nt = 8", "Nt = 8\n[optimize]\nbacktrack = 0", "backtrack = 0"),
    ("Nt = 8", "Nt = 8\n[optimize]\narmijo_c = -1", "armijo_c = -1"),
    ("Nt = 8", "Nt = 8\n[optimize]\narmijo_c = 1", "armijo_c = 1"),
], ids=["seed", "s_stab", "u_max", "T_nan", "b1_nan", "unknown_section", "unknown_key",
        "nx_negative", "nx_zero", "lx_negative", "lx_inf", "T_inf", "repeated_key",
        "s_stab_negative", "max_iters_negative", "backtrack_above_1", "backtrack_zero",
        "armijo_c_negative", "armijo_c_one"])
def test_cli_simulate_rejects_bad_statement(tmp_path, capsys, old, new, bad):
    # A malformed number, NaN or infinity, a grid size, s_stab or optimizer
    # setting out of range, a repeated key, or a section or key outside the
    # grammar is a config error (exit 2) that names the statement's line and key.
    text = MINIMAL.replace(old, new, 1)
    line_no = text.splitlines().index(bad) + 1
    assert main(["simulate", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"line {line_no}:" in err
    assert bad.split("=")[0].strip().lower() in err


def test_repeated_key_names_both_lines(tmp_path):
    text = MINIMAL.replace("b3 = 1.0", "b3 = 1.0\nb3 = 5.0", 1)
    first = text.splitlines().index("b3 = 1.0") + 1
    with pytest.raises(ConfigError, match=rf"line {first + 1}: .*b3.* repeats line {first}"):
        load_config(write_cfg(tmp_path, text))


def test_cli_simulate_clamp_events_per_level(tmp_path):
    # phi0 leaves [eps_clamp, 1 - eps_clamp] at the four corner cells. The
    # report and series.csv count, per stored level, that level's cells outside.
    text = (MINIMAL.replace("potential = regular", "potential = logarithmic\neps_clamp = 0.05")
            .replace("prolif = logistic", "prolif = constant")
            .replace("phi0 = constant 0.4", "phi0 = cosine 0.5 0.49 1 1"))
    path, out = write_cfg(tmp_path, text), tmp_path / "clamp"
    assert main(["simulate", str(path), "--out", str(out)]) == 0
    with open(out / "series.csv") as fh:
        rows = list(csv.DictReader(fh))
    cfg = load_config(path)
    traj, report = solve_forward(cfg.grid, cfg.model, cfg.init, cfg.u0, cfg.T, cfg.nt)
    expected = [int(np.count_nonzero((phi < 0.05) | (phi > 0.95))) for phi in traj.phi]
    assert expected[0] > 0
    assert [int(row["clamp_events"]) for row in rows] == expected
    assert report.clamp_events.tolist() == expected


def test_cli_optimize_trivial(tmp_path):
    out = tmp_path / "opt"
    assert main(["optimize", str(CONFIG_DIR / "trivial_optimum.cfg"),
                 "--out", str(out)]) == 0
    text = (out / "optimize.csv").read_text().splitlines()
    assert text[0] == "iteration,cost,stationarity,step_size,backtracks"
    assert len(list(out.glob("control_*.fld"))) == 32
    for name in ("phi", "mu", "a", "n", "sigma", "adj_p1", "adj_p2", "adj_p3", "adj_p4", "adj_p5"):
        assert len(list(out.glob(f"{name}_*.fld"))) == 33, name
    # final control is zero
    _, u_last = read_field(out / "control_000031.fld")
    assert np.abs(u_last).max() <= 1e-8


def test_cli_verify_duality_suite(tmp_path):
    out = tmp_path / "ver"
    rc = main(["verify", str(CONFIG_DIR / "verify.cfg"), "--suite", "duality",
               "--out", str(out)])
    assert rc == 0
    report = (out / "verify_report.csv").read_text()
    assert "duality" in report
    assert (out / "duality.csv").exists()


@pytest.mark.parametrize("case", ["config_is_directory", "config_not_text", "unknown_suite",
                                  "out_is_a_file", "out_below_a_file"])
def test_cli_rejects_bad_command_line(tmp_path, capsys, monkeypatch, case):
    # Exit 2 with the path or value named, before any solve; argparse
    # reports its own rejections by raising SystemExit.
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting the command line")

    monkeypatch.setattr("chks.cli.solve_forward", no_solve)
    not_text = tmp_path / "not_text.cfg"
    not_text.write_bytes(b"\xff\xfe" + MINIMAL.encode())
    out_file = write_cfg(tmp_path, "kept", name="out.txt")
    argv, named = {
        "config_is_directory": (["simulate", str(tmp_path)], str(tmp_path)),
        "config_not_text": (["simulate", str(not_text)], str(not_text)),
        "unknown_suite": (["verify", str(CONFIG_DIR / "verify.cfg"), "--suite", "nosuch"],
                          "nosuch"),
        "out_is_a_file": (["simulate", str(write_cfg(tmp_path, MINIMAL)), "--out", str(out_file)],
                          str(out_file)),
        "out_below_a_file": (["simulate", str(write_cfg(tmp_path, MINIMAL)),
                              "--out", str(out_file / "run")], str(out_file)),
    }[case]
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    assert status == 2
    assert named in capsys.readouterr().err
    assert out_file.read_text() == "kept"
