"""Config grammar, load-time admissibility checks, CLI runs, file formats."""

import csv
import dataclasses
import struct
from pathlib import Path

import numpy as np
import pytest

from chks import config as config_mod
from chks.cli import cmd_simulate, main
from chks.config import ConfigError, generate_field, load_config
from chks.control_opt import OptimizeOptions
from chks.fields_io import read_field, write_field
from chks.grid import Grid
from chks.potentials import AdmissibilityError, ProliferationSpec
from chks.state import FORWARD_FIELDS, Control, ModelSpec, solve_forward
from chks.verify import _smooth_direction

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
    with pytest.raises(ConfigError, match="seed override -1"):
        load_config(path, seed_override=-1)


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


@pytest.mark.parametrize("command", ["simulate", "optimize", "verify"])
def test_cli_negative_umax_with_simulation_targets_exits_2(tmp_path, capsys, command):
    # targets = simulation solves for its targets while the config loads;
    # the control spec is checked first, so a negative u_max is a config
    # error of [control], as it is with targets = fields.
    text = (CONFIG_DIR / "optimize_inverse_crime.cfg").read_text()
    assert "\ntargets = simulation\n" in text and "\nu_max = 1.0\n" in text
    path = write_cfg(tmp_path, text.replace("\nu_max = 1.0\n", "\nu_max = -1\n"))
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: [control]: (6.4)")


def test_simulation_targets_keep_phi_alone_bitwise_a_keep_all_solve(monkeypatch):
    # targets = simulation reads phi alone from its target solve, so that
    # solve keeps phi alone, and its targets are bitwise those of a solve
    # that keeps every unknown.
    calls = []
    original = config_mod.solve_forward

    def recorded(*args, **kwargs):
        traj, report = original(*args, **kwargs)
        calls.append((kwargs["keep"], traj.names))
        return traj, report

    monkeypatch.setattr(config_mod, "solve_forward", recorded)
    cfg = load_config(CONFIG_DIR / "optimize_inverse_crime.cfg")
    assert calls == [(("phi",), ("phi",))]
    stored, _ = solve_forward(cfg.grid, cfg.model, cfg.init, Control(cfg.u_true, cfg.u0.u_max),
                              cfg.T, cfg.nt, s_stab=cfg.s_stab, flux_scheme=cfg.flux_scheme)
    assert stored.names == FORWARD_FIELDS
    assert cfg.control_spec.phi_q.tobytes() == stored.phi[1:].tobytes()
    assert cfg.control_spec.phi_omega.tobytes() == stored.phi[cfg.nt].tobytes()


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


@pytest.mark.parametrize("grid", [Grid(7, 5, 1.3, 0.7), Grid(33, 17, 0.9, 2.1)],
                         ids=["7x5", "33x17"])
def test_generate_field_matches_meshgrid_formulas(grid):
    # The generators evaluated on full (nx, ny) coordinate arrays: the
    # separable form must give the same bits and leave the rng in the same state.
    x, y = grid.cell_centers()

    def random_smooth(lo, hi, modes, rng):
        f = np.zeros(grid.shape)
        for kx in range(modes + 1):
            for ky in range(modes + 1):
                c = rng.normal()
                f += c * np.cos(kx * np.pi * x / grid.lx) * np.cos(ky * np.pi * y / grid.ly)
        fmin, fmax = float(f.min()), float(f.max())
        if fmax - fmin < 1e-30:
            return np.full(grid.shape, 0.5 * (lo + hi))
        return lo + (hi - lo) * (f - fmin) / (fmax - fmin)

    cases = [(f"random_smooth 0.2 0.8 {m}", lambda rng, m=m: random_smooth(0.2, 0.8, m, rng))
             for m in (0, 2, 3)]
    cases += [("cosine 0.5 0.2 2 3", lambda rng: 0.5 + 0.2 * np.cos(2.0 * np.pi * x / grid.lx)
               * np.cos(3.0 * np.pi * y / grid.ly)),
              ("constant 0.7", lambda rng: np.full(grid.shape, 0.7))]
    for phrase, oracle in cases:
        rng, rng_oracle = np.random.default_rng(17), np.random.default_rng(17)
        assert np.array_equal(generate_field(grid, phrase, rng), oracle(rng_oracle)), phrase
        assert rng.normal() == rng_oracle.normal(), phrase


@pytest.mark.parametrize("grid", [Grid(7, 5, 1.3, 0.7), Grid(33, 17, 0.9, 2.1)],
                         ids=["7x5", "33x17"])
def test_smooth_direction_matches_meshgrid_loop(grid):
    # The verification suites' directions drawn one coefficient at a time
    # and evaluated on full (nx, ny) coordinate arrays: the block draws and
    # the separable series must give the same bits and leave the rng in the
    # same state, so every suite measures the same problem.
    x, y = grid.cell_centers()

    def smooth_direction(nt, rng, modes):
        out = np.zeros((nt, grid.nx, grid.ny))
        for k in range(nt):
            f = np.zeros(grid.shape)
            for kx in range(modes + 1):
                for ky in range(modes + 1):
                    f += rng.normal() * np.cos(kx * np.pi * x / grid.lx) * np.cos(
                        ky * np.pi * y / grid.ly
                    )
            peak = float(np.abs(f).max())
            out[k] = f / peak if peak > 0 else f
        return out

    for nt, modes in ((1, 2), (6, 2), (3, 0), (2, 3)):
        rng, rng_oracle = np.random.default_rng(23), np.random.default_rng(23)
        assert np.array_equal(_smooth_direction(grid, nt, rng, modes),
                              smooth_direction(nt, rng_oracle, modes)), (nt, modes)
        assert rng.normal() == rng_oracle.normal(), (nt, modes)


def test_random_smooth_modes_below_the_larger_grid_side(tmp_path):
    # On n cell centres, mode k >= n repeats a lower mode (or vanishes), so
    # a count of max(nx, ny) or more is rejected with its line and key.
    text = MINIMAL.replace("nx = 8\nny = 8", "nx = 16\nny = 16")
    cfg = load_config(write_cfg(tmp_path, text.replace("phi0 = constant 0.4",
                                                       "phi0 = random_smooth 0.3 0.5 15")))
    assert cfg.init.phi0.min() == pytest.approx(0.3)
    bad = text.replace("phi0 = constant 0.4", "phi0 = random_smooth 0.3 0.5 16")
    line_no = bad.splitlines().index("phi0 = random_smooth 0.3 0.5 16") + 1
    with pytest.raises(ConfigError, match=rf"^line {line_no}: \[initial\] phi0: .*"
                                          r"modes must lie in \[0, 16\), got 16$"):
        load_config(write_cfg(tmp_path, bad))


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


MALFORMED_PHRASES = [
    "constant abc", "constant", "cosine 0.5", "file truncated.fld", "file bad_magic.fld",
    "constant 0.4 0.9", "cosine 0.5 0.2 1 1 7", "random_smooth 0 1 2 9",
    "constant nan", "cosine 0.5 inf 1 1", "cosine 0.5 0.2 inf 1", "random_smooth 0 1 -1",
    "file nan.fld",
]


@pytest.mark.parametrize("section, key, phrase", [
    *(("initial", "phi0", phrase) for phrase in MALFORMED_PHRASES),
    ("control", "phi_omega", "constant nan"),
    ("control", "u_max", "file nan.fld"),
], ids=[*MALFORMED_PHRASES, "phi_omega constant nan", "u_max file nan.fld"])
def test_cli_simulate_rejects_malformed_field_generator(tmp_path, capsys, section, key, phrase):
    grid = Grid(8, 8)
    write_field(tmp_path / "good.fld", grid, np.full(grid.shape, 0.4))
    nan_cell = np.full(grid.shape, 0.4)
    nan_cell[3, 5] = np.nan
    write_field(tmp_path / "nan.fld", grid, nan_cell)
    good = (tmp_path / "good.fld").read_bytes()
    (tmp_path / "truncated.fld").write_bytes(good[:-8])
    (tmp_path / "bad_magic.fld").write_bytes(b"CHKSFLD0" + good[8:])
    # key's line goes first in its section, in place of any line setting it.
    lines = [line for line in MINIMAL.splitlines() if not line.startswith(f"{key} = ")]
    line_no = lines.index(f"[{section}]") + 2
    lines.insert(line_no - 1, f"{key} = {phrase}")
    bad = write_cfg(tmp_path, "\n".join(lines))
    assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 2
    # The rejection names the line and the key before the phrase.
    err = capsys.readouterr().err
    assert f"line {line_no}: [{section}] {key}: field generator {phrase!r}: " in err


@pytest.mark.parametrize("command, old, new", [
    (["optimize"], "u0 = constant 0.2", "u0 = constant 0.2\nphi_q = constant nan"),
    (["verify", "--suite", "duality"], "u0 = constant 0.2",
     "u0 = constant 0.2\nphi_q = constant nan"),
    (["optimize"], "u0 = constant 0.2",
     "u0 = constant 0.2\ntargets = simulation\nu_true = constant nan"),
], ids=["optimize_phi_q", "verify_phi_q", "optimize_u_true"])
def test_cli_rejects_nonfinite_target_generator(tmp_path, capsys, command, old, new):
    # A NaN target or simulated control is a config error quoting the
    # phrase (exit 2), not a solver error (exit 3) or a traceback.
    bad = write_cfg(tmp_path, MINIMAL.replace(old, new, 1))
    assert main([command[0], str(bad), *command[1:], "--out", str(tmp_path / "o")]) == 2
    assert "'constant nan'" in capsys.readouterr().err


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
    ("ny = 8", "ny = 8\nlx = 1e-200", "lx = 1e-200"),
    ("ny = 8", "ny = 8\nlx = 1e200", "lx = 1e200"),
    ("T = 0.25", "T = inf", "T = inf"),
    ("b3 = 1.0", "b3 = 1.0\nb3 = 5.0", "b3 = 5.0"),
    ("[time]", "[time]\ns_stab = -5", "s_stab = -5"),
    ("Nt = 8", "Nt = 8\n[optimize]\nmax_iters = -1", "max_iters = -1"),
    ("Nt = 8", "Nt = 8\n[optimize]\ntol_stat = -1", "tol_stat = -1"),
    ("Nt = 8", "Nt = 8\n[optimize]\ntol_stat = -1e-9", "tol_stat = -1e-9"),
    ("Nt = 8", "Nt = 8\n[optimize]\nbacktrack = 2", "backtrack = 2"),
    ("Nt = 8", "Nt = 8\n[optimize]\nbacktrack = 0", "backtrack = 0"),
    ("Nt = 8", "Nt = 8\n[optimize]\narmijo_c = 1e-4", "armijo_c = 1e-4"),
    ("seed = 7", "seed = -3", "seed = -3"),
    ("potential = regular", "potential = foo", "potential = foo"),
    ("prolif = logistic", "prolif = foo", "prolif = foo"),
    ("[time]", "[time]\nflux_scheme = foo", "flux_scheme = foo"),
    ("[control]", "[control]\ntargets = foo", "targets = foo"),
    ("[control]", "[control]\ntargets = simulation\nphi_q = constant 0.5", "phi_q = constant 0.5"),
    ("[control]", "[control]\ntargets = simulation\nphi_omega = constant 0.5",
     "phi_omega = constant 0.5"),
    ("[control]", "[control]\ntargets = fields\nu_true = constant 0.5", "u_true = constant 0.5"),
], ids=["seed", "s_stab", "u_max", "T_nan", "b1_nan", "unknown_section", "unknown_key",
        "nx_negative", "nx_zero", "lx_negative", "lx_inf", "lx_cell_underflow",
        "lx_cell_overflow", "T_inf", "repeated_key",
        "s_stab_negative", "max_iters_negative", "tol_stat_negative", "tol_stat_tiny_negative",
        "backtrack_above_1", "backtrack_zero",
        "armijo_c_unknown", "seed_negative",
        "potential_unknown", "prolif_unknown", "flux_scheme_unknown", "targets_unknown",
        "phi_q_with_simulation", "phi_omega_with_simulation", "u_true_with_fields"])
def test_cli_simulate_rejects_bad_statement(tmp_path, capsys, old, new, bad):
    # A malformed number, NaN or infinity, a seed, grid size, s_stab or
    # optimizer setting out of range, a side whose cell size squared
    # underflows or overflows (the kernels divide by it), a word outside its
    # list, a target key the chosen targets does not read, a repeated key, or
    # a section or key outside the grammar is a config error (exit 2) that
    # names the statement's line and key.
    text = MINIMAL.replace(old, new, 1)
    line_no = text.splitlines().index(bad) + 1
    assert main(["simulate", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"line {line_no}:" in err
    assert bad.split("=")[0].strip().lower() in err


def test_empty_sections_take_dataclass_defaults(tmp_path):
    # A key left out of [model] or [optimize] takes its dataclass default.
    text = MINIMAL.replace("potential = regular\nprolif = logistic\nh0 = 0.5\n", "")
    cfg = load_config(write_cfg(tmp_path, text + "[optimize]\n"))
    for spec, default in ((cfg.model, ModelSpec()), (cfg.opts, OptimizeOptions())):
        for f in dataclasses.fields(default):
            assert getattr(spec, f.name) == getattr(default, f.name), f.name


def test_repeated_key_names_both_lines(tmp_path):
    text = MINIMAL.replace("b3 = 1.0", "b3 = 1.0\nb3 = 5.0", 1)
    first = text.splitlines().index("b3 = 1.0") + 1
    with pytest.raises(ConfigError, match=rf"line {first + 1}: .*b3.* repeats line {first}"):
        load_config(write_cfg(tmp_path, text))


# phi0 leaves [eps_clamp, 1 - eps_clamp] at the four corner cells.
CLAMPING = (MINIMAL.replace("potential = regular", "potential = logarithmic\neps_clamp = 0.05")
            .replace("prolif = logistic", "prolif = constant")
            .replace("phi0 = constant 0.4", "phi0 = cosine 0.5 0.49 1 1"))


def test_cli_simulate_clamp_events_per_level(tmp_path):
    # The report and series.csv count, per stored level, that level's cells outside.
    path, out = write_cfg(tmp_path, CLAMPING), tmp_path / "clamp"
    assert main(["simulate", str(path), "--out", str(out)]) == 0
    with open(out / "series.csv") as fh:
        rows = list(csv.DictReader(fh))
    cfg = load_config(path)
    traj, report = solve_forward(cfg.grid, cfg.model, cfg.init, cfg.u0, cfg.T, cfg.nt)
    expected = [int(np.count_nonzero((phi < 0.05) | (phi > 0.95))) for phi in traj.phi]
    assert expected[0] > 0
    assert [int(row["clamp_events"]) for row in rows] == expected
    assert report.clamp_events.tolist() == expected


def test_cli_simulate_strict_fails_on_clamp_events(tmp_path, capsys):
    path = write_cfg(tmp_path, CLAMPING)
    assert main(["simulate", str(path), "--out", str(tmp_path / "loose")]) == 0
    assert capsys.readouterr().err == ""
    assert main(["simulate", str(path), "--out", str(tmp_path / "strict"), "--strict"]) == 1
    assert capsys.readouterr().err == "monitor tripped: 4 potential clamp events\n"


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


def overflowing_b2_cfg(tmp_path):
    """configs/verify.cfg with b2 = 1e300, which makes the adjoint's final
    data overflow inside a backward step."""
    text = (CONFIG_DIR / "verify.cfg").read_text()
    assert "\nb2 = 1.0\n" in text
    return write_cfg(tmp_path, text.replace("\nb2 = 1.0\n", "\nb2 = 1e300\n"), "b2.cfg")


def huge_control_cfg(tmp_path):
    """configs/simulate.cfg with a finite but huge control, which overflows
    the sigma CG's rhs norm at forward step 1."""
    text = (CONFIG_DIR / "simulate.cfg").read_text()
    for old, new in (("u_max = 1.0", "u_max = 1e300"),
                     ("u0 = constant 0.3", "u0 = constant 1e300")):
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    return write_cfg(tmp_path, text, "huge_u.cfg")


def test_cli_optimize_solver_failure_names_sweep_and_step(tmp_path, capsys):
    # Exit status 3, with the sweep and step in the message.
    assert main(["optimize", str(overflowing_b2_cfg(tmp_path)), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("solver error: adjoint step ")


# The snapshots of a simulate run that fails at forward step 1.
LEVELS_0_AND_1 = sorted(
    f"{name}_{k:06}.fld" for name in ("phi", "mu", "a", "n", "sigma") for k in (0, 1))


def test_cli_simulate_solver_failure_keeps_the_levels_written(tmp_path, capsys):
    # Levels 0 and 1 were written during the sweep and stay on disk;
    # series.csv, written after the sweep, is not.
    out = tmp_path / "o"
    assert main(["simulate", str(huge_control_cfg(tmp_path)), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "solver error: forward step 1 failed: helmholtz CG: the rhs norm overflows")
    assert sorted(p.name for p in out.iterdir()) == LEVELS_0_AND_1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("old, new, operation", [("lx = 1.0", "lx = 1e-12", "exp"),
                                                 ("c_phi = 0.1", "c_phi = 1e300", "multiply"),
                                                 ("T = 0.5", "T = 1e300", "multiply")])
def test_cli_simulate_overflow_in_a_step_is_that_steps_solver_error(tmp_path, capsys, old, new,
                                                                    operation):
    # Under error::RuntimeWarning an overflow in a step's arithmetic raises
    # RuntimeWarning, which advance names as the step's SolverError: exit 3,
    # not a traceback and not the status of a failed monitor.
    text = (CONFIG_DIR / "simulate.cfg").read_text()
    assert f"\n{old}\n" in text
    cfg = write_cfg(tmp_path, text.replace(f"\n{old}\n", f"\n{new}\n"))
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        f"solver error: forward step 1 failed: overflow encountered in {operation}\n")


# --out holds one run's files: once the config has loaded, main deletes the
# files its command writes (cli.OUTPUTS), so a failed or shorter run into
# the --out of an earlier one leaves none of the earlier run's files behind.

def simulated_out(tmp_path):
    """The --out of a complete simulate run of configs/simulate.cfg."""
    out = tmp_path / "o"
    assert main(["simulate", str(CONFIG_DIR / "simulate.cfg"), "--out", str(out)]) == 0
    return out


def files_in(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_cli_simulate_failure_removes_an_earlier_series_csv(tmp_path):
    out = simulated_out(tmp_path)
    assert (out / "series.csv").exists()
    assert main(["simulate", str(huge_control_cfg(tmp_path)), "--out", str(out)]) == 3
    assert not (out / "series.csv").exists()
    # Only this run's snapshots, those of levels 0 and 1, remain.
    assert sorted(p.name for p in out.iterdir()) == LEVELS_0_AND_1


def test_cli_shorter_simulate_leaves_only_its_own_levels(tmp_path):
    out = simulated_out(tmp_path)
    text = (CONFIG_DIR / "simulate.cfg").read_text()
    assert "\nNt = 32\n" in text
    short = write_cfg(tmp_path, text.replace("\nNt = 32\n", "\nNt = 4\n"), "short.cfg")
    assert main(["simulate", str(short), "--out", str(out)]) == 0
    assert len(list(out.glob("*.fld"))) == 5 * 5
    with open(out / "series.csv", newline="") as fh:
        assert [row["step"] for row in csv.DictReader(fh)] == ["0", "1", "2", "3", "4"]


def test_cli_optimize_failure_removes_an_earlier_optimize_csv(tmp_path):
    out = tmp_path / "o"
    assert main(["optimize", str(CONFIG_DIR / "trivial_optimum.cfg"), "--out", str(out)]) == 0
    assert (out / "optimize.csv").exists()
    assert main(["optimize", str(overflowing_b2_cfg(tmp_path)), "--out", str(out)]) == 3
    assert not (out / "optimize.csv").exists()
    assert not list(out.glob("*.fld"))


def test_cli_config_error_leaves_an_earlier_run_untouched(tmp_path):
    out = simulated_out(tmp_path)
    before = files_in(out)
    bad = write_cfg(tmp_path, MINIMAL.replace("sigma0 = constant 0.5", "sigma0 = constant 1.5"))
    assert main(["simulate", str(bad), "--out", str(out)]) == 2
    assert files_in(out) == before


def test_cli_verify_keeps_a_simulate_runs_files(tmp_path):
    out = simulated_out(tmp_path)
    before = files_in(out)
    assert main(["verify", str(CONFIG_DIR / "verify.cfg"), "--suite", "gradcheck",
                 "--out", str(out)]) == 0
    after = files_in(out)
    assert after.pop("verify_report.csv")
    assert after == before


def test_cli_target_solve_failure_exits_3_before_deleting(tmp_path, capsys):
    # targets = simulation solves for its targets while the config loads; a
    # solver failure there is exit 3 like any other, and an earlier run's
    # files stay, since the command never ran.
    out = simulated_out(tmp_path)
    before = files_in(out)
    text = (CONFIG_DIR / "optimize_inverse_crime.cfg").read_text()
    for old, new in (("u_max = 1.0", "u_max = 1e300"),
                     ("u_true = cosine 0.6 0.3 1 1", "u_true = constant 1e300")):
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    assert main(["optimize", str(write_cfg(tmp_path, text, "huge_u_true.cfg")),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("solver error: forward step 1 failed: ")
    assert files_in(out) == before


def test_cli_main_deletes_what_cmd_simulate_overwrites(tmp_path):
    # cmd_simulate overwrites snapshots in place and deletes nothing (the
    # benchmark calls it directly into one directory); main clears --out.
    out = tmp_path / "o"
    out.mkdir()
    planted = out / "phi_000099.fld"
    write_field(planted, Grid(16, 16), np.zeros((16, 16)))
    cfg = load_config(CONFIG_DIR / "simulate.cfg")
    assert cmd_simulate(cfg, out, strict=False) == 0
    assert planted.exists()
    assert main(["simulate", str(CONFIG_DIR / "simulate.cfg"), "--out", str(out)]) == 0
    assert not planted.exists()
    assert len(list(out.glob("*.fld"))) == 5 * 33


def test_cli_verify_gradcheck_removes_an_earlier_duality_csv(tmp_path):
    out = tmp_path / "ver"
    verify = ["verify", str(CONFIG_DIR / "verify.cfg"), "--out", str(out), "--suite"]
    assert main(verify + ["duality"]) == 0
    assert (out / "duality.csv").exists()
    assert main(verify + ["gradcheck"]) == 0
    assert not (out / "duality.csv").exists()
    with open(out / "verify_report.csv", newline="") as fh:
        assert {row["suite"] for row in csv.DictReader(fh)} == {"gradcheck"}


def test_cli_verify_duality_suite(tmp_path):
    out = tmp_path / "ver"
    rc = main(["verify", str(CONFIG_DIR / "verify.cfg"), "--suite", "duality",
               "--out", str(out)])
    assert rc == 0
    report = (out / "verify_report.csv").read_text()
    assert "duality" in report
    assert "vanish" not in report
    assert (out / "duality.csv").exists()


def test_cli_verify_duality_fails_every_row_when_nothing_is_paired(tmp_path, capsys):
    # With Nt = 1, p3 and psi vanish at every level the identity pairs on
    # both step grids, Nt = 1 and 2: residuals of 0 show nothing, so every
    # row fails (exit 1) and says why.
    text = (CONFIG_DIR / "verify.cfg").read_text()
    assert "\nNt = 32\n" in text
    out = tmp_path / "out"
    assert main(["verify", str(write_cfg(tmp_path, text.replace("\nNt = 32\n", "\nNt = 1\n"))),
                 "--suite", "duality", "--out", str(out)]) == 1
    with open(out / "verify_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["check"] for row in rows] == ["residual_nt_1", "residual_nt_2",
                                              "tau_halving_decrease"]
    assert [row["passed"] for row in rows] == ["0", "0", "0"]
    for row in rows[:2]:
        assert row["note"].endswith("; p3 and psi vanish at every level the identity pairs")
    assert rows[2]["note"].endswith("; a residual row pairs nothing")
    assert capsys.readouterr().out.count("[FAIL] duality/") == 3


def test_cli_verify_lipschitz_on_a_domain_too_small_for_its_grids(tmp_path, capsys):
    # The lipschitz suite builds 16^2 and 32^2 grids on the config's domain;
    # a 2x2 grid of side 3e-154 loads, but 16 cells of that side have a
    # cell size whose square underflows, so the suite's rows fail (exit 1).
    text = (CONFIG_DIR / "verify.cfg").read_text()
    for old, new in (("nx = 16", "nx = 2"), ("lx = 1.0", "lx = 3e-154")):
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    out = tmp_path / "out"
    assert main(["verify", str(write_cfg(tmp_path, text)), "--suite", "lipschitz",
                 "--out", str(out)]) == 1
    with open(out / "verify_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["check"] for row in rows] == ["max_ratio_16", "max_ratio_32",
                                              "grid_refinement_factor"]
    for row in rows:
        assert row["passed"] == "0" and row["value"] == "nan"
        assert row["note"].startswith("side lx = 3e-154 over 16 cells")
    assert capsys.readouterr().out.count("[FAIL] lipschitz/") == 3


@pytest.mark.parametrize("case", ["config_is_directory", "config_not_text", "unknown_suite",
                                  "out_is_a_file", "out_below_a_file", "seed_negative"])
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
        "seed_negative": (["simulate", str(CONFIG_DIR / "verify.cfg"), "--seed", "-1"], "'-1'"),
    }[case]
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    assert status == 2
    assert named in capsys.readouterr().err
    assert out_file.read_text() == "kept"
