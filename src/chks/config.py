"""Run configuration: a flat, sectioned key-value text format.

Grammar (one statement per line):

    # comment                 blank lines and '#'-to-end-of-line comments
    seed = <int>              top-level, before any section
    [section]                 section header
    key = value               value is one token or a generator phrase

Sections and keys (a section or key not listed here is rejected):

    [grid]     nx, ny, lx, ly
    [model]    m, chi_phi, chi_a, c_phi, c_n, c_sigma, c_0,
               potential (regular|logarithmic), c1, c2, eps_clamp,
               prolif (zero|constant|logistic), h0, k
    [initial]  phi0, a0, n0, sigma0   (field generators, see below)
    [control]  b1, b2, b3, u_max (number or 'file <path>'),
               u0 (field generator, replicated over steps),
               targets (simulation|fields),
               u_true (generator; targets=simulation),
               phi_q, phi_omega (generators; targets=fields)
    [time]     T, Nt, s_stab (number or 'default'), flux_scheme
    [optimize] tol_stat, max_iters, armijo_c, backtrack

Field generators:

    constant <v>
    cosine <offset> <amplitude> <kx> <ky>      offset + amp*cos(kx pi x/lx)*cos(ky pi y/ly)
    random_smooth <lo> <hi> <modes>            seeded low-order cosine series,
                                               affinely mapped into [lo, hi]
    file <path>                                field snapshot file

A key may appear once per section. Numbers must be finite, the grid needs
nx, ny >= 2 and lx, ly > 0, time T > 0, Nt >= 1 and s_stab >= 0, and
[optimize] max_iters >= 0 with armijo_c and backtrack in (0, 1); a violation
names the line and the key. Every admissibility condition of the model is
checked at load time; a violation raises ConfigError whose message cites the
condition identifier (see the README table) and the config line that set the
offending value.
All randomness derives from the single seed, so identical configs produce
bit-identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adjoint import ControlSpec
from .fields_io import read_field
from .grid import Grid
from .potentials import AdmissibilityError, PotentialSpec, ProliferationSpec
from .state import Control, InitialData, ModelSpec, solve_forward
from .control_opt import OptimizeOptions


class ConfigError(ValueError):
    pass


# The grammar table of the module docstring: allowed keys per section, None
# for the top level, and the argument count of each field generator.
_KEYS: dict[str | None, tuple[str, ...]] = {
    None: ("seed",),
    "grid": ("nx", "ny", "lx", "ly"),
    "model": ("m", "chi_phi", "chi_a", "c_phi", "c_n", "c_sigma", "c_0",
              "potential", "c1", "c2", "eps_clamp", "prolif", "h0", "k"),
    "initial": ("phi0", "a0", "n0", "sigma0"),
    "control": ("b1", "b2", "b3", "u_max", "u0", "targets", "u_true", "phi_q", "phi_omega"),
    "time": ("t", "nt", "s_stab", "flux_scheme"),
    "optimize": ("tol_stat", "max_iters", "armijo_c", "backtrack"),
}
_ARITY = {"constant": 1, "cosine": 4, "random_smooth": 3, "file": 1}


@dataclass
class RunConfig:
    grid: Grid
    model: ModelSpec
    init: InitialData
    control_spec: ControlSpec
    u0: Control
    T: float
    nt: int
    s_stab: float | None
    flux_scheme: str
    opts: OptimizeOptions
    seed: int
    u_true: np.ndarray | None = None

    @property
    def tau(self) -> float:
        return self.T / self.nt


def _parse_lines(text: str) -> tuple[dict[str, dict[str, tuple[str, int]]], dict[str, tuple[str, int]]]:
    """Parse into {section: {key: (value, line_no)}} plus top-level keys.

    Sections and keys are checked against _KEYS, and a key set twice in one
    section is rejected.
    """
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    top: dict[str, tuple[str, int]] = {}
    name = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if not name:
                raise ConfigError(f"line {line_no}: empty section name")
            if name not in _KEYS:
                raise ConfigError(f"line {line_no}: unknown section [{name}]")
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key = key.lower()
        where = "at top level" if name is None else f"in section [{name}]"
        if key not in _KEYS[name]:
            raise ConfigError(f"line {line_no}: unknown key '{key}' {where}")
        data = top if name is None else sections[name]
        if key in data:
            raise ConfigError(f"line {line_no}: key '{key}' {where} "
                              f"repeats line {data[key][1]}")
        data[key] = (value, line_no)
    return sections, top


class _Section:
    """Typed reads of one section's keys; name None is the top level."""

    def __init__(self, name: str | None, data: dict[str, tuple[str, int]]):
        self.name = name
        self.data = data

    def _label(self, key: str) -> str:
        return key if self.name is None else f"[{self.name}] {key}"

    def has(self, key: str) -> bool:
        return key in self.data

    def raw(self, key: str, default=None):
        if key in self.data:
            return self.data[key]
        if default is None:
            raise ConfigError(f"section [{self.name}] is missing required key '{key}'")
        return (default, 0)

    def number(self, key: str, default: str | None = None) -> float:
        value, line_no = self.raw(key, default)
        try:
            x = float(value)
            if math.isfinite(x):
                return x
        except ValueError:
            pass
        raise self.reject(key, "must be a finite number")

    def reject(self, key: str, requirement: str) -> ConfigError:
        """The error for a value of key that breaks requirement, naming its line."""
        value, line_no = self.data.get(key, (None, 0))
        return ConfigError(f"line {line_no}: {self._label(key)} {requirement}, got {value!r}")

    def integer(self, key: str, default: str | None = None) -> int:
        value, line_no = self.raw(key, default)
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"line {line_no}: {self._label(key)} must be an integer, got {value!r}")

    def word(self, key: str, default: str | None = None) -> str:
        value, _ = self.raw(key, default)
        return value.strip().lower()


def generate_field(
    gr: Grid, phrase: str, rng: np.random.Generator, base_dir: Path | None = None
) -> np.ndarray:
    """Realize a field generator phrase on the grid.

    A malformed phrase, or a snapshot file that cannot be read or does not
    match the grid, raises ConfigError naming the phrase.
    """
    x, y = gr.cell_centers()
    kind, *args = phrase.split() or [""]
    kind = kind.lower()
    if kind not in _ARITY:
        raise ConfigError(f"field generator {phrase!r}: unknown kind {kind!r}")
    if len(args) != _ARITY[kind]:
        raise ConfigError(f"field generator {phrase!r}: {kind} takes "
                          f"{_ARITY[kind]} argument(s), got {len(args)}")
    try:
        if kind == "constant":
            return np.full(gr.shape, float(args[0]))
        if kind == "cosine":
            off, amp, kx, ky = (float(t) for t in args)
            return off + amp * np.cos(kx * np.pi * x / gr.lx) * np.cos(ky * np.pi * y / gr.ly)
        if kind == "random_smooth":
            lo, hi, modes = float(args[0]), float(args[1]), int(args[2])
            f = np.zeros(gr.shape)
            for kx in range(modes + 1):
                for ky in range(modes + 1):
                    c = rng.normal()
                    f += c * np.cos(kx * np.pi * x / gr.lx) * np.cos(ky * np.pi * y / gr.ly)
            fmin, fmax = float(f.min()), float(f.max())
            if fmax - fmin < 1e-30:
                return np.full(gr.shape, 0.5 * (lo + hi))
            return lo + (hi - lo) * (f - fmin) / (fmax - fmin)
        if kind == "file":
            path = Path(args[0])
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            fgrid, data = read_field(path)
            if fgrid.shape != gr.shape:
                raise ValueError(f"{path} has shape {fgrid.shape}, expected {gr.shape}")
            return data
    except (OSError, ValueError) as exc:
        raise ConfigError(f"field generator {phrase!r}: {exc}") from exc


def load_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    """Parse and fully validate a run configuration file.

    A file that cannot be read, or is not text, raises ConfigError naming it.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {str(path)!r}: {exc}") from exc
    sections, top = _parse_lines(text)
    base_dir = path.parent

    seed = _Section(None, top).integer("seed", "1")
    if seed_override is not None:
        seed = seed_override
    rng = np.random.default_rng(seed)

    sg = _Section("grid", sections.get("grid", {}))
    sizes = {key: sg.integer(key, "16") for key in ("nx", "ny")}
    sizes.update({key: sg.number(key, "1.0") for key in ("lx", "ly")})
    for key in ("nx", "ny"):
        if sizes[key] < 2:
            raise sg.reject(key, "must be at least 2 for a PDE run")
    for key in ("lx", "ly"):
        if sizes[key] <= 0:
            raise sg.reject(key, "must be positive")
    gr = Grid(**sizes)

    sm = _Section("model", sections.get("model", {}))
    pot_kind = sm.word("potential", "regular")
    try:
        pot = PotentialSpec(
            kind=pot_kind,
            c1=sm.number("c1", "1.0"),
            c2=sm.number("c2", "2.0"),
            eps_clamp=sm.number("eps_clamp", "1e-8"),
        )
        prolif = ProliferationSpec(
            kind=sm.word("prolif", "zero"),
            h0=sm.number("h0", "0.0"),
            k=sm.number("k", "1.0"),
        )
        model = ModelSpec(
            m=sm.number("m", "1.0"),
            chi_phi=sm.number("chi_phi", "0.2"),
            chi_a=sm.number("chi_a", "0.3"),
            c_phi=sm.number("c_phi", "0.1"),
            c_n=sm.number("c_n", "-1.0"),
            c_sigma=sm.number("c_sigma", "0.1"),
            c_0=sm.number("c_0", "0.0"),
            pot=pot,
            prolif=prolif,
        )
        model.validate()
    except AdmissibilityError as exc:
        raise ConfigError(f"[model]: {exc}") from exc

    st = _Section("time", sections.get("time", {}))
    T = st.number("t", "0.5")
    nt = st.integer("nt", "32")
    if T <= 0:
        raise st.reject("t", "must be positive")
    if nt < 1:
        raise st.reject("nt", "must be at least 1")
    s_stab = None if st.word("s_stab", "default") == "default" else st.number("s_stab")
    if s_stab is not None and s_stab < 0:
        raise st.reject("s_stab", "must be nonnegative")
    flux_scheme = st.word("flux_scheme", "centered")
    if flux_scheme not in ("centered", "upwind"):
        raise ConfigError("[time]: flux_scheme must be 'centered' or 'upwind'")

    si = _Section("initial", sections.get("initial", {}))
    init = InitialData(
        phi0=generate_field(gr, si.raw("phi0", "constant 0.5")[0], rng, base_dir),
        a0=generate_field(gr, si.raw("a0", "constant 1.0")[0], rng, base_dir),
        n0=generate_field(gr, si.raw("n0", "constant 0.0")[0], rng, base_dir),
        sigma0=generate_field(gr, si.raw("sigma0", "constant 0.5")[0], rng, base_dir),
    )
    try:
        init.validate(model)
    except AdmissibilityError as exc:
        raise ConfigError(f"[initial]: {exc}") from exc

    sc = _Section("control", sections.get("control", {}))
    umax_raw, _ = sc.raw("u_max", "1.0")
    if umax_raw.split()[0].lower() == "file":
        u_max: float | np.ndarray = generate_field(gr, umax_raw, rng, base_dir)
    else:
        u_max = sc.number("u_max", "1.0")
    b1 = sc.number("b1", "0.0")
    b2 = sc.number("b2", "0.0")
    b3 = sc.number("b3", "1.0")

    u0_slice = generate_field(gr, sc.raw("u0", "constant 0.0")[0], rng, base_dir)
    u0 = Control(np.repeat(u0_slice[None, :, :], nt, axis=0), u_max)

    u_true = None
    targets = sc.word("targets", "fields")
    if targets == "simulation":
        u_true_slice = generate_field(gr, sc.raw("u_true", "constant 0.0")[0], rng, base_dir)
        u_true = np.repeat(np.clip(u_true_slice, 0.0, u_max)[None, :, :], nt, axis=0)
        traj_true, _ = solve_forward(
            gr, model, init, Control(u_true, u_max), T, nt,
            s_stab=s_stab, flux_scheme=flux_scheme,
        )
        phi_q = traj_true.phi[1:].copy()
        phi_omega = traj_true.phi[nt].copy()
    elif targets == "fields":
        phi_q_slice = generate_field(gr, sc.raw("phi_q", "constant 0.5")[0], rng, base_dir)
        phi_q = np.repeat(phi_q_slice[None, :, :], nt, axis=0)
        phi_omega = generate_field(gr, sc.raw("phi_omega", "constant 0.5")[0], rng, base_dir)
    else:
        raise ConfigError("[control]: targets must be 'simulation' or 'fields'")

    cs = ControlSpec(b1=b1, b2=b2, b3=b3, phi_q=phi_q, phi_omega=phi_omega, u_max=u_max)
    try:
        cs.validate()
        u0.validate()
    except AdmissibilityError as exc:
        raise ConfigError(f"[control]: {exc}") from exc

    so = _Section("optimize", sections.get("optimize", {}))
    opts = OptimizeOptions(
        tol_stat=so.number("tol_stat", "1e-6"),
        max_iters=so.integer("max_iters", "200"),
        armijo_c=so.number("armijo_c", "1e-4"),
        backtrack=so.number("backtrack", "0.5"),
        s_stab=s_stab,
        flux_scheme=flux_scheme,
    )
    if opts.max_iters < 0:
        raise so.reject("max_iters", "must be at least 0")
    # A factor outside (0, 1) makes the Armijo search grow or zero its step.
    for key in ("armijo_c", "backtrack"):
        if not 0.0 < getattr(opts, key) < 1.0:
            raise so.reject(key, "must lie in (0, 1)")

    return RunConfig(
        grid=gr,
        model=model,
        init=init,
        control_spec=cs,
        u0=u0,
        T=T,
        nt=nt,
        s_stab=s_stab,
        flux_scheme=flux_scheme,
        opts=opts,
        seed=seed,
        u_true=u_true,
    )
