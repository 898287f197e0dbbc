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
               u0 (field generator), targets (simulation|fields),
               u_true (generator; targets=simulation),
               phi_q, phi_omega (generators; targets=fields)
    [time]     T, Nt, s_stab (number or 'default'), flux_scheme
    [optimize] tol_stat, max_iters, backtrack

Field generators:

    constant <v>
    cosine <offset> <amplitude> <kx> <ky>      offset + amp*cos(kx pi x/lx)*cos(ky pi y/ly)
    random_smooth <lo> <hi> <modes>            seeded low-order cosine series,
                                               affinely mapped into [lo, hi]
    file <path>                                field snapshot file

Cosine terms are built from 1-D cosines of the cell-centre abscissae and
ordinates, broadcast to the grid. Generator numbers must be finite, modes
in [0, max(nx, ny)), and the realized field (a snapshot file's too) finite; a
violation names the line and the key and quotes the phrase. The control
u0, u_true and the fields target phi_q each hold for every step: each is
one generated field, shared by every step as a read-only (Nt, nx, ny)
view, so a caller that changes one copies it first.

A key may appear once per section; a key left out of [model], [optimize]
or the grid's lx, ly takes its dataclass default. The seed must be
nonnegative, numbers must be finite, the grid needs nx, ny >= 2 and
lx, ly > 0, time T > 0, Nt >= 1 and s_stab >= 0, [optimize] tol_stat >= 0
and max_iters >= 0 with backtrack in (0, 1), and a word one
of those listed; a target key the chosen targets does not read is
rejected. A violation names the line and the key. Every admissibility
condition of the model is checked at load time; a violation raises
ConfigError citing the section and the condition identifier (see the
README table). All randomness derives from the single seed, so identical
configs produce bit-identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adjoint import ControlSpec
from .fields_io import read_field
from .grid import FLUX_SCHEMES, Grid
from .potentials import (POTENTIAL_KINDS, PROLIFERATION_KINDS, AdmissibilityError,
                         PotentialSpec, ProliferationSpec)
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
    "optimize": ("tol_stat", "max_iters", "backtrack"),
}
_ARITY = {"constant": 1, "cosine": 4, "random_smooth": 3, "file": 1}
# The words of [control] targets, and the target keys each one reads.
_TARGET_KEYS = {"simulation": ("u_true",), "fields": ("phi_q", "phi_omega")}


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


def _parse_lines(text: str) -> dict[str | None, _Section]:
    """Parse into one _Section per name of _KEYS, None for the top level.

    Sections and keys are checked against _KEYS, and a key set twice in one
    section is rejected.
    """
    sections = {name: _Section(name) for name in _KEYS}
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
        data = sections[name].data
        if key in data:
            raise ConfigError(f"line {line_no}: key '{key}' {where} "
                              f"repeats line {data[key][1]}")
        data[key] = (value, line_no)
    return sections


def _finite(token: str) -> float:
    """The number token spells; ValueError unless it parses and is finite."""
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"{token!r} is not a finite number")
    return x


class _Section:
    """Typed reads of the keys one section sets; name None is the top level."""

    def __init__(self, name: str | None):
        self.name = name
        self.data: dict[str, tuple[str, int]] = {}

    def where(self, key: str) -> str:
        """'line N: [section] key', where the file sets key."""
        label = key if self.name is None else f"[{self.name}] {key}"
        return f"line {self.data[key][1]}: {label}"

    def reject(self, key: str, requirement: str) -> ConfigError:
        """The error for the value of key that breaks requirement, naming its line."""
        return ConfigError(f"{self.where(key)} {requirement}, got {self.data[key][0]!r}")

    def _read(self, key: str, default, parse, requirement: str):
        """The value of key through parse, or default when the file leaves key out."""
        if key not in self.data:
            return default
        try:
            return parse(self.data[key][0])
        except ValueError:
            raise self.reject(key, requirement) from None

    def number(self, key: str, default: float | None = None) -> float:
        return self._read(key, default, _finite, "must be a finite number")

    def integer(self, key: str, default: int) -> int:
        return self._read(key, default, int, "must be an integer")

    def numbers(self, *keys: str) -> dict[str, float]:
        """The numbers of those keys the file sets, as dataclass keywords."""
        return {key: self.number(key) for key in keys if key in self.data}

    def choice(self, key: str, words: tuple[str, ...], default: str) -> str:
        if key not in self.data:
            return default
        word = self.data[key][0].lower()
        if word not in words:
            raise self.reject(key, f"must be one of {', '.join(words)}")
        return word


def _axes(gr: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Grid.cell_centers' coordinates as a column (nx, 1) and a row (1, ny)."""
    return ((np.arange(gr.nx) + 0.5) * gr.hx)[:, None], ((np.arange(gr.ny) + 0.5) * gr.hy)[None, :]


def cosine_series(gr: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Sum of coeffs[kx, ky] * cos(kx pi x/lx) * cos(ky pi y/ly) on the grid.

    The terms are added in the row-major order of coeffs, each the product
    of a column of 1-D cosines and a row, so the sum has the bits of the
    same terms evaluated on full (nx, ny) coordinate arrays.
    """
    x, y = _axes(gr)
    f = np.zeros(gr.shape)
    for (kx, ky), c in np.ndenumerate(coeffs):
        f += c * np.cos(kx * np.pi * x / gr.lx) * np.cos(ky * np.pi * y / gr.ly)
    return f


def generate_field(
    gr: Grid, phrase: str, rng: np.random.Generator, base_dir: Path | None = None
) -> np.ndarray:
    """Realize a field generator phrase on the grid.

    Each cosine term is a function of x times a function of y, so the
    cosines run on a column of the nx cell-centre abscissae and a row of the
    ny ordinates, and broadcasting forms only their products on the grid.
    A malformed phrase, a non-finite number, a mode count outside
    [0, max(nx, ny)), a snapshot file that cannot be read or does not match
    the grid, or a realized field with a non-finite value raises ConfigError
    naming the phrase.
    """
    kind, *args = phrase.split() or [""]
    kind = kind.lower()
    if kind not in _ARITY:
        raise ConfigError(f"field generator {phrase!r}: unknown kind {kind!r}")
    if len(args) != _ARITY[kind]:
        raise ConfigError(f"field generator {phrase!r}: {kind} takes "
                          f"{_ARITY[kind]} argument(s), got {len(args)}")
    try:
        if kind == "constant":
            f = np.full(gr.shape, _finite(args[0]))
        elif kind == "cosine":
            off, amp, kx, ky = (_finite(t) for t in args)
            x, y = _axes(gr)
            f = off + amp * np.cos(kx * np.pi * x / gr.lx) * np.cos(ky * np.pi * y / gr.ly)
        elif kind == "random_smooth":
            lo, hi, modes = _finite(args[0]), _finite(args[1]), int(args[2])
            # On n cell centres, mode k >= n is +- a lower mode or 0.
            if not 0 <= modes < max(gr.shape):
                raise ValueError(f"modes must lie in [0, {max(gr.shape)}), got {modes}")
            f = cosine_series(gr, rng.normal(size=(modes + 1, modes + 1)))
            fmin, fmax = float(f.min()), float(f.max())
            if fmax - fmin < 1e-30:
                f = np.full(gr.shape, 0.5 * (lo + hi))
            else:
                f = lo + (hi - lo) * (f - fmin) / (fmax - fmin)
        else:
            path = Path(args[0])
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            fgrid, f = read_field(path)
            if fgrid.shape != gr.shape:
                raise ValueError(f"{path} has shape {fgrid.shape}, expected {gr.shape}")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"field generator {phrase!r}: {exc}") from exc
    if not np.isfinite(f).all():
        raise ConfigError(f"field generator {phrase!r}: field has non-finite values")
    return f


def load_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    """Parse and fully validate a run configuration file.

    A file that cannot be read, or is not text, raises ConfigError naming it.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {str(path)!r}: {exc}") from exc
    sections = _parse_lines(text)

    top = sections[None]
    seed = top.integer("seed", 1)
    if seed < 0:
        raise top.reject("seed", "must be nonnegative")
    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError(f"seed override {seed_override}: must be nonnegative")
        seed = seed_override
    rng = np.random.default_rng(seed)

    sg = sections["grid"]
    sizes = {key: sg.integer(key, 16) for key in ("nx", "ny")}
    lengths = sg.numbers("lx", "ly")
    for key, n in sizes.items():
        if n < 2:
            raise sg.reject(key, "must be at least 2 for a PDE run")
    for key, length in lengths.items():
        try:
            Grid(**sizes, **{key: length})
        except ValueError as exc:
            raise ConfigError(f"{sg.where(key)}: {exc}") from None
    gr = Grid(**sizes, **lengths)

    def field(section: _Section, key: str, default: float) -> np.ndarray:
        """The field of key's generator phrase, or the constant default."""
        if key not in section.data:
            return np.full(gr.shape, default)
        try:
            return generate_field(gr, section.data[key][0], rng, path.parent)
        except ConfigError as exc:
            raise ConfigError(f"{section.where(key)}: {exc}") from exc

    sm = sections["model"]
    try:
        model = ModelSpec(
            **sm.numbers("m", "chi_phi", "chi_a", "c_phi", "c_n", "c_sigma", "c_0"),
            pot=PotentialSpec(kind=sm.choice("potential", POTENTIAL_KINDS, PotentialSpec.kind),
                              **sm.numbers("c1", "c2", "eps_clamp")),
            prolif=ProliferationSpec(
                kind=sm.choice("prolif", PROLIFERATION_KINDS, ProliferationSpec.kind),
                **sm.numbers("h0", "k")),
        )
        model.validate()
    except AdmissibilityError as exc:
        raise ConfigError(f"[model]: {exc}") from exc

    st = sections["time"]
    T = st.number("t", 0.5)
    nt = st.integer("nt", 32)
    if T <= 0:
        raise st.reject("t", "must be positive")
    if nt < 1:
        raise st.reject("nt", "must be at least 1")
    s_stab = None  # the potential's default, also for s_stab = default
    if "s_stab" in st.data and st.data["s_stab"][0].lower() != "default":
        s_stab = st.number("s_stab")
        if s_stab < 0:
            raise st.reject("s_stab", "must be nonnegative")
    flux_scheme = st.choice("flux_scheme", FLUX_SCHEMES, "centered")

    si = sections["initial"]
    init = InitialData(phi0=field(si, "phi0", 0.5), a0=field(si, "a0", 1.0),
                       n0=field(si, "n0", 0.0), sigma0=field(si, "sigma0", 0.5))
    try:
        init.validate(model)
    except AdmissibilityError as exc:
        raise ConfigError(f"[initial]: {exc}") from exc

    sc = sections["control"]
    targets = sc.choice("targets", tuple(_TARGET_KEYS), "fields")
    for words, keys in _TARGET_KEYS.items():
        for key in keys:
            if words != targets and key in sc.data:
                raise sc.reject(key, f"is read only when targets = {words}")
    b1, b2, b3 = sc.number("b1", 0.0), sc.number("b2", 0.0), sc.number("b3", 1.0)
    if "u_max" in sc.data and sc.data["u_max"][0].split()[0].lower() == "file":
        u_max: float | np.ndarray = field(sc, "u_max", 1.0)
    else:
        u_max = sc.number("u_max", 1.0)
    steps = (nt, gr.nx, gr.ny)
    u0 = Control(np.broadcast_to(field(sc, "u0", 0.0), steps), u_max)

    u_true = phi_q = phi_omega = None
    if targets == "simulation":
        u_true = np.broadcast_to(np.clip(field(sc, "u_true", 0.0), 0.0, u_max), steps)
    else:
        phi_q = np.broadcast_to(field(sc, "phi_q", 0.5), steps)
        phi_omega = field(sc, "phi_omega", 0.5)

    cs = ControlSpec(b1=b1, b2=b2, b3=b3, phi_q=phi_q, phi_omega=phi_omega, u_max=u_max)
    try:
        cs.validate()
        u0.validate()
    except AdmissibilityError as exc:
        raise ConfigError(f"[control]: {exc}") from exc
    if u_true is not None:
        # Solved only once the control spec has passed: the solve would check
        # u_max itself and end in AdmissibilityError, not a named config error.
        # The targets read phi alone, so the solve keeps phi alone.
        traj_true, _ = solve_forward(
            gr, model, init, Control(u_true, u_max), T, nt,
            s_stab=s_stab, flux_scheme=flux_scheme, keep=("phi",),
        )
        cs.phi_q = traj_true.phi[1:].copy()
        cs.phi_omega = traj_true.phi[nt].copy()

    so = sections["optimize"]
    opts = OptimizeOptions(
        **so.numbers("tol_stat", "backtrack"),
        max_iters=so.integer("max_iters", OptimizeOptions.max_iters),
        s_stab=s_stab,
        flux_scheme=flux_scheme,
    )
    # A negative tolerance is a stopping test that can never hold.
    if opts.tol_stat < 0:
        raise so.reject("tol_stat", "must be nonnegative")
    if opts.max_iters < 0:
        raise so.reject("max_iters", "must be at least 0")
    # A factor outside (0, 1) makes the Armijo search grow or zero its step.
    if not 0.0 < opts.backtrack < 1.0:
        raise so.reject("backtrack", "must lie in (0, 1)")

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
