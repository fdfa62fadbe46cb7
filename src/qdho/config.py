"""Run configuration: tolerance bundle and INI-style config file parsing.

Config files are flat key = value pairs under section headers, read with
:mod:`configparser`. The exact grammar (sections, keys, defaults) is
documented in the README; parse errors surface as :class:`ConfigError`
naming the offending section and key. Each option has one spelling: the
tolerances come from ``[tolerances]`` alone.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .classical import ClassicalParams, PhasePoint
from .fock import ModelParams, TruncationConfig, check_mixture_weights


class ConfigError(ValueError):
    """A run configuration failed validation."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances shared by validation, evolution and the CLI."""

    hermiticity_tol: float = 1e-10
    trace_tol: float = 1e-8
    positivity_tol: float = 1e-9
    oracle_tol: float = 1e-7

    def __post_init__(self):
        for name, value in dataclasses.asdict(self).items():
            if not (0 < value <= 1e-2) or not math.isfinite(value):
                raise ConfigError(f"tolerance {name} must lie in (0, 1e-2], got {value!r}")


DEFAULT_TOLERANCES = ToleranceConfig()

#: Input budgets, checked as a config is read and before anything is
#: allocated; going over one is a ConfigError (exit 1). The largest runs
#: tier-1 and the benchmark make stay far inside them: D = 129 (the sector
#: oracle's own budget test), 3,601 grid points (a classical run) and
#: 1.6 MB of states (11 points at D = 96).
#: Retained levels D = support_max + guard + 1. A certified run evolves at
#: 2D, whose band holds up to 2D x 2D complex entries (4 MB at this D).
MAX_DIM = 256
#: Points of one time grid.
MAX_GRID_POINTS = 100_000
#: Bytes of the evolved states a quantum run holds before it writes them,
#: num_points * D^2 * 16.
MAX_STATE_BYTES = 256 * 2**20

METHODS = ("analytic", "expm", "rk4", "nu-zero")
STATE_KINDS = ("fock", "coherent", "thermal", "mixture")


@dataclass(frozen=True)
class StateSpec:
    """Tagged choice of initial state.

    kind "fock" uses ``n``; "coherent" uses ``alpha`` (entered in config
    files as two real fields re/im); "thermal" uses ``n_bar``; "mixture"
    uses ``terms`` as ((level, weight), ...).
    """

    kind: str
    n: int = 0
    alpha: complex = 0.0
    n_bar: float = 0.0
    terms: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if self.kind not in STATE_KINDS:
            raise ConfigError(f"state kind must be one of {STATE_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid over [t_start, t_end], inclusive of both endpoints."""

    t_start: float
    t_end: float
    num_points: int

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ConfigError("time grid endpoints must be finite")
        if self.t_start < 0:
            raise ConfigError(f"t_start must be non-negative, got {self.t_start}")
        if self.t_end < self.t_start:
            raise ConfigError(f"t_end={self.t_end} is before t_start={self.t_start}")
        if self.num_points < 1:
            raise ConfigError(f"num_points must be at least 1, got {self.num_points}")
        if self.num_points == 1 and self.t_end != self.t_start:
            raise ConfigError("num_points=1 requires t_start == t_end")

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.num_points)


@dataclass(frozen=True)
class RunConfig:
    """Everything a quantum CLI run needs.

    A config file sets every field but ``check_truncation``, which only the
    CLI's ``--check-truncation`` flag sets.
    """

    params: ModelParams
    state: StateSpec
    trunc: TruncationConfig
    grid: TimeGrid
    method: str = "analytic"
    check_truncation: bool = False
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES
    photon_levels: int = 4
    steady_tol: float = 1e-4

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.method == "nu-zero" and self.params.nu != 0.0:
            raise ConfigError(f"method nu-zero requires nu = 0, got nu = {self.params.nu}")
        if self.photon_levels < 0:
            raise ConfigError(f"photon_levels must be non-negative, got {self.photon_levels}")
        if not 0 < self.steady_tol < math.inf:
            raise ConfigError(f"steady_tol must be positive and finite, got {self.steady_tol}")


@dataclass(frozen=True)
class ClassicalRunConfig:
    """Configuration of a classical-oscillator CLI run."""

    params: ClassicalParams
    start: PhasePoint
    grid: TimeGrid


#: Default of :meth:`_Reader.get` that makes a key required.
_REQUIRED = object()


#: What each value parser of :meth:`_Reader.get` expects, for its error message.
_EXPECTED = {float: "a number", int: "an integer"}


class _Reader:
    """configparser wrapper producing ConfigError with section/key context."""

    def __init__(self, path: str):
        self.parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                self.parser.read_file(fh, source=path)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}") from None
        self.path = path
        self.asked: set[tuple[str, str]] = set()

    def reject_unknown(self) -> None:
        """Refuse any key, in a section that was read, that nothing asked for."""
        read = {section for section, _ in self.asked}
        for section in self.parser.sections():
            if section not in read:
                continue
            for key in self.parser.options(section):
                if (section, key) not in self.asked:
                    raise ConfigError(f"[{section}] {key}: unknown key")

    def get(self, section: str, key: str, parse, default=_REQUIRED):
        """The value of ``key`` through ``parse``, or ``default`` when it is absent.

        ``parse`` is float, int or str.strip; a ValueError from it names the
        key. Without a default the key, and its section, are required.
        """
        self.asked.add((section, key))
        if not self.parser.has_option(section, key):
            if default is not _REQUIRED:
                return default
            if not self.parser.has_section(section):
                raise ConfigError(f"missing required section [{section}] in {self.path}")
            raise ConfigError(f"[{section}] {key}: required key is missing")
        raw = self.parser.get(section, key)
        try:
            return parse(raw)
        except ValueError:
            expected = _EXPECTED[parse]
            raise ConfigError(f"[{section}] {key}: expected {expected}, got {raw!r}") from None


def _read_state(reader: _Reader) -> StateSpec:
    kind = reader.get("state", "kind", str.strip)
    if kind == "fock":
        return StateSpec(kind=kind, n=reader.get("state", "n", int))
    if kind == "coherent":
        re = reader.get("state", "re", float)
        im = reader.get("state", "im", float, 0.0)
        return StateSpec(kind=kind, alpha=complex(re, im))
    if kind == "thermal":
        return StateSpec(kind=kind, n_bar=reader.get("state", "n_bar", float))
    if kind == "mixture":
        raw = reader.get("state", "terms", str.strip)
        terms = []
        for piece in raw.replace(",", " ").split():
            level, sep, weight = piece.partition(":")
            if not sep:
                raise ConfigError(
                    f"[state] terms: expected level:weight entries, got {piece!r}"
                )
            try:
                terms.append((int(level), float(weight)))
            except ValueError:
                raise ConfigError(f"[state] terms: bad entry {piece!r}") from None
        try:
            check_mixture_weights(terms)
        except ValueError as exc:
            raise ConfigError(f"[state] terms: {exc}") from None
        return StateSpec(kind=kind, terms=tuple(terms))
    raise ConfigError(f"[state] kind: must be one of {STATE_KINDS}, got {kind!r}")


def _read_tolerances(reader: _Reader) -> ToleranceConfig:
    kwargs = {}
    for field in dataclasses.fields(ToleranceConfig):
        value = reader.get("tolerances", field.name, float, getattr(DEFAULT_TOLERANCES, field.name))
        kwargs[field.name] = value
    return ToleranceConfig(**kwargs)


def _read_grid(reader: _Reader) -> TimeGrid:
    grid = TimeGrid(
        t_start=reader.get("grid", "t_start", float),
        t_end=reader.get("grid", "t_end", float),
        num_points=reader.get("grid", "num_points", int),
    )
    if grid.num_points > MAX_GRID_POINTS:
        raise ConfigError(
            f"[grid] num_points: {grid.num_points} exceeds the budget of {MAX_GRID_POINTS}"
        )
    return grid


def load_run_config(path: str) -> RunConfig:
    """Parse a quantum-run config file. See README for the grammar."""
    reader = _Reader(path)
    rates = {key: reader.get("model", key, float, 0.0) for key in ("omega", "mu", "nu", "theta")}
    try:
        params = ModelParams(**rates)
    except ValueError as exc:
        raise ConfigError(f"[model]: {exc}") from None
    support_max = reader.get("truncation", "support_max", int)
    guard = reader.get("truncation", "guard", int, None)
    try:
        trunc = TruncationConfig.for_support(support_max, guard)
    except ValueError as exc:
        raise ConfigError(f"[truncation]: {exc}") from None
    if trunc.dim > MAX_DIM:
        raise ConfigError(
            f"[truncation]: D = support_max + guard + 1 = {trunc.dim} exceeds the budget "
            f"of {MAX_DIM} levels"
        )
    grid = _read_grid(reader)
    state_bytes = grid.num_points * trunc.dim**2 * 16
    if state_bytes > MAX_STATE_BYTES:
        raise ConfigError(
            f"[grid] num_points: {grid.num_points} states at D = {trunc.dim} take "
            f"{state_bytes} bytes, over the budget of {MAX_STATE_BYTES} bytes"
        )
    cfg = RunConfig(
        params=params,
        state=_read_state(reader),
        trunc=trunc,
        grid=grid,
        method=reader.get("run", "method", str.strip, "analytic"),
        tolerances=_read_tolerances(reader),
        photon_levels=reader.get("run", "photon_levels", int, 4),
        steady_tol=reader.get("run", "steady_tol", float, 1e-4),
    )
    reader.reject_unknown()
    return cfg


def load_classical_config(path: str) -> ClassicalRunConfig:
    """Parse a classical-run config file ([classical] and [grid] sections).

    Rates or a start point that :class:`~qdho.classical.ClassicalParams` or
    :class:`~qdho.classical.PhasePoint` refuse raise their ValueError, once
    every key has been read.
    """
    reader = _Reader(path)
    omega = reader.get("classical", "omega", float)
    gamma = reader.get("classical", "gamma", float, 0.0)
    x0 = reader.get("classical", "x0", float)
    y0 = reader.get("classical", "y0", float, 0.0)
    grid = _read_grid(reader)
    reader.reject_unknown()
    return ClassicalRunConfig(ClassicalParams(omega, gamma), PhasePoint(x0, y0), grid)
