"""The settings of a run: one dataclass per config file section, with its
fields' defaults and the checks of their values; ``FORMS``, how a setting
of each type is written in a config file and as a flag; and ``resolve``,
which checks a section against them and applies the flags over it.

Nothing here needs numpy, so the CLI builds its parser from these fields
without importing the modules that compute.
"""

from __future__ import annotations

import collections
import math
import typing
from dataclasses import dataclass, replace

# the years a record may hold: year arithmetic on int64 years cannot overflow
YEAR_MIN, YEAR_MAX = -(2**31), 2**31 - 1


def at_least_one(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def finite_nonnegative(name: str, value: float) -> None:
    if not 0.0 <= value < math.inf:   # written so that nan fails
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class PreprocessConfig:
    min_year: int = 1990
    require_abstract: bool = False
    # case-insensitive substrings matched anywhere in the title
    survey_substrings: tuple[str, ...] = ("survey", "a review of")
    # case-insensitive prefixes matched at the start of the title
    proceedings_prefixes: tuple[str, ...] = ("proceedings of", "workshop on")

    def __post_init__(self):
        # an empty pattern is in every title
        for name in ("survey_substrings", "proceedings_prefixes"):
            if "" in getattr(self, name):
                raise ValueError(f"preprocess.{name} holds an empty pattern, "
                                 "which would remove every paper")


@dataclass
class FeatureConfig:
    """The ``features`` settings: the window length in years, the papers a
    feature must appear in to be kept, and a stopword list file overriding
    the built-in one."""

    window_years: int = 1
    min_df: int = 3
    stopwords: str | None = None

    def __post_init__(self):
        at_least_one("window_years", self.window_years)
        if self.window_years >= 2**63:   # a year's window is an int64 division
            raise ValueError(f"window_years must be below 2**63, got {self.window_years}")
        at_least_one("min_df", self.min_df)
        if self.stopwords == "":   # null, or no flag, gives the built-in list
            raise ValueError("features.stopwords is an empty path")


# the ablation modes ``HyperParams.effective`` applies
MODES = ("full", "no_time", "no_content", "no_time_no_content")


@dataclass
class HyperParams:
    alpha_p: float = 0.4
    beta_p: float = 1.0 / 3.0   # gamma1 = (1-beta_p)(1-alpha_p) = 0.4
    alpha_a: float = 0.4
    beta_a: float = 0.5         # gamma2 = (1-beta_a)(1-alpha_a) = 0.3
    alpha_f: float = 0.5
    rho_edge: float = 0.2
    rho_feature: float = 0.2
    u: int = 3
    tolerance: float = 1e-8
    max_iterations: int = 200
    mode: str = "full"

    def __post_init__(self):
        # written so that nan fails every check
        for name in ("alpha_p", "beta_p", "alpha_a", "beta_a", "alpha_f"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")
        finite_nonnegative("rho_edge", self.rho_edge)
        finite_nonnegative("rho_feature", self.rho_feature)
        at_least_one("u", self.u)
        at_least_one("max_iterations", self.max_iterations)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    def effective(self) -> "HyperParams":
        """Coefficients after applying the ablation mode: no_time forces
        binary edges (rho_edge = 0), no_content forces beta_p = beta_a = 1."""
        hp = self
        if hp.mode in ("no_time", "no_time_no_content"):
            hp = replace(hp, rho_edge=0.0)
        if hp.mode in ("no_content", "no_time_no_content"):
            hp = replace(hp, beta_p=1.0, beta_a=1.0)
        return hp


@dataclass
class ProtocolConfig:
    """The ``protocol`` settings: rank the papers up to ``cutoff_year``,
    count the citations from papers up to ``horizon_year`` as the ground
    truth, and score the cohorts of ``cohort_years`` at every k of ``ks``."""

    cutoff_year: int = 2005
    horizon_year: int = 2011
    cohort_years: tuple[int, ...] = ()
    ks: tuple[int, ...] = (10, 20, 50)

    def __post_init__(self):
        for k in self.ks:
            at_least_one("protocol.ks", k)
        for name in ("ks", "cohort_years"):
            values = getattr(self, name)
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ValueError(f"protocol.{name} lists {v} more than once")
        for name in ("cutoff_year", "horizon_year"):
            v = getattr(self, name)
            if not YEAR_MIN <= v <= YEAR_MAX:
                raise ValueError(f"protocol.{name}={v} outside [{YEAR_MIN}, {YEAR_MAX}]")
        if self.cutoff_year >= self.horizon_year:
            raise ValueError(f"protocol.cutoff_year {self.cutoff_year} must be before "
                             f"protocol.horizon_year {self.horizon_year}")


# How a setting of one type is written: ``fits`` tests a config file's JSON
# value (an error names the JSON type ``json``) and ``read`` turns it into the
# setting; ``flag`` reads a flag's text, or is None for a flag that sets true.
Form = collections.namedtuple("Form", "json fits read flag")


def _is(*types):
    """Whether a JSON value is of one of ``types``; a boolean is no number."""
    return lambda v: isinstance(v, types) and (bool in types or not isinstance(v, bool))


def _tuple_of(item: Form) -> Form:
    """A tuple of ``item``s: a JSON list, or a flag's comma-separated items."""
    return Form(f"list of {item.json}s",
                lambda v: isinstance(v, list) and all(map(item.fits, v)),
                tuple, lambda text: tuple(item.flag(s) for s in text.split(",") if s))


FORMS = {int: Form("integer", _is(int), int, int),
         float: Form("number", _is(int, float), float, float),
         bool: Form("boolean", _is(bool), bool, None),
         str: Form("string", _is(str), str, str),
         str | None: Form("string or null", _is(str, type(None)), lambda v: v, str)}
FORMS[tuple[str, ...]] = _tuple_of(FORMS[str])
FORMS[tuple[int, ...]] = _tuple_of(FORMS[int])

# config file section -> the dataclass whose fields it sets, in the order
# the sections are checked
SECTIONS = {"preprocess": PreprocessConfig, "hyperparams": HyperParams,
            "features": FeatureConfig, "protocol": ProtocolConfig}
# config file section -> field name -> the form of the field's type
FIELDS = {name: {key: FORMS[hint] for key, hint in typing.get_type_hints(cls).items()}
          for name, cls in SECTIONS.items()}


def resolve(name: str, raw: dict, flags: dict):
    """Section ``name``'s settings: its dataclass defaults, overridden by the
    config file's ``raw[name]``, each value checked against its field's form,
    overridden by each value of ``flags`` that is not None."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {name} must be an object")
    fields, values = FIELDS[name], {}
    for key, value in section.items():
        form = fields.get(key)
        if form is None:
            raise ValueError(f"unknown config setting {name}.{key}")
        if not form.fits(value):
            raise ValueError(f"config setting {name}.{key} must be {form.json}, "
                             f"got {value!r}")
        try:
            values[key] = form.read(value)
        except OverflowError as exc:   # an integer beyond the largest float
            raise ValueError(f"config setting {name}.{key}: {exc}") from None
    values.update((key, flags[key]) for key in fields if flags.get(key) is not None)
    return SECTIONS[name](**values)
