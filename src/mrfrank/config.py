"""The settings of a run, one dataclass per config file section: its
fields with their defaults, and the checks of their values.

``cli.load_config`` fills each from its defaults, the config file and the
flags.  Nothing here needs numpy, so the CLI builds its parser from these
fields without importing the modules that compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


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
    the built-in one.  ``build_feature_table`` checks their ranges."""

    window_years: int = 1
    min_df: int = 3
    stopwords: str | None = None


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
        for name in ("rho_edge", "rho_feature"):
            v = getattr(self, name)
            if not 0.0 <= v < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        for name in ("u", "max_iterations"):
            v = getattr(self, name)
            if v < 1:
                raise ValueError(f"{name} must be at least 1, got {v}")
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
            if k < 1:
                raise ValueError(f"protocol.ks must be at least 1, got {k}")
        for name in ("ks", "cohort_years"):
            values = getattr(self, name)
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ValueError(f"protocol.{name} lists {v} more than once")
        if self.cutoff_year >= self.horizon_year:
            raise ValueError(f"protocol.cutoff_year {self.cutoff_year} must be before "
                             f"protocol.horizon_year {self.horizon_year}")
