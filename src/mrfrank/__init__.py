"""Future-influence ranking of papers and authors: burst-detected text
features plus time-aware citation/coauthor graphs combined in a
mutual-reinforcement eigenvector iteration."""

__version__ = "0.1.0"

from .corpus import (Corpus, GroundTruth, PreprocessConfig, parse_corpus,
                     preprocess, split_ground_truth)
from .ranking import (ConvergenceLog, HyperParams, RankState, combined_operator,
                      init_state, iterate_once, rank_entities, run)

__all__ = [
    "Corpus", "GroundTruth", "PreprocessConfig", "parse_corpus", "preprocess",
    "split_ground_truth",
    "ConvergenceLog", "HyperParams", "RankState", "combined_operator",
    "init_state", "iterate_once", "rank_entities", "run",
]
