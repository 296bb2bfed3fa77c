"""Seeded synthetic corpora for the pipeline benchmark.

Every generator writes native JSON lines (one paper per line, the format
``mrfrank rank`` reads) and depends only on its arguments: the same seed
writes the same bytes.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import sys
from pathlib import Path


def scale_corpus(path: Path, seed: int, root: Path, n_papers: int,
                 n_authors: int, vocab_size: int) -> None:
    """The criterion-8 generator from ``tests/synthgen.py``, imported rather
    than copied so that this workload stays tied to the scale test."""
    sys.path.insert(0, str(root / "tests"))
    try:
        from synthgen import scale_corpus as generate
    finally:
        sys.path.pop(0)
    generate(path, n_papers=n_papers, n_citations=3 * n_papers,
             n_authors=n_authors, vocab_size=vocab_size, seed=seed)


def _zipf(rng: random.Random, size: int):
    """A sampler of ranks 0..size-1 with weight 1 / (rank + 10)."""
    cum = list(itertools.accumulate(1.0 / (i + 10) for i in range(size)))
    return lambda: bisect.bisect(cum, rng.random() * cum[-1])


def growing_corpus(path: Path, seed: int, *, n_papers: int, first_year: int,
                   last_year: int, refs_per_paper: int, authors_per_paper: tuple[int, int],
                   n_authors: int, newcomer_share: float, newcomers_per_year: int,
                   title_tokens: int, abstract_sentences: int,
                   vocab_size: int, hot_share: float) -> None:
    """A corpus that grows year by year.

    Citations go to earlier papers, 60% by preferential attachment with a
    heavy-tailed fitness per paper, so the citation graph has hubs and a
    paper's early citations predict its later ones.  ``newcomer_share`` of
    the papers add an author who joined within three years, so every year
    has an author cohort.
    About ``hot_share`` of the tokens, more in fitter papers, come from a
    small set of words that is new each year, so burst features exist and
    carry some signal about future citations.
    """
    rng = random.Random(seed)
    word = _zipf(rng, vocab_size)
    years = last_year - first_year + 1
    endpoints: list[int] = []
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_papers):
            year = first_year + (i * years) // n_papers
            refs: set[int] = set()
            for _ in range(refs_per_paper if i else 0):
                if endpoints and rng.random() < 0.6:
                    # recent entries are likelier: attention fades with age
                    refs.add(endpoints[-1 - int(len(endpoints) * rng.random() ** 2)])
                else:
                    refs.add(rng.randrange(i))
            ref_list = sorted(refs)
            endpoints.extend(ref_list)
            # fitness: a paper enters the attachment list this many times,
            # so some papers draw citations from the start and keep drawing;
            # fit papers also use more of the year's new words
            fit = min(200, int(rng.paretovariate(1.5)))
            endpoints.extend([i] * fit)
            p_hot = min(0.9, hot_share * fit / 3)
            # a senior author from the most prolific tenth, established
            # authors drawn evenly, and on some papers a newcomer who joined
            # in the last three years.  At most one author of a paper is
            # likely to have no other paper: a paper whose authors all have
            # none is a near-closed loop of the time-aware operator, which
            # makes the iteration count swing between seeds.
            authors = [f"a{rng.randrange(n_authors // 10):05d}"]
            authors += [f"a{rng.randrange(n_authors):05d}"
                        for _ in range(rng.randint(*authors_per_paper) - 1)]
            if rng.random() < newcomer_share:
                joined = year - rng.randrange(3)
                authors.append(f"n{joined}x{rng.randrange(newcomers_per_year):03d}")
            hot = [f"h{year}x{j}" for j in range(8)]

            def tokens(n):
                return " ".join(rng.choice(hot) if rng.random() < p_hot
                                else f"w{word():05d}" for _ in range(n))

            rec = {
                "id": f"p{i:06d}",
                "title": tokens(title_tokens),
                "abstract": " ".join(f"{tokens(6)}." for _ in range(abstract_sentences)),
                "authors": sorted(set(authors)),
                "year": year,
                "venue": "synthetic",
                "refs": [f"p{r:06d}" for r in ref_list],
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
