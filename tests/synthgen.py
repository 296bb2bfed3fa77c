"""Synthetic corpus generators used by the behavioural and scale tests."""

from __future__ import annotations

import random


def rising_paper_corpus(n_papers: int = 500, seed: int = 7) -> list[dict]:
    """A corpus with two planted papers: an old classic whose 40 citations
    are all at least 10 years before the 2005 cutoff, and a recent riser
    with 15 citations within 2 years of the cutoff plus bursty text.

    Citing papers reference a mixture of targets so that the relative age
    of citations matters under column normalization.
    """
    rng = random.Random(seed)
    vocab = [f"topic{i:03d}" for i in range(60)]
    burst_terms = ["neuroevolution", "federated", "attention", "adversarial"]

    records = []

    def words(year, n, bursty=False):
        pool = list(vocab)
        if bursty and year >= 2003:
            pool = burst_terms * 3 + pool
        return " ".join(rng.choice(pool) for _ in range(n))

    def add(pid, year, refs, title, abstract, n_authors=2):
        records.append({
            "id": pid, "title": title, "abstract": abstract,
            "authors": [f"author{rng.randrange(200):03d}" for _ in range(n_authors)],
            "year": year, "venue": "synthetic", "refs": refs,
        })

    # background papers spread over 1990-2005, citing older background papers
    n_background = n_papers - 2 - 40 - 15
    bg_ids = []
    for i in range(n_background):
        year = 1990 + (i * 16) // n_background
        pid = f"bg{i:04d}"
        refs = []
        if bg_ids:
            for _ in range(min(2, len(bg_ids))):
                refs.append(rng.choice(bg_ids))
        add(pid, year, sorted(set(refs)), f"background study {words(year, 3)}",
            f"{words(year, 6)}. {words(year, 6)}.")
        bg_ids.append(pid)

    recent_bg = [r["id"] for r in records if r["year"] >= 2003]
    old_bg = [r["id"] for r in records if r["year"] <= 1996]

    add("classic", 1992, [rng.choice(old_bg)],
        f"classical foundations {words(1992, 2)}",
        f"{words(1992, 6)}. {words(1992, 6)}.")
    add("riser", 2002, [rng.choice(old_bg)],
        "neuroevolution federated attention methods",
        "neuroevolution federated learning. attention adversarial training. "
        "neuroevolution attention federated adversarial models.")

    # 40 old citers: cite the classic plus two recent background papers
    for i in range(40):
        year = 1993 + i % 3
        refs = ["classic", rng.choice(old_bg), rng.choice(old_bg)]
        add(f"citer_classic{i:02d}", year, sorted(set(refs)),
            f"follow up {words(year, 3)}", f"{words(year, 6)}.")

    # 15 recent citers: cite the riser plus two old background papers,
    # with bursty vocabulary of their own
    for i in range(15):
        year = 2004 + i % 2
        refs = ["riser", rng.choice(old_bg), rng.choice(old_bg)]
        add(f"citer_riser{i:02d}", year, sorted(set(refs)),
            f"neuroevolution advances {words(year, 2, bursty=True)}",
            f"federated attention {words(year, 5, bursty=True)}. "
            f"adversarial {words(year, 5, bursty=True)}.")

    assert len(records) == n_papers
    return records


def long_sentence_records(n_papers: int = 400, seed: int = 13) -> list[dict]:
    """Records with a 5-word title and an abstract of two 30-word sentences,
    words drawn uniformly from 2000, so that same-sentence word pairs, most
    of them in one paper only, outnumber the word occurrences many times
    over."""
    rng = random.Random(seed)
    vocab = [f"w{i:05d}" for i in range(2000)]

    def words(n):
        return " ".join(rng.choices(vocab, k=n))

    return [{"id": f"L{i:05d}", "title": words(5),
             "abstract": f"{words(30)}. {words(30)}.",
             "authors": [f"a{i % 50:02d}"], "year": 1990 + i % 10,
             "venue": "synthetic", "refs": []}
            for i in range(n_papers)]


def scale_corpus(path, n_papers: int = 100_000, n_citations: int = 300_000,
                 n_authors: int = 50_000, vocab_size: int = 20_000,
                 seed: int = 11) -> None:
    """Write a large synthetic JSON-lines corpus directly to ``path``.

    Sized so that the retained feature table (words plus same-sentence
    pairs at min_df 3) lands around 100k features.
    """
    import json

    rng = random.Random(seed)
    # zipf-ish weights so pair features recur often enough to pass min_df
    weights = [1.0 / (i + 10) for i in range(vocab_size)]
    cum = []
    total = 0.0
    for w in weights:
        total += w
        cum.append(total)

    import bisect

    def pick():
        return bisect.bisect(cum, rng.random() * total)

    # preferential attachment for citations and a skewed author-productivity
    # distribution: a uniform random graph leaves the combined operator with
    # near-degenerate top eigenvalues and the power iteration cannot separate
    # them at tolerance
    endpoints: list[str] = []
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_papers):
            year = 1990 + (i * 16) // n_papers
            n_refs = n_citations // n_papers
            if i < n_citations % n_papers:
                n_refs += 1
            refs: set[str] = set()
            if i:
                for _ in range(n_refs):
                    if endpoints and rng.random() < 0.6:
                        refs.add(endpoints[rng.randrange(len(endpoints))])
                    else:
                        refs.add(f"p{rng.randrange(i):06d}")
            ref_list = sorted(refs)
            endpoints.extend(ref_list)
            toks = [f"w{pick():05d}" for _ in range(12)]
            n_auth = 2 + (i % 3 == 0)
            rec = {
                "id": f"p{i:06d}",
                "title": " ".join(toks[:4]),
                "abstract": f"{' '.join(toks[4:8])}. {' '.join(toks[8:])}.",
                "authors": [f"a{int(n_authors * rng.random() ** 2):05d}"
                            for _ in range(n_auth)],
                "year": year,
                "venue": "synthetic",
                "refs": ref_list,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
