"""Random grids whose line resistances and load powers span many decades.

Draw d (counting from 0) is the d-th of 3000 documents of
`conftest.random_grid_document(default_rng(5), n_max=4, m_max=12)`; right
after each document is drawn, every line gets r = 10**U(-6, 4) and then every
nonzero load gets P = 10**U(-6, 6), in document order, from the same
generator. Their reduced matrices reach condition numbers near 1e10, and the
pairwise threshold f_ij cancels to rounding noise on some of them. The draws
in DRAWS are committed as tests/data/wide_range_<d>.json;
`tests/test_wide_range.py` checks that this script reproduces them byte for
byte. Rewrite them (or add a draw to DRAWS) with

    PYTHONPATH=src python3 tests/wide_range.py
"""

import json
from pathlib import Path

import numpy as np

from conftest import random_grid_document

DATA = Path(__file__).resolve().parent / "data"
DRAWS = (108, 116, 203, 264, 359, 436, 720, 976, 1122, 1511, 1666, 2915)
COUNT = 3000


def documents() -> list[dict]:
    """All COUNT wide-range grid documents, in draw order."""
    rng = np.random.default_rng(5)
    docs = []
    for _ in range(COUNT):
        doc = random_grid_document(rng, n_max=4, m_max=12)
        for line in doc["lines"]:
            line["r"] = float(10.0 ** rng.uniform(-6, 4))
        for load in doc["loads"]:
            if load["P"] > 0:
                load["P"] = float(10.0 ** rng.uniform(-6, 6))
        docs.append(doc)
    return docs


def path(draw: int) -> Path:
    return DATA / f"wide_range_{draw}.json"


def text(doc: dict) -> str:
    """A document as the committed files hold it."""
    return json.dumps(doc, indent=2) + "\n"


if __name__ == "__main__":
    docs = documents()
    for draw in DRAWS:
        path(draw).write_text(text(docs[draw]))
        print(f"wrote {path(draw)}")
