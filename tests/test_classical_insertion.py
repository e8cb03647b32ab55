"""Each correspondence is the classical insertion it is known to equal.

Round trips, the commutation census and the projection laws pass for any
bijection between the right sets; these tests pin which bijection each map is
by comparing it with ``oracle.classical_insertion``, which reads no package
code: exhaustively on small boxes, and on a seeded sample up to 8 x 8.
"""

import random
from itertools import product

import pytest

import oracle
from growthdiagrams import littlewood_map, littlewood_variant, rsk, triangular_array

#: rule: (column insertion, bump the first entry >= x (else > x), each column's i descending)
SETTINGS = {
    "row": (False, False, False),  # Knuth (1970)
    "col": (True, True, True),  # Burge (1974)
    "dual-row": (False, False, True),
    "dual-col": (True, True, False),
}
#: test id: Littlewood (family, base rule) whose P is the base rule's insertion of the
#: array's symmetric matrix; the family's name is its canonical variant
SYMMETRIC = {"all": ("all", "row"), "even-rows": ("even-rows", "col"),
             "even-cols": ("even-cols", "row"), "all-col": ("all", "col")}
DIAGONAL = {"all": (0, 1, 2), "even-rows": (0, 2), "even-cols": (0,)}


def _small_matrices(hi):
    """Every matrix up to 3 x 3 with entries 0/1, and every 2 x 2 up to ``hi``."""
    out = [[list(e[r * m:(r + 1) * m]) for r in range(n)]
           for n in range(1, 4) for m in range(1, 4) for e in product((0, 1), repeat=n * m)]
    return out + [[list(e[:2]), list(e[2:])] for e in product(range(hi + 1), repeat=4) if max(e) > 1]


@pytest.mark.parametrize("rule", list(SETTINGS))
def test_rsk_is_the_classical_insertion(rule):
    hi = 1 if rule.startswith("dual") else 2
    rng = random.Random(f"classical:{rule}")
    sample = []
    for _ in range(60):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        sample.append([[rng.randint(0, hi) for _ in range(m)] for _ in range(n)])
    for matrix in _small_matrices(hi) + sample:
        P, Q = rsk(rule, matrix)
        want = oracle.classical_insertion(matrix, *SETTINGS[rule])
        assert (P.to_rows(), Q.to_rows()) == want, matrix


@pytest.mark.parametrize("case", list(SYMMETRIC))
def test_canonical_littlewood_maps_insert_the_symmetric_matrix(case):
    """P of the canonical all, even-rows and even-cols maps, and of all over col,
    is the insertion tableau of the array's symmetric matrix, diagonal as given."""
    family, base = SYMMETRIC[case]
    variant = littlewood_variant(family, base)
    rng = random.Random(f"classical:{case}")
    arrays = [[[d, a, b], [e, c], [f]] for a, b, c in product((0, 1), repeat=3)
              for d, e, f in product(DIAGONAL[family], repeat=3)]
    for _ in range(60):
        n = rng.randint(1, 8)
        arrays.append([[rng.choice(DIAGONAL[family]) if j == i else rng.randint(0, 2)
                        for j in range(i, n)] for i in range(n)])
    for rows in arrays:
        n = len(rows)
        symmetric = [[rows[min(i, j)][abs(i - j)] for j in range(n)] for i in range(n)]
        want, _ = oracle.classical_insertion(symmetric, *SETTINGS[base])
        assert littlewood_map(variant, triangular_array(rows)).to_rows() == want, rows
