"""Known classification counts used as reference data: the published
Table 1 and Table 2 columns, and the totals they are checked against.

The cube totals come from the published exhaustive determination of Costas
cubes for orders up to 29 (itself built on the complete Costas array
databases for those orders).  Orders 2-13 are recomputed from scratch in
process by the enumeration module (tables --table 1 --max-order 13, as CI
runs it), and order 14 by the stretch test, which searches
costas_values(14, limit=14) and pins its bytes' sha256.  Above 14 the
package needs a supplied array database (enumerate --arrays-file).
"""

# order -> number of equivalence classes of Costas cubes
CUBE_CLASS_COUNTS: dict[int, int] = {
    2: 1, 3: 1, 4: 2, 5: 13, 6: 47, 7: 30, 8: 42, 9: 46, 10: 69,
    11: 66, 12: 34, 13: 11, 14: 6, 15: 33, 16: 6, 17: 19, 18: 0,
    19: 0, 20: 2, 21: 50, 22: 4, 23: 11, 24: 2, 25: 20, 26: 1,
    27: 77, 28: 3, 29: 33,
}

# order -> number of Costas arrays (OEIS A008404; order 29 from Drakakis
# et al., "Results of the enumeration of Costas arrays of order 29",
# Adv. Math. Commun. 2011).  A claimed-complete database must hold
# exactly this many arrays.
COSTAS_ARRAY_TOTALS: dict[int, int] = {
    1: 1, 2: 2, 3: 4, 4: 12, 5: 40, 6: 116, 7: 200, 8: 444, 9: 760,
    10: 2160, 11: 4368, 12: 7852, 13: 12828, 14: 17252, 15: 19612,
    16: 21104, 17: 18276, 18: 15096, 19: 10240, 20: 6464, 21: 3536,
    22: 2052, 23: 872, 24: 200, 25: 88, 26: 56, 27: 204, 28: 712, 29: 164,
}

# order -> published Table 1 row: (cube classes, projection array classes,
# total array classes).  Its cube column agrees with CUBE_CLASS_COUNTS.
TABLE1: dict[int, tuple[int, int, int]] = {
    2: (1, 1, 1), 3: (1, 1, 1), 4: (2, 1, 2), 5: (13, 6, 6), 6: (47, 17, 17),
    7: (30, 26, 30), 8: (42, 44, 60), 9: (46, 61, 100), 10: (69, 133, 277),
    11: (66, 126, 555), 12: (34, 74, 990), 13: (11, 22, 1616),
}

# order -> published Table 2 row: constructed cube classes per family,
# (G2x3, W2W2G2, G3 variants pooled).  Orders 2-29 absent here have no
# constructed classes in any family.
TABLE2: dict[int, tuple[int, int, int]] = {
    2: (1, 0, 0), 3: (1, 1, 0), 4: (0, 0, 2), 5: (1, 1, 2), 6: (4, 0, 0),
    7: (2, 0, 0), 9: (4, 3, 0), 11: (4, 3, 0), 14: (5, 0, 0), 15: (20, 10, 0),
    17: (10, 6, 0), 20: (0, 0, 2), 21: (35, 15, 0), 23: (10, 0, 0),
    24: (0, 0, 2), 25: (20, 0, 0), 27: (56, 21, 0), 29: (20, 10, 2),
}
