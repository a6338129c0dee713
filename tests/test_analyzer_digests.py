"""The analyzer's text is pinned byte for byte.

A seeded generator builds databases that exercise every column kind the
analyzer treats differently: declared types, untyped and NOCASE columns,
mixed storage classes that compare equal (1, 1.0), all-NULL columns, empty
tables, columns exactly at and one past the categorical cutoff, and foreign
keys of every shape. The sha256 digests of analyze() text on those
databases, at every tier and down the token-budget degrade path, were
recorded from the analyzer that ran one query per fact per column; the
batched analyzer must reproduce each of them.
"""

import hashlib
import random
import sqlite3

import pytest

from evosql.analyzer import analyze
from evosql.errors import BudgetExceededError
from tests.conftest import TOY_SCHEMAS, make_database

ROWS = 42

_WORDS = ("alpha", "beta", "gamma", "delta", "it's", "x" * 70)
_MIXED = (1, 1.0, "1", 2, "2.0", 2.5, "x", None)


def _column(rng: random.Random, index: int):
    """(name, declaration, value for row r) for the index-th data column."""
    kind = index % 19
    if kind == 0:
        return f"n{index}_count", "INTEGER", lambda r: rng.choice((None, 0, 1, 2, 3))
    if kind == 1:
        return f"n{index}", "INTEGER", lambda r: rng.randrange(-500, 10_000)
    if kind == 2:
        return f"r{index}_amount", "REAL", lambda r: round(rng.uniform(-5, 900), 2)
    if kind == 3:
        return f"color{index}", "TEXT", lambda r: rng.choice(("Red", "green", "BLUE"))
    if kind == 4:
        return f"word{index}", "TEXT", lambda r: rng.choice(_WORDS)
    if kind == 5:
        return (f"nc{index}", "TEXT COLLATE NOCASE",
                lambda r: rng.choice(("alpha", "Alpha", "ALPHA", "beta", "Beta")))
    if kind == 6:
        # Equal values of different storage classes, first-seen order varies.
        return f"u{index}", "", lambda r: rng.choice(_MIXED)
    if kind == 7:
        # Past the categorical cutoff, with 1, 1.0 and '1' tied at the bottom.
        return (f"uh{index}", "",
                lambda r: rng.choice((1, 1.0, "1")) if r % 3 == 0 else rng.randrange(2, 60))
    if kind == 8:
        return f"b{index}", "BLOB", lambda r: None if r % 5 == 0 else bytes([r % 7, 65])
    if kind == 9:
        return f"empty{index}", "INTEGER", lambda r: None
    if kind == 10:
        return f"k{index}", "INTEGER", lambda r: (r * 7) % 20
    if kind == 11:
        return f"code{index}", "TEXT", lambda r: f"v{(r * 5) % 21:02d}"
    if kind == 12:
        return (f"d{index}_date", "TEXT",
                lambda r: f"20{rng.randrange(10, 24)}-{rng.randrange(1, 13):02d}-0{rng.randrange(1, 10)}")
    if kind == 13:
        return f"us{index}_at", "TEXT", lambda r: f"{rng.randrange(1, 13)}/{rng.randrange(1, 29)}/2020"
    if kind == 14:
        return f"price{index}", "TEXT", lambda r: f"${rng.randrange(1, 999)}.{rng.randrange(100):02d}"
    if kind == 15:
        return (f"sku{index}", "TEXT",
                lambda r: "".join(rng.choice("ABC") for _ in range(2)) + str(rng.randrange(10, 99)))
    if kind == 16:
        return (f"num{index}_pct", "NUMERIC",
                lambda r: rng.choice((r, r + 0.5, str(r), "n/a", None)))
    if kind == 17:
        # Untyped NOCASE: case-only duplicates beside numbers.
        return (f"unc{index}", "COLLATE NOCASE",
                lambda r: rng.choice(("Ab", "aB", "ab", 3, 3.0, r)))
    return f"year{index}", "INTEGER", lambda r: 1990 + (r * 11) % 30


def build_database(path, seed: int, tables: int, columns: int):
    """tables base tables of columns data columns each, plus id and foreign
    keys: t000 refers to itself, every later table to the one before it
    (nullable, with orphans), t001 carries a composite key to t000 and an
    implicit primary-key reference, and the last table is empty."""
    rng = random.Random(seed)
    conn = sqlite3.connect(path)
    for t in range(tables):
        name = f"t{t:03d}"
        specs = [_column(rng, c) for c in range(columns)]
        fk_cols = ["parent_id INTEGER REFERENCES t000(id)"] if t == 0 else [
            f"prev_id INTEGER REFERENCES t{t - 1:03d}(id)"]
        fk_tail = []
        if t == 1:
            fk_cols += ["pa INTEGER", "pb INTEGER", "owner INTEGER UNIQUE REFERENCES t000"]
            fk_tail = ["FOREIGN KEY (pa, pb) REFERENCES t000(id, n1)"]
        decl = ", ".join(
            ["id INTEGER PRIMARY KEY"]
            + [f"{n} {d}".strip() for n, d, _ in specs]
            + fk_cols + fk_tail
        )
        conn.execute(f"CREATE TABLE {name} ({decl})")
        if t == tables - 1 and tables > 1:
            continue
        for r in range(1, ROWS + 1):
            values = [r] + [fn(r) for _, _, fn in specs]
            if t == 0:
                values.append(None if r == 1 else rng.randrange(1, r))
            else:
                values.append(rng.choice((None, r, r, ROWS + 5)))
            if t == 1:
                values += [rng.randrange(1, 9), rng.randrange(-5, 5), r]
            conn.execute(f"INSERT INTO {name} VALUES ({', '.join('?' * len(values))})", values)
    conn.execute("CREATE INDEX idx_t000_u6 ON t000(u6)")
    conn.execute("CREATE VIEW v_first AS SELECT id FROM t000")
    conn.commit()
    conn.close()
    return path


# name -> (seed, tables, data columns per table); very_wide needs more result
# columns than SQLite allows in one statement if each of its columns gets
# three aggregates.
CASES = {
    "small": (1, 4, 22),
    "medium": (2, 8, 22),
    "large": (3, 12, 26),
    "ultra": (4, 14, 30),
    "very_wide": (5, 1, 700),
}

# Which spelling of a NOCASE value a distinct query returns decides the
# mixed-case guidance; identifiers need quoting, and a foreign key may name
# its column in another case than the declaration.
EDGE_SCHEMAS = {
    "nocase_upper_first": (
        "CREATE TABLE t (v TEXT COLLATE NOCASE, w TEXT);"
        "INSERT INTO t VALUES ('Alpha', 'a'), ('alpha', 'b'), ('beta', 'c');"
    ),
    "nocase_lower_first": (
        "CREATE TABLE t (v TEXT COLLATE NOCASE, w TEXT);"
        "INSERT INTO t VALUES ('alpha', 'a'), ('Alpha', 'b'), ('beta', 'c');"
    ),
    "quoted_names": (
        'CREATE TABLE "my table" (id INTEGER PRIMARY KEY, "odd ""col""" TEXT, '
        'Parent INTEGER, FOREIGN KEY (parent) REFERENCES "my table"(id));'
        'INSERT INTO "my table" VALUES (1, \'a"b\', NULL), (2, \'it\'\'s\', 1), (3, NULL, 1);'
    ),
}
SCHEMAS = {**TOY_SCHEMAS, **EDGE_SCHEMAS}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def degrade_chain(db) -> list[str]:
    """Digests of analyze() at the default budget, then at one token under
    each previous result, down to the budget error."""
    digests = []
    budget = None
    while True:
        try:
            analysis = analyze(db) if budget is None else analyze(db, budget_tokens=budget)
        except BudgetExceededError as exc:
            digests.append(_sha(str(exc)))
            return digests
        digests.append(_sha(analysis.text))
        budget = analysis.token_estimate - 1


EXPECTED = {
    "small": [
        "eb2fe6c7f42de03c8a8302be3928f52dd5d1e92cc79bd662a6460726eaa9dd76",
        "535fa039b89c7877772b875471bf4ba79555dc8fcda9f3a2955467a3790e577d",
        "e76915caa0e6b12a84f9ec921964a92934c9b97bfca3eb28292d6b7dff8d5411",
        "896454de6818028030f340c5ad64dc65ba5cdac324c8adf5dc9ea6a4a390cd61",
        "a1c0b11c5b9c161124214d826eec73ac325d9e75e81015b72e27c18b22923b3f",
    ],
    "medium": [
        "0875ca2150dbf7b5518fef055bd9bc29f2160ac4780062a832a9acccfb638f62",
        "0279fdf303908d5c4fefca3650288e7bbc7d93b73098e4b060325c8db9bed657",
        "f627292424497f6c8ec0d40bf65d9f249cd254c0bb3f5d0d7b1d40e1e44479da",
        "f15fceacbf0c22bb2fa90bff538e50b40591bcb6b59bedac3178f148c8cba22c",
    ],
    "large": [
        "f7045f651d5416c2e2d5e085ab3662dc61656b86c812552a7a02d8b275f705d3",
        "4f5e6830c9acfc5d30076d188188288f636249bec84b1bfc859ac9fa8ab86e2f",
        "c983cd4564e91aff7653a8e2e51214fde46500805516a5e39a7bebbf821c767d",
    ],
    "ultra": [
        "259749fa3da48325958742b7faf00f9a67c335e0178c04833ceec75d767828bf",
        "6541ef720aea22c2b2a0ac529eb3f670161d941be64e95f7221331a2231db0ab",
    ],
    "very_wide": [
        "079ad58fb360ce7eb59bc8099f228352e8e9a5bcf8c383c0ace89081125dc3f7",
        "55eab78172d8806f28ee94a85aa5a11703ac6c3d5d43ad22bfb0ac3f529dba82",
    ],
    "school": [
        "ae9c8aa07028d92a48e11c5d5c75dabd29677c10a6746bb670806aa95c86467e",
        "e131d5ef63862507edd7d69dcd15d99b510c4ffefbe5fa0a0de80f8c79b9969e",
        "af3755a4fd92691667b64d3aff51245b7f037b827859509196d30563f91631a8",
        "c5a915d10fef7975141740b7e0cae00c90c4c0e416e1195ce9f828a951c0e95f",
        "75b7f338234053123424131b697c7afe9acc42548bb5985445d79c4225755de9",
    ],
    "shop": [
        "123531499e12ae3f1951974a9a66c394625675b4c0de295b27085da5d1efe334",
        "b0759bbb8422c2d2f2625a558c52bb4d54001f9e065e3f141ca6284fa5be1ff7",
        "5bf2e138677f6d71619ac5f323072d66f824ee98b5d6ca7ac0da4d7900f52a2a",
        "1cb3465147481ff21684ce8ad6106aaada5b3d013fcb5eff0b8a261de5165873",
        "62f1262737a3bfea089cf23cd7fe699fde29b84b19d881fa1e0b8bcb639b69c7",
    ],
    "films": [
        "d21109f872ba9ee2149580ed426c51512fadc8c4a14ab77b0fe39c8ca7c76644",
        "d64d3cf001439d2563af1e08d4594f9190101c2dd151604cf72afe8b4c6e88b6",
        "401042ef9afa3eace1a6daa6088771d1aad99a164dd28119b10bb06bca2d4440",
        "8259a5e383a05e4f8e16e4b36abee6e0f6afb3bd02c0fdf0975d97736a560bdf",
        "c55f2e16b8814695f1ab774b4e568f597af8c2f972726c8906fdbbbd6e85a718",
    ],
    "nocase_upper_first": [
        "5f0b590cfd795da322c5d3b7b8f25425827311accf4a3b1190f7a84bceb4dc41",
        "90139e4d2a7fb1b58be96dc499d8645ff51bf90e3a227c8e2655a2c40536d5e8",
        "6568f3e306032c60c246ce9aebeba3135bf2789067e5bcee8c09ff63f01e8756",
    ],
    "nocase_lower_first": [
        "e50fa61b009b1db391d774106eec65b3446d7b7c7a755bdab334667ce8523150",
        "8378730015815ab7d25e4012e62960c096516f5c5e221dff9c902261ffe6ed78",
        "361ac2b55e2dffa59dee0ad0e4bec2cb960b89879b2e29c42ccbff61e3f236fb",
    ],
    "quoted_names": [
        "cb32aff8f738fb4d5ff87e6824b67f5b7c4910d2432ead13ada62b485f3bc1e1",
        "afaa3390dc9bedc7c996b95150f48a7ecb1ab84a186fab8d1e7dc9ab9c9dac0b",
        "214ec0502bfa95340e0a252520b560c34c7f5697a3c08d1e3db2ed4bd0bd84e8",
        "1c2b515e751aac58a53c3a3aadc357831c23d8e53a3bafa7aca4b5d65b1bcc1e",
        "e132a0e579f3c20ef550dfbe048924e67885759d484d1210fc70916cb5db3a95",
    ],
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_analysis_text_digests_unchanged(tmp_path, name):
    if name in CASES:
        seed, tables, columns = CASES[name]
        db = build_database(tmp_path / f"{name}.sqlite", seed, tables, columns)
    else:
        db = make_database(tmp_path / name / f"{name}.sqlite", SCHEMAS[name])
    assert degrade_chain(db) == EXPECTED[name]
