"""Deterministic SQLite analysis with size-adaptive depth.

Produces a fixed 10-section plain-text report whose depth scales down as the
schema grows (sample counts, enum listings, semantic and cross-table passes),
keeping the output inside a token budget. analyze() is a reference analyzer,
of the kind an evolved agent's tool discovers; the run loop never calls it,
and runs agents' own tools through toolrun.py.

Everything here is pure given the database file: queries are ordered, sample
values are the first N distinct values ascending, facts gathered in parallel
are kept in table order, and no wall-clock state leaks into the output, so
analyzing the same file twice is byte-identical, on any number of CPUs.
"""

import os
import re
import sqlite3
import urllib.parse
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import AnalysisError, BudgetExceededError
from .harness import pool_map
from .toolrun import DEFAULT_TOKEN_BUDGET, estimate_tokens, schema_ddl
# perfbench's wide_schema workload runs the tool runner as
# analyzer.run_agent_tool, and its tracer wraps it under that name.
from .toolrun import run_agent_tool  # noqa: F401

# A column is treated as categorical when it has at most this many distinct
# non-null values.
CATEGORICAL_DISTINCT_MAX = 20
# Distinct values probed per text column for format detection.
FORMAT_PROBE_VALUES = 20
FORMAT_MATCH_FRACTION = 0.8
SAMPLE_RENDER_MAX = 60

SECTION_TITLES = (
    "Schema DDL",
    "Table Overview",
    "Column Details",
    "Foreign Key Relationships",
    "Enumerated Values",
    "Numeric Ranges",
    "Format Detection",
    "Semantic Patterns",
    "Cross-Table Validation",
    "Query Guidance",
)

OMITTED_STUB = "omitted at this tier"
EMPTY_BODY = "none"

TIER_ORDER = ("Small", "Medium", "Large", "Ultra")


@dataclass(frozen=True)
class FeatureConfig:
    """Analysis depth knobs for one size tier."""

    samples_per_column: int
    enum_value_limit: int | None  # None = unlimited, 0 = section omitted
    semantic_patterns: str  # full | essential | skip
    cross_table_validation: str  # full | critical | skip


TIER_CONFIGS = {
    "Small": FeatureConfig(10, None, "full", "full"),
    "Medium": FeatureConfig(5, 15, "essential", "critical"),
    "Large": FeatureConfig(3, 5, "skip", "skip"),
    "Ultra": FeatureConfig(1, 0, "skip", "skip"),
}


@dataclass(frozen=True)
class SizeTier:
    """Size classification by total column count over base tables."""

    tier: str
    total_columns: int


def classify_size(total_columns: int) -> SizeTier:
    """Small <=150 columns, Medium 151-300, Large 301-400, Ultra >400."""
    if total_columns < 0:
        raise ValueError("total_columns must be >= 0")
    if total_columns <= 150:
        tier = "Small"
    elif total_columns <= 300:
        tier = "Medium"
    elif total_columns <= 400:
        tier = "Large"
    else:
        tier = "Ultra"
    return SizeTier(tier=tier, total_columns=total_columns)


@dataclass
class DatabaseAnalysis:
    """The rendered 10-section analysis plus tier and statistics metadata."""

    db_id: str
    tier: SizeTier
    sections: list[tuple[str, str]]
    text: str
    token_estimate: int
    stats: dict


# Every connection analyze() opens comes from here, on this module's own
# sqlite3, so either can be replaced for the analyzer alone.
def _connect_readonly(db_path: str | Path) -> sqlite3.Connection:
    quoted = urllib.parse.quote(str(Path(db_path)))
    return sqlite3.connect(f"file:{quoted}?mode=ro", uri=True)


# Page cache of each analysis connection, in KiB. With SQLite's default of
# 2,000 KiB on each of two concurrent connections, the peak RSS of the
# wide_schema benchmark (2 CPUs) rose from 30.2 to 33.2 MB; 512 KiB gave
# 30.3-30.4 MB and 256 KiB 29.8-29.9 MB, each as fast as the default.
ANALYSIS_CACHE_KIB = 256


def _analysis_connection(db_path: str | Path) -> sqlite3.Connection:
    conn = _connect_readonly(db_path)
    try:
        conn.execute(f"PRAGMA cache_size = -{ANALYSIS_CACHE_KIB}")
    except sqlite3.Error:
        conn.close()
        raise
    return conn


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _qident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _base_tables(conn: sqlite3.Connection) -> list[str]:
    rows = conn.execute(
        "SELECT name FROM sqlite_master "
        "WHERE type = 'table' AND name NOT LIKE 'sqlite_%' ORDER BY name"
    ).fetchall()
    return [name for (name,) in rows]


def _table_columns(conn: sqlite3.Connection, table: str) -> list[tuple]:
    # (cid, name, declared type, notnull, default, pk)
    return conn.execute(f"PRAGMA table_info({_qident(table)})").fetchall()


@dataclass(frozen=True)
class _ForeignKey:
    table: str
    from_cols: tuple[str, ...]
    ref_table: str
    to_cols: tuple[str, ...]
    # Why the parent key does not exist, or None. SQLite accepts such a
    # declaration while foreign-key enforcement is off, its default.
    dangling: str | None


def _foreign_keys(conn: sqlite3.Connection, table: str) -> list[_ForeignKey]:
    rows = conn.execute(f"PRAGMA foreign_key_list({_qident(table)})").fetchall()
    grouped: dict[int, list[tuple]] = {}
    for row in rows:
        grouped.setdefault(row[0], []).append(row)
    fks = []
    for fk_id in sorted(grouped):
        parts = sorted(grouped[fk_id], key=lambda r: r[1])  # by seq
        ref_table = parts[0][2]
        from_cols = tuple(p[3] for p in parts)
        to_cols = tuple(p[4] for p in parts)
        parent = _table_columns(conn, ref_table)
        if any(c is None for c in to_cols):
            # FK references the parent's primary key implicitly; with no
            # parent table, its columns are unknown and to_cols is empty.
            pk = [name for _, name in sorted((c[5], c[1]) for c in parent if c[5] > 0)]
            if parent and len(pk) != len(from_cols):
                continue  # malformed; skip rather than guess
            to_cols = tuple(pk)
        # SQLite folds the case of ASCII letters only in names.
        parent_names = {c[1].encode().lower() for c in parent}
        missing = [c for c in to_cols if c.encode().lower() not in parent_names]
        dangling = (f"no table {ref_table}" if not parent
                    else f"no column {ref_table}.{missing[0]}" if missing else None)
        fks.append(_ForeignKey(table, from_cols, ref_table, to_cols, dangling))
    return fks


NUMERIC_AFFINITIES = ("INTEGER", "REAL", "NUMERIC")


def _affinity(declared: str | None) -> str:
    d = (declared or "").upper()
    if "INT" in d:
        return "INTEGER"
    if any(tok in d for tok in ("CHAR", "CLOB", "TEXT")):
        return "TEXT"
    if not d or "BLOB" in d:
        return "BLOB"
    if any(tok in d for tok in ("REAL", "FLOA", "DOUB")):
        return "REAL"
    return "NUMERIC"


def _fmt_value(value, max_len: int | None = SAMPLE_RENDER_MAX) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bytes):
        text = f"x'{value.hex()}'"
    elif isinstance(value, str):
        text = "'" + value.replace("'", "''") + "'"
    else:
        text = str(value)
    if max_len is not None and len(text) > max_len:
        text = text[: max_len - 1] + "…"
    return text


def _distinct_values(conn, table, column, limit, ordered=True):
    # Without ORDER BY, SQLite stops scanning once limit values are found.
    order = f" ORDER BY {_qident(column)}" if ordered else ""
    sql = (
        f"SELECT DISTINCT {_qident(column)} FROM {_qident(table)} "
        f"WHERE {_qident(column)} IS NOT NULL{order} LIMIT {int(limit)}"
    )
    return [row[0] for row in conn.execute(sql).fetchall()]


def _column_aggregates(conn, table: str, columns: list[tuple]):
    """(row count, {column: (non-null count, min, max)}) from one scan of
    table, split into several statements only where one would exceed
    SQLite's limit on result columns. Only numeric-affinity columns show
    their maximum, so only they get a MAX; the others read None."""
    # Connection.getlimit is new in Python 3.11; 2000 is SQLite's default.
    getlimit = getattr(conn, "getlimit", None)
    max_results = getlimit(sqlite3.SQLITE_LIMIT_COLUMN) if getlimit else 2000
    chunks, chunk, width = [], [], 1  # COUNT(*) is one result column
    for col in columns:
        name, wants_max = col[1], _affinity(col[2]) in NUMERIC_AFFINITIES
        if width + 2 + wants_max > max_results:
            chunks.append(chunk)
            chunk, width = [], 1
        chunk.append((name, wants_max))
        width += 2 + wants_max
    if chunk:
        chunks.append(chunk)
    row_count, facts = 0, {}
    for chunk in chunks:
        terms = []
        for name, wants_max in chunk:
            q = _qident(name)
            terms.append(f"COUNT({q}), MIN({q})" + (f", MAX({q})" if wants_max else ""))
        row = conn.execute(
            f"SELECT COUNT(*), {', '.join(terms)} FROM {_qident(table)}"
        ).fetchone()
        row_count, values = row[0], iter(row[1:])
        for name, wants_max in chunk:
            facts[name] = (next(values), next(values), next(values) if wants_max else None)
    return row_count, facts


_ISO_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}([ T]\d{2}:\d{2}(:\d{2})?.*)?$")
_US_DATE_RE = re.compile(r"^\d{1,2}/\d{1,2}/\d{4}$")
_CURRENCY_SYMBOL_RE = re.compile(r"^[$€£]\s?-?\d[\d,]*(\.\d+)?$")
_TWO_DECIMAL_RE = re.compile(r"^-?\d[\d,]*\.\d{2}$")
_CODE_RE = re.compile(r"^[A-Z0-9]{2,12}$")

_TEMPORAL_NAME_RE = re.compile(r"(date|time|year|month|day|_at$)", re.IGNORECASE)

_UNIT_SUFFIXES = (
    "_pct",
    "_percent",
    "_rate",
    "_ratio",
    "_count",
    "_qty",
    "_amount",
    "_price",
    "_cost",
    "_total",
    "_kg",
    "_km",
    "_cm",
    "_mm",
    "_ms",
    "_sec",
)


def _detect_format(values: list) -> str | None:
    """Classify a text column's sampled values as date, currency, or code."""
    strings = [v for v in values if isinstance(v, str) and v]
    if not strings:
        return None
    total = len(strings)

    def fraction(pattern) -> float:
        return sum(1 for s in strings if pattern.match(s)) / total

    if fraction(_ISO_DATE_RE) >= FORMAT_MATCH_FRACTION:
        return "date (ISO)"
    if fraction(_US_DATE_RE) >= FORMAT_MATCH_FRACTION:
        return "date (MM/DD/YYYY)"
    if (
        fraction(_CURRENCY_SYMBOL_RE) >= FORMAT_MATCH_FRACTION
        or fraction(_TWO_DECIMAL_RE) >= FORMAT_MATCH_FRACTION
    ):
        return "currency"
    code_like = [s for s in strings if _CODE_RE.match(s)]
    if (
        len(code_like) / total >= FORMAT_MATCH_FRACTION
        and len({len(s) for s in code_like}) == 1
        and any(any(c.isalpha() for c in s) for s in code_like)
    ):
        return "code (fixed-length uppercase)"
    return None


# Every reader of a column's ascending distinct values (samples, format
# probe, enumerated values) takes a prefix of this many.
ORDERED_VALUES_MAX = max(
    FORMAT_PROBE_VALUES,
    CATEGORICAL_DISTINCT_MAX,
    max(config.samples_per_column for config in TIER_CONFIGS.values()),
)


@dataclass
class _TableFacts:
    """What _table_facts gathers about one base table: column facts keyed
    by column name, foreign-key facts by the table's _ForeignKey."""

    row_count: int
    nonnull_counts: dict[str, int] = field(default_factory=dict)
    min_max: dict[str, tuple] = field(default_factory=dict)
    # Exact up to CATEGORICAL_DISTINCT_MAX; one more stands for "more".
    # Only probed columns have an entry (see _Snapshot), so reading a
    # column that was not probed raises KeyError instead of reading 0.
    distinct_counts: dict[str, int] = field(default_factory=dict)
    mixed_case_enum: bool = False
    ordered: dict[str, list] = field(default_factory=dict)
    # TEXT columns with a detected format: (tag, example value).
    formats: dict[str, tuple[str, str]] = field(default_factory=dict)
    fk_cardinality: dict[_ForeignKey, str] = field(default_factory=dict)
    fk_nullable: dict[_ForeignKey, bool] = field(default_factory=dict)
    orphans: dict[_ForeignKey, int] = field(default_factory=dict)

    def ordered_values(self, name: str, limit: int) -> list:
        """The first limit distinct non-null values of a column, ascending."""
        if limit > ORDERED_VALUES_MAX:
            raise ValueError(f"at most {ORDERED_VALUES_MAX} ordered values per column")
        return self.ordered[name][:limit]

    def samples(self, name: str, limit: int) -> list:
        if limit == 1:
            # MIN is the first value an ascending distinct query returns.
            lo = self.min_max[name][0]
            return [] if lo is None else [lo]
        return self.ordered_values(name, limit)


def _table_facts(conn, table: str, columns: list[tuple], fks: list[_ForeignKey],
                 config: FeatureConfig) -> _TableFacts:
    """Every fact about one base table that a section reads at config's
    depth, and so at any lower one."""
    row_count, aggregates = _column_aggregates(conn, table, columns)
    facts = _TableFacts(row_count)
    for col in columns:
        affinity = _affinity(col[2])
        name, text = col[1], affinity == "TEXT"
        facts.nonnull_counts[name], lo, hi = aggregates[name]
        facts.min_max[name] = (lo, hi)
        # The distinct probe is read by enumerated values, and otherwise
        # only for the text values the case-sensitivity guidance looks at.
        # Every non-TEXT, non-BLOB affinity has a MAX, and SQLite orders
        # NULL < numbers < TEXT < BLOB, so any other MAX means no text.
        categorical = False
        if (config.enum_value_limit != 0 or affinity in ("TEXT", "BLOB")
                or isinstance(hi, (str, bytes))):
            probe = _distinct_values(conn, table, name, CATEGORICAL_DISTINCT_MAX + 1,
                                     ordered=False)
            distinct = facts.distinct_counts[name] = len(probe)
            categorical = 1 <= distinct <= CATEGORICAL_DISTINCT_MAX
            # Whether a categorical column holds upper case does not depend
            # on the order its values come in.
            if categorical and any(isinstance(v, str) and v != v.lower() for v in probe):
                facts.mixed_case_enum = True
        # Ascending values are read by samples past the MIN, by enumerated
        # values and by the format probe of TEXT columns.
        if (config.samples_per_column > 1 or text
                or (categorical and config.enum_value_limit != 0)):
            facts.ordered[name] = _distinct_values(conn, table, name, ORDERED_VALUES_MAX)
        if text:  # the format probe does not depend on the tier
            values = facts.ordered_values(name, FORMAT_PROBE_VALUES)
            tag = _detect_format(values)
            if tag:
                facts.formats[name] = (tag, next(v for v in values if isinstance(v, str) and v))
    for fk in fks:
        facts.fk_cardinality[fk] = _fk_cardinality(conn, fk)
        facts.fk_nullable[fk] = _fk_nullable(conn, fk)
        if config.cross_table_validation != "skip" and fk.dangling is None:
            facts.orphans[fk] = _fk_orphan_count(conn, fk)
    return facts


class _Snapshot:
    """All per-database facts, each fetched once, before any section is
    built: section builders only read it, so rendering, and re-rendering at
    a lower tier, runs no statement.

    The schema is read on the caller's connection. The facts the classified
    tier reads are gathered by one step per base table (_table_facts), each
    on a read-only connection it opens and closes itself, on a pool of one
    thread per CPU. Per table, one aggregate scan gives the row count,
    every column's non-null count and MIN, and each numeric column's MAX.
    A distinct probe without ORDER BY stops after CATEGORICAL_DISTINCT_MAX
    + 1 values: the exact distinct count is only needed up to that cutoff.
    It runs on every column where the tier shows enumerated values, and
    otherwise (at Ultra) only on columns that can hold text: TEXT or BLOB
    affinity, or a MAX that is text or a blob. A column not probed has no
    distinct_counts entry. The ascending distinct values are fetched for
    every column at the Small, Medium and Large tiers and for TEXT columns
    at Ultra. Each of the table's foreign keys gets its cardinality and
    nullability, and its orphan count where the tier shows cross-table
    validation and the parent key exists.
    """

    def __init__(self, conn: sqlite3.Connection, db_path: Path):
        self.tables = _base_tables(conn)
        self.columns = {t: _table_columns(conn, t) for t in self.tables}
        self.total_columns = sum(len(cols) for cols in self.columns.values())
        self.tier = classify_size(self.total_columns)
        fks = {t: _foreign_keys(conn, t) for t in self.tables}
        self.foreign_keys = [fk for t in self.tables for fk in fks[t]]

        config = TIER_CONFIGS[self.tier.tier]

        def gather(table: str) -> _TableFacts:
            with closing(_analysis_connection(db_path)) as own_conn:
                return _table_facts(own_conn, table, self.columns[table], fks[table], config)

        workers = min(len(self.tables), _cpu_count())
        self.facts = dict(zip(self.tables, pool_map(gather, self.tables, workers)))


def _fk_cardinality(conn, fk: _ForeignKey) -> str:
    not_null = " AND ".join(f"{_qident(c)} IS NOT NULL" for c in fk.from_cols)
    cols = ", ".join(_qident(c) for c in fk.from_cols)
    dupes = conn.execute(
        f"SELECT COUNT(*) FROM (SELECT {cols} FROM {_qident(fk.table)} "
        f"WHERE {not_null} GROUP BY {cols} HAVING COUNT(*) > 1)"
    ).fetchone()[0]
    return "one-to-one" if dupes == 0 else "one-to-many"


def _fk_orphan_count(conn, fk: _ForeignKey) -> int:
    not_null = " AND ".join(f"c.{_qident(col)} IS NOT NULL" for col in fk.from_cols)
    join = " AND ".join(
        f"p.{_qident(to)} = c.{_qident(frm)}"
        for frm, to in zip(fk.from_cols, fk.to_cols)
    )
    return conn.execute(
        f"SELECT COUNT(*) FROM {_qident(fk.table)} c WHERE {not_null} "
        f"AND NOT EXISTS (SELECT 1 FROM {_qident(fk.ref_table)} p WHERE {join})"
    ).fetchone()[0]


def _fk_nullable(conn, fk: _ForeignKey) -> bool:
    clause = " OR ".join(f"{_qident(c)} IS NULL" for c in fk.from_cols)
    return (
        conn.execute(
            f"SELECT EXISTS (SELECT 1 FROM {_qident(fk.table)} WHERE {clause})"
        ).fetchone()[0]
        == 1
    )


def _fk_label(fk: _ForeignKey) -> str:
    frm = ", ".join(fk.from_cols)
    # A missing parent table's implicit key columns are unknown.
    to = f".{', '.join(fk.to_cols)}" if fk.to_cols else ""
    return f"{fk.table}.{frm} -> {fk.ref_table}{to}"


def _build_sections(
    snap: _Snapshot, config: FeatureConfig, schema_ddl: str
) -> list[tuple[str, str]]:
    sections: list[tuple[str, str]] = []

    # 1. Schema DDL
    sections.append((SECTION_TITLES[0], schema_ddl or EMPTY_BODY))

    # 2. Table overview with row counts
    overview = [
        f"- {t}: {snap.facts[t].row_count} rows, {len(snap.columns[t])} columns"
        for t in snap.tables
    ]
    sections.append((SECTION_TITLES[1], "\n".join(overview) or EMPTY_BODY))

    # 3. Per-column details: declared type, null fraction, sample values
    detail_lines = []
    for table in snap.tables:
        detail_lines.append(f"Table: {table}")
        facts = snap.facts[table]
        rows = facts.row_count
        for col in snap.columns[table]:
            name, declared = col[1], col[2] or "untyped"
            nonnull = facts.nonnull_counts[name]
            null_part = f"{(rows - nonnull) / rows * 100:.1f}% null" if rows else "no rows"
            samples = facts.samples(name, config.samples_per_column)
            sample_part = (
                "samples: " + ", ".join(_fmt_value(v) for v in samples)
                if samples
                else "no non-null values"
            )
            detail_lines.append(f"  - {name} ({declared}): {null_part}; {sample_part}")
    sections.append((SECTION_TITLES[2], "\n".join(detail_lines) or EMPTY_BODY))

    # 4. Foreign-key relationship map with cardinality
    fk_lines = [
        f"- {_fk_label(fk)} ({snap.facts[fk.table].fk_cardinality[fk]}"
        + (f"; dangling: {fk.dangling})" if fk.dangling else ")")
        for fk in snap.foreign_keys
    ]
    sections.append((SECTION_TITLES[3], "\n".join(fk_lines) or EMPTY_BODY))

    # 5. Enumerated values for categorical columns
    if config.enum_value_limit == 0:
        sections.append((SECTION_TITLES[4], OMITTED_STUB))
    else:
        enum_lines = []
        for table in snap.tables:
            facts = snap.facts[table]
            for name, distinct in facts.distinct_counts.items():
                if not 1 <= distinct <= CATEGORICAL_DISTINCT_MAX:
                    continue
                limit = min(distinct, config.enum_value_limit or distinct)
                values = facts.ordered_values(name, limit)
                rendered = ", ".join(_fmt_value(v, max_len=None) for v in values)
                suffix = f" (showing first {limit} of {distinct})" if limit < distinct else ""
                enum_lines.append(f"- {table}.{name} ({distinct} distinct): {rendered}{suffix}")
        sections.append((SECTION_TITLES[4], "\n".join(enum_lines) or EMPTY_BODY))

    # 6. Min/max ranges for numeric columns
    range_lines = []
    for table in snap.tables:
        for col in snap.columns[table]:
            name, declared = col[1], col[2]
            if _affinity(declared) not in NUMERIC_AFFINITIES:
                continue
            lo, hi = snap.facts[table].min_max[name]
            if lo is None and hi is None:
                continue
            range_lines.append(f"- {table}.{name}: {_fmt_value(lo)} .. {_fmt_value(hi)}")
    sections.append((SECTION_TITLES[5], "\n".join(range_lines) or EMPTY_BODY))

    # 7. Detected formats (dates, currencies, codes)
    format_lines = [
        f"- {table}.{name}: {tag} (e.g. {_fmt_value(example)})"
        for table in snap.tables
        for name, (tag, example) in sorted(snap.facts[table].formats.items())
    ]
    sections.append((SECTION_TITLES[6], "\n".join(format_lines) or EMPTY_BODY))

    # 8. Semantic patterns
    if config.semantic_patterns == "skip":
        sections.append((SECTION_TITLES[7], OMITTED_STUB))
    else:
        semantic_lines = []
        for fk in snap.foreign_keys:
            if fk.ref_table == fk.table:
                semantic_lines.append(
                    f"- {_fk_label(fk)}: hierarchical self-reference"
                )
        if config.semantic_patterns == "full":
            for table in snap.tables:
                temporal = [
                    col[1]
                    for col in snap.columns[table]
                    if _TEMPORAL_NAME_RE.search(col[1])
                    or snap.facts[table].formats.get(col[1], ("",))[0].startswith("date")
                ]
                if len(temporal) >= 2:
                    semantic_lines.append(
                        f"- {table}: temporal sequence columns {', '.join(temporal)}"
                    )
            for table in snap.tables:
                for col in snap.columns[table]:
                    name = col[1]
                    for suffix in _UNIT_SUFFIXES:
                        if name.lower().endswith(suffix):
                            semantic_lines.append(
                                f"- {table}.{name}: unit hint from suffix '{suffix}'"
                            )
                            break
        sections.append((SECTION_TITLES[7], "\n".join(semantic_lines) or EMPTY_BODY))

    # 9. Cross-table validation (orphaned foreign keys)
    if config.cross_table_validation == "skip":
        sections.append((SECTION_TITLES[8], OMITTED_STUB))
    else:
        orphan_lines = []
        for fk in snap.foreign_keys:
            if fk.dangling:
                orphan_lines.append(f"- {_fk_label(fk)}: dangling ({fk.dangling}), "
                                    "orphans not counted")
                continue
            orphans = snap.facts[fk.table].orphans[fk]
            if config.cross_table_validation == "critical" and orphans == 0:
                continue
            orphan_lines.append(f"- {_fk_label(fk)}: {orphans} orphaned rows")
        sections.append((SECTION_TITLES[8], "\n".join(orphan_lines) or EMPTY_BODY))

    # 10. Query guidance from detected features
    guidance = []
    if any(facts.mixed_case_enum for facts in snap.facts.values()):
        guidance.append(
            "- String comparisons are case-sensitive; match enumerated values "
            "exactly as listed in the enumerated-values section."
        )
    nullable_fks = [fk for fk in snap.foreign_keys if snap.facts[fk.table].fk_nullable[fk]]
    if nullable_fks:
        labels = ", ".join(_fk_label(fk) for fk in nullable_fks)
        guidance.append(
            f"- Nullable foreign keys ({labels}): inner joins drop rows with "
            "NULL keys; use LEFT JOIN when unmatched rows matter."
        )
    if any(snap.facts[fk.table].fk_cardinality[fk] == "one-to-many"
           for fk in snap.foreign_keys):
        guidance.append(
            "- One-to-many joins can duplicate parent rows; count with "
            "DISTINCT or aggregate in a subquery before joining."
        )
    empty_tables = [t for t in snap.tables if snap.facts[t].row_count == 0]
    if empty_tables:
        guidance.append(
            f"- Empty tables ({', '.join(empty_tables)}): queries touching them "
            "return no rows."
        )
    if not guidance:
        guidance.append("- No database-specific pitfalls detected.")
    sections.append((SECTION_TITLES[9], "\n".join(guidance)))

    return sections


def _render(db_id: str, tier: SizeTier, stats: dict, sections: list[tuple[str, str]]) -> str:
    head = (
        f"# Database Analysis: {db_id}\n"
        f"Size tier: {tier.tier} ({tier.total_columns} columns, "
        f"{stats['table_count']} tables)\n"
    )
    parts = [head]
    for index, (title, body) in enumerate(sections, start=1):
        parts.append(f"## {index}. {title}\n{body}\n")
    return "\n".join(parts)


def analyze(db_path: str | Path, budget_tokens: int = DEFAULT_TOKEN_BUDGET) -> DatabaseAnalysis:
    """Produce the 10-section analysis for one SQLite database.

    The tier is classified from the total column count over base tables
    (views are not counted). If the rendered output exceeds budget_tokens,
    the feature depth degrades one tier at a time; if the Ultra depth still
    overflows, a budget error names the largest section. The facts are
    gathered on every CPU the process may use (see _Snapshot); no thread
    or connection outlives the call.
    """
    path = Path(db_path)
    if not path.is_file():
        raise AnalysisError(f"no such database file: {path}")
    try:
        conn = _connect_readonly(path)
        try:
            snap = _Snapshot(conn, path)
            ddl = schema_ddl(conn)
            tier = snap.tier
            tier_index = TIER_ORDER.index(tier.tier)
            while True:
                effective = TIER_ORDER[tier_index]
                config = TIER_CONFIGS[effective]
                sections = _build_sections(snap, config, ddl)
                stats = {
                    "table_count": len(snap.tables),
                    "total_columns": snap.total_columns,
                    "foreign_key_count": len(snap.foreign_keys),
                    "row_counts": {t: snap.facts[t].row_count for t in snap.tables},
                    "effective_tier": effective,
                    "degraded": effective != tier.tier,
                }
                text = _render(path.stem, tier, stats, sections)
                token_estimate = estimate_tokens(text)
                if token_estimate <= budget_tokens:
                    return DatabaseAnalysis(
                        db_id=path.stem,
                        tier=tier,
                        sections=sections,
                        text=text,
                        token_estimate=token_estimate,
                        stats=stats,
                    )
                if tier_index < len(TIER_ORDER) - 1:
                    tier_index += 1
                    continue
                largest = max(sections, key=lambda s: len(s[1].encode("utf-8")))[0]
                raise BudgetExceededError(
                    f"analysis of {path.stem} needs {token_estimate} tokens, "
                    f"budget is {budget_tokens}; largest section: {largest}",
                    section=largest,
                )
        finally:
            conn.close()
    except sqlite3.Error as exc:
        raise AnalysisError(f"cannot analyze {path}: {exc}") from exc

