"""In-memory uncertain relations with delta-tracked mutation.

:class:`UncertainTable` is a minimal relational substrate: named columns,
rows whose cells may be uncertain (see :mod:`repro.db.attributes`),
selection/projection, and — the step every query in the paper starts
from — conversion to ranked :class:`~repro.core.records.UncertainRecord`
lists via a :class:`~repro.db.scoring.ScoringFunction`.

Mutation is batch-oriented: :meth:`UncertainTable.mutate` opens a
:class:`MutationBatch` whose edits commit atomically as one
:class:`TableDelta` — one fingerprint transition per batch, not per
cell. Deltas record the *net* inserted/updated/deleted keys at record
granularity (an edit that leaves a row byte-identical is dropped), are
kept in a bounded log consumed by
:meth:`UncertainTable.changes_since`, and can be replayed onto another
table with :meth:`UncertainTable.apply`. The engine's ``from_table``
subscription reads the deltas to migrate cached artifacts instead of
discarding them (see :meth:`repro.core.cache.ComputationCache.migrate`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import TracebackType
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..core.errors import ModelError
from ..core.queries import QueryResult
from ..core.records import UncertainRecord
from .attributes import (
    ExactValue,
    IntervalValue,
    MissingValue,
    WeightedValue,
    wrap_value,
)

from .scoring import ScoringFunction

__all__ = ["MutationBatch", "TableChanges", "TableDelta", "UncertainTable"]

_UNCERTAIN_TYPES = (ExactValue, IntervalValue, MissingValue, WeightedValue)

#: How many committed deltas the per-table log retains. A subscriber
#: further behind than this gets ``deltas=None`` from
#: :meth:`UncertainTable.changes_since` and must fall back to a full
#: re-extract (correct, just without cache carry-forward).
_DELTA_LOG_LIMIT = 64


@dataclass(frozen=True)
class TableDelta:
    """Net effect of one committed mutation batch.

    ``inserted``/``updated``/``deleted`` are the keys whose rows
    differ between the pre- and post-batch table states; intermediate
    churn inside the batch (append then update, update then delete)
    is collapsed to its net effect, and edits that leave a row
    byte-identical are dropped entirely. ``inserted_rows`` and
    ``updated_rows`` carry the final (coerced) rows so the delta can be
    replayed onto another table with :meth:`UncertainTable.apply`.
    ``version`` is the table's version counter *after* the batch.
    """

    inserted: Tuple[str, ...]
    updated: Tuple[str, ...]
    deleted: Tuple[str, ...]
    version: int
    inserted_rows: Tuple[Mapping[str, object], ...] = ()
    updated_rows: Tuple[Mapping[str, object], ...] = ()

    @property
    def touched(self) -> FrozenSet[str]:
        """Every key whose record content this delta changed."""
        return frozenset(self.inserted) | frozenset(self.updated) | frozenset(
            self.deleted
        )

    @property
    def is_empty(self) -> bool:
        """Whether the batch had no net effect on table content."""
        return not (self.inserted or self.updated or self.deleted)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly summary (keys only, no row payloads)."""
        return {
            "inserted": list(self.inserted),
            "updated": list(self.updated),
            "deleted": list(self.deleted),
            "version": self.version,
        }


@dataclass(frozen=True)
class TableChanges:
    """Answer to :meth:`UncertainTable.changes_since`.

    ``deltas`` is the ordered tuple of :class:`TableDelta` committed
    after the subscriber's version, or ``None`` when the bounded log no
    longer covers the gap (the subscriber must then treat the whole
    table as changed).
    """

    version: int
    deltas: Optional[Tuple[TableDelta, ...]]


class MutationBatch:
    """Staged edits against one table, committed atomically on exit.

    Obtained from :meth:`UncertainTable.mutate`; edits validate
    sequentially against the staged state (append-after-delete of the
    same key is legal, appending a live duplicate is not) and nothing
    touches the table until the ``with`` block exits cleanly — an
    exception aborts the whole batch.
    """

    def __init__(self, table: "UncertainTable") -> None:
        self._table = table
        self._working: Dict[str, Dict] = {
            row[table.key]: row for row in table.rows
        }
        self._touched: set = set()
        self._committed = False

    # -- edits ---------------------------------------------------------

    def append(self, raw_row: Mapping[str, object]) -> None:
        """Stage one new row (coerced exactly like construction)."""
        row = self._table._coerce_row(dict(raw_row))
        key_value = row[self._table.key]
        if key_value in self._working:
            raise ModelError(f"duplicate key {key_value!r}")
        self._working[key_value] = row
        self._touched.add(key_value)

    def delete(self, key_value: str) -> None:
        """Stage deletion of the row keyed ``key_value``."""
        key_value = str(key_value)
        if key_value not in self._working:
            raise ModelError(f"no row with key {key_value!r}")
        del self._working[key_value]
        self._touched.add(key_value)

    def update(self, key_value: str, column: str, value: object) -> None:
        """Stage replacement of one cell (coerced like construction)."""
        table = self._table
        if column not in table.columns:
            raise ModelError(f"unknown column {column!r}")
        if column == table.key:
            raise ModelError("use delete/append to change keys")
        key_value = str(key_value)
        row = self._working.get(key_value)
        if row is None:
            raise ModelError(f"no row with key {key_value!r}")
        # Copy-on-write: live readers may share the original row dict.
        fresh = dict(row)
        fresh[column] = table._coerce_cell(column, value)
        self._working[key_value] = fresh
        self._touched.add(key_value)

    def replace(self, raw_row: Mapping[str, object]) -> None:
        """Stage replacement of one whole existing row."""
        row = self._table._coerce_row(dict(raw_row))
        key_value = row[self._table.key]
        if key_value not in self._working:
            raise ModelError(f"no row with key {key_value!r}")
        self._working[key_value] = row
        self._touched.add(key_value)

    # -- context manager protocol --------------------------------------

    def __enter__(self) -> "MutationBatch":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is None:
            self._commit()

    def _commit(self) -> None:
        if self._committed:
            raise ModelError("mutation batch already committed")
        self._committed = True
        table = self._table
        before = {row[table.key]: row for row in table.rows}
        inserted: List[str] = []
        updated: List[str] = []
        deleted: List[str] = []
        inserted_rows: List[Dict] = []
        updated_rows: List[Dict] = []
        for key_value in self._touched:
            old = before.get(key_value)
            new = self._working.get(key_value)
            if old is None and new is not None:
                inserted.append(key_value)
                inserted_rows.append(new)
            elif old is not None and new is None:
                deleted.append(key_value)
            elif (
                old is not None
                and new is not None
                and (
                    old is not new
                    and table._row_digest(old) != table._row_digest(new)
                )
            ):
                updated.append(key_value)
                updated_rows.append(new)
        if not (inserted or updated or deleted):
            # Net no-op (e.g. an update that left the cell
            # byte-identical): the table content did not change, so
            # neither the version counter nor any fingerprint moves and
            # nothing downstream is invalidated.
            return
        delta = TableDelta(
            inserted=tuple(inserted),
            updated=tuple(updated),
            deleted=tuple(deleted),
            version=table.version + 1,
            inserted_rows=tuple(inserted_rows),
            updated_rows=tuple(updated_rows),
        )
        # Publication order matters for lock-free readers: rows first,
        # then the delta, then the version counter last — a subscriber
        # that observes the new version is guaranteed to see the new
        # rows and the delta that produced them.
        table.rows = list(self._working.values())
        table._delta_log.append(delta)
        overflow = len(table._delta_log) - _DELTA_LOG_LIMIT
        if overflow > 0:
            del table._delta_log[:overflow]
            table._log_base += overflow
        table.version = delta.version


class UncertainTable:
    """A named relation whose cells may carry uncertain values.

    Parameters
    ----------
    name:
        Relation name (informational; not part of the content
        fingerprint).
    columns:
        Ordered column names; must include ``key``.
    rows:
        Iterable of mappings from column name to raw cell values; cells
        are coerced with :func:`~repro.db.attributes.wrap_value` except
        for the key column and non-numeric payload columns, which are
        kept verbatim.
    key:
        Column holding the unique record identifier.
    uncertain_columns:
        Columns whose cells are coerced to uncertain values. ``None``
        (the default) coerces every coercible non-key cell; passing an
        explicit list keeps payload columns as plain Python values,
        which is friendlier to predicates and display.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        rows: Iterable[Dict],
        key: str = "id",
        uncertain_columns: Optional[Sequence[str]] = None,
    ) -> None:
        if key not in columns:
            raise ModelError(f"key column {key!r} missing from columns")
        if uncertain_columns is not None:
            unknown = set(uncertain_columns) - set(columns)
            if unknown:
                raise ModelError(f"unknown uncertain columns {unknown!r}")
        self.name = name
        self.columns = list(columns)
        self.key = key
        self.uncertain_columns = (
            None if uncertain_columns is None else set(uncertain_columns)
        )
        self.rows: List[Dict] = []
        self._init_mutation_state()
        seen = set()
        for raw_row in rows:
            row = self._coerce_row(raw_row)
            key_value = row[self.key]
            if key_value in seen:
                raise ModelError(f"duplicate key {key_value!r}")
            seen.add(key_value)
            self.rows.append(row)

    def _init_mutation_state(self) -> None:
        """Fresh version counter and delta log (construction/derivation)."""
        self.version = 0
        self._delta_log: List[TableDelta] = []
        self._log_base = 0

    def _coerce_row(self, raw_row: Dict) -> Dict:
        """One row coerced exactly like construction-time rows."""
        row = {}
        for col in self.columns:
            if col not in raw_row:
                raise ModelError(
                    f"row is missing column {col!r}: {raw_row!r}"
                )
            row[col] = self._coerce_cell(col, raw_row[col])
        row[self.key] = str(row[self.key])
        return row

    def _coerce_cell(self, col: str, cell: object) -> object:
        wrap = (
            col != self.key
            and not isinstance(cell, str)
            and (
                self.uncertain_columns is None
                or col in self.uncertain_columns
            )
        )
        if not wrap:
            return cell
        try:
            return wrap_value(cell)
        except ModelError:
            return cell

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Dict]:
        return iter(self.rows)

    # ------------------------------------------------------------------
    # mutation (batched; one delta + one version bump per batch)
    # ------------------------------------------------------------------

    def mutate(self) -> MutationBatch:
        """Open a mutation batch committed atomically on ``with`` exit.

        All edits staged inside the ``with`` block land as one
        :class:`TableDelta` — one version bump and one fingerprint
        transition per batch, however many cells it touches::

            with table.mutate() as batch:
                batch.update("a2", "rent", (600.0, 1100.0))
                batch.delete("a7")
                batch.append({"id": "a9", "rent": 850.0})

        A batch whose net effect is empty (every edit left its row
        byte-identical) commits nothing at all.
        """
        return MutationBatch(self)

    def apply(self, delta: TableDelta) -> None:
        """Replay a :class:`TableDelta` from another table onto this one.

        Deletions are applied first, then whole-row replacements for
        updated keys, then insertions — the same net effect the delta
        recorded. Raises :class:`~repro.core.errors.ModelError` (and
        applies nothing) when the delta does not fit this table's state,
        e.g. a deleted key that does not exist here.
        """
        with self.mutate() as batch:
            for key_value in delta.deleted:
                batch.delete(key_value)
            for row in delta.updated_rows:
                batch.replace(row)
            for row in delta.inserted_rows:
                batch.append(row)

    def changes_since(self, version: Optional[int]) -> TableChanges:
        """The deltas committed after ``version`` (a subscriber's view).

        ``version=None`` subscribes fresh: the current version with no
        deltas. When the bounded log no longer reaches back to
        ``version``, ``deltas`` is ``None`` and the caller must treat
        the whole table as changed.
        """
        current = self.version
        if version is None or version == current:
            return TableChanges(version=current, deltas=())
        if version < self._log_base or version > current:
            return TableChanges(version=current, deltas=None)
        return TableChanges(
            version=current,
            deltas=tuple(self._delta_log[version - self._log_base:]),
        )

    # ------------------------------------------------------------------
    # content fingerprinting (record-granular)
    # ------------------------------------------------------------------

    def _row_digest(self, row: Mapping[str, object]) -> str:
        """Per-record blake2b leaf over the row's cells (via ``repr``)."""
        h = hashlib.blake2b(digest_size=16)
        for col in self.columns:
            h.update(repr(row[col]).encode("utf-8"))
            h.update(b"\x1f")
        return h.hexdigest()

    def row_digest(self, key_value: str) -> str:
        """The content leaf of one row (record-granular fingerprint)."""
        key_value = str(key_value)
        for row in self.rows:
            if row[self.key] == key_value:
                return self._row_digest(row)
        raise ModelError(f"no row with key {key_value!r}")

    def fingerprint(self) -> str:
        """Content digest of the table: schema + per-record leaves.

        Keyed on content only — not the table name and not the mutation
        history — so two byte-identical tables share one fingerprint
        regardless of how they were loaded or edited, and a mutation
        that round-trips back to identical cells restores the original
        fingerprint (cached artifacts for that content become
        addressable again, which is sound because they are pure
        functions of the content). Each row contributes one blake2b
        leaf (:meth:`row_digest`), which is what lets mutation batches
        detect byte-identical edits and drop them from their deltas.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(f"table-v2:{self.key}".encode("utf-8"))
        for col in self.columns:
            h.update(col.encode("utf-8"))
            h.update(b"\x00")
        for row in self.rows:
            h.update(self._row_digest(row).encode("utf-8"))
            h.update(b"\x1e")
        return h.hexdigest()

    # ------------------------------------------------------------------
    # relational operations
    # ------------------------------------------------------------------

    def _derived(
        self, columns: Sequence[str], rows: List[Dict]
    ) -> "UncertainTable":
        """A new table sharing schema config, with fresh mutation state."""
        table = UncertainTable.__new__(UncertainTable)
        table.name = self.name
        table.columns = list(columns)
        table.key = self.key
        table.uncertain_columns = self.uncertain_columns
        table.rows = rows
        table._init_mutation_state()
        return table

    def select(self, predicate: Callable[[Dict], bool]) -> "UncertainTable":
        """Rows satisfying ``predicate`` as a new table."""
        return self._derived(
            self.columns, [row for row in self.rows if predicate(row)]
        )

    def project(self, columns: Sequence[str]) -> "UncertainTable":
        """Keep only ``columns`` (the key is always retained)."""
        cols = list(columns)
        if self.key not in cols:
            cols = [self.key] + cols
        missing = [c for c in cols if c not in self.columns]
        if missing:
            raise ModelError(f"unknown columns {missing!r}")
        return self._derived(
            cols, [{c: row[c] for c in cols} for row in self.rows]
        )

    def head(self, n: int) -> "UncertainTable":
        """The first ``n`` rows as a new table."""
        return self._derived(self.columns, self.rows[:n])

    def column(self, name: str) -> List:
        """All values of one column."""
        if name not in self.columns:
            raise ModelError(f"unknown column {name!r}")
        return [row[name] for row in self.rows]

    # ------------------------------------------------------------------
    # bridging to the ranking model
    # ------------------------------------------------------------------

    def to_records(
        self,
        scoring: ScoringFunction,
        payload_columns: Optional[Sequence[str]] = None,
        validate: bool = False,
    ) -> List[UncertainRecord]:
        """Score every row and return ranking-ready records.

        ``scoring`` reads its configured attribute column(s) — both
        single-attribute :class:`~repro.db.scoring.ScoringFunction` and
        multi-attribute :class:`~repro.db.scoring.CombinedScoring` rules
        are accepted; the optional ``payload_columns`` are attached to
        each record for display. With ``validate=True`` the scored
        records are checked with
        :func:`~repro.core.validation.validate_records` and the first
        problem raises :class:`~repro.core.errors.ModelError` naming
        the offending record.
        """
        needed = (
            list(scoring.attributes)
            if hasattr(scoring, "attributes")
            else [scoring.attribute]
        )
        missing = [c for c in needed if c not in self.columns]
        if missing:
            raise ModelError(
                f"scoring attributes {missing!r} are not columns"
            )
        keep = list(payload_columns) if payload_columns else []
        records = []
        for row in self.rows:
            distribution = scoring.score_row(row)
            payload = {c: row[c] for c in keep} if keep else None
            records.append(
                UncertainRecord(row[self.key], distribution, payload)
            )
        if validate:
            from ..core.validation import validate_records

            validate_records(records, raise_on_issue=True)
        return records

    def rank(
        self,
        scoring: ScoringFunction,
        k: int = 10,
        l: Optional[int] = None,
        seed: Optional[int] = 0,
        **engine_kwargs: object,
    ) -> QueryResult:
        """One-call ranking: score the table and run UTop-Rank(1, k).

        Returns the :class:`~repro.core.queries.QueryResult` of
        ``l``-UTop-Rank(1, k) (``l`` defaults to ``k``) over this
        table's rows. The fixed default ``seed`` keeps repeated calls
        reproducible; pass ``None`` for OS entropy. Additional keyword
        arguments configure the underlying
        :class:`~repro.core.engine.RankingEngine`, which is built with
        :meth:`~repro.core.engine.RankingEngine.from_table` — scored
        records are validated, and the engine subscribes to this
        table's mutation deltas.
        """
        from ..core.engine import RankingEngine

        engine = RankingEngine.from_table(
            self, scoring, seed=seed, **engine_kwargs
        )
        return engine.utop_rank(1, k, l=l if l is not None else k)

    def uncertainty_rate(self, column: str) -> float:
        """Fraction of rows whose ``column`` value is uncertain."""
        values = self.column(column)
        if not values:
            return 0.0
        uncertain = sum(
            1
            for v in values
            if isinstance(v, _UNCERTAIN_TYPES) and v.is_uncertain
        )
        return uncertain / len(values)
