"""Layer tracing for the traced benchmark run, installed from outside the library.

The tracer wraps public functions of each kacpal layer by patching every
module namespace (and class) that holds a reference to them, so names bound
by ``from .wreath import mul_row`` are wrapped as well as the definition.
Without that, calls made through the imported name bypass the wrapper and
their counts silently read zero.

Every wrapped call updates per-name aggregates (calls, inclusive time, self
time). Self time is a call's duration minus the part covered by its wrapped
children. Calls of the coarse layers also become span records
``(command_id, span_id, parent_id, name, start, end)``; the hot leaves
(field operations, index products) are aggregated only, because they run
hundreds of thousands of times per command and one record each would
cost more memory than the run itself. A span's
parent is the nearest enclosing recorded span, so recorded spans nest.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

MODULES = ("cyclotomic", "wreath", "partitions", "algebra", "classifier", "hopf", "cli")

# (span name, module, attribute path, recorded as spans). An attribute path
# "Class.method" wraps a method and every alias of it in the class dict
# (for example __rmul__ = __mul__).
TARGETS = (
    ("cyclotomic.mul", "cyclotomic", "CycNumber.__mul__", False),
    ("cyclotomic.add", "cyclotomic", "CycNumber.__add__", False),
    ("cyclotomic.add", "cyclotomic", "CycNumber.__sub__", False),
    ("cyclotomic.add", "cyclotomic", "CycNumber.__rsub__", False),
    ("cyclotomic.add", "cyclotomic", "CycNumber.__neg__", False),
    ("cyclotomic.inverse", "cyclotomic", "CycNumber.inverse", False),
    ("wreath.mul_index", "wreath", "mul_index", False),
    ("wreath.mul_row", "wreath", "mul_row", False),
    ("partitions.young_symmetrizer", "partitions", "young_symmetrizer", True),
    ("partitions.sym_product", "partitions", "SymFormalSum.__mul__", True),
    ("partitions.standard_tableaux_count", "partitions", "standard_tableaux_count", True),
    ("partitions.hook_length", "partitions", "hook_length", False),
    ("partitions.partitions_of", "partitions", "partitions_of", True),
    ("algebra.product", "algebra", "AlgebraElement.__mul__", True),
    ("algebra.rank", "algebra", "left_ideal_dimension", True),
    ("algebra.rank", "algebra", "sandwich_dimension", True),
    ("algebra.relations", "algebra", "verify_defining_relations", True),
    ("classifier.idempotent_from_beta", "classifier", "idempotent_from_beta", True),
    ("classifier.irrep_table", "classifier", "irrep_table", True),
    ("hopf.delta", "hopf", "delta", True),
    ("hopf.antipode", "hopf", "antipode", True),
    ("hopf.tensor_product", "hopf", "TensorElement.__mul__", True),
    ("hopf.axiom_report", "hopf", "hopf_axiom_report", True),
    ("cli.serialize", "classifier", "IrrepTable.to_json", True),
    ("cli.serialize", "classifier", "IrrepTable.to_csv", True),
    ("cli.serialize", "algebra", "AlgebraElement.to_json", True),
)

# Products whose work is reported as term pairs: |terms(a)| * |terms(b)|.
TERM_PAIRS = {"algebra.product", "hopf.tensor_product"}


class Tracer:
    """Aggregates and spans of the wrapped calls; one instance per traced run."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []
        self.command_id = 0
        # Each frame is [time covered by children, id of nearest recorded span].
        self._stack: list[list] = [[0.0, None]]
        self._next_span = 0

    def wrap(self, name: str, fn, record: bool):
        stats = self.stats[name]
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        pairs_key = name + ".term_pairs" if name in TERM_PAIRS else None

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if record:
                self._next_span += 1
                frame = [0.0, self._next_span]
            else:
                frame = [0.0, parent[1]]
            if pairs_key is not None:
                counts[pairs_key] += len(args[0].terms) * len(args[1].terms)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stats[0] += 1
                stats[1] += d
                stats[2] += d - frame[0]
                parent[0] += d
                if record:
                    self.spans.append((self.command_id, frame[1], parent[1], name, t0, t1))

        wrapper.__wrapped__ = fn
        return wrapper

    def self_s(self, prefix: str) -> float:
        return sum(s[2] for name, s in self.stats.items() if name == prefix or name.startswith(prefix + "."))

    def span_dicts(self) -> list[dict]:
        keys = ("command", "id", "parent", "name", "start", "end")
        return [dict(zip(keys, span)) for span in self.spans]


def load_modules() -> dict:
    """The kacpal modules that exist at this commit; a target in a module that
    a later refactor removed is reported missing rather than failing the run."""
    modules = {}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module("kacpal." + name)
        except ModuleNotFoundError:
            continue
    return modules


def module_caches(modules: dict) -> list:
    """Every functools cache object bound at module level in kacpal, found once
    before any wrapping so that the originals are read and cleared."""
    seen = {}
    for mod in [importlib.import_module("kacpal"), *modules.values()]:
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and callable(getattr(obj, "cache_info", None)):
                seen[id(obj)] = obj
    return list(seen.values())


def clear_caches(caches) -> None:
    for cache in caches:
        cache.cache_clear()


def cache_entries(caches) -> int:
    return sum(cache.cache_info().currsize for cache in caches)


class Instrumentation:
    """Installs tracer wrappers into kacpal and removes them again."""

    def __init__(self, modules: dict, tracer: Tracer):
        self.modules = modules
        self.tracer = tracer
        self._undo: list[tuple] = []

    def _patch_everywhere(self, original, replacement) -> None:
        namespaces = [importlib.import_module("kacpal"), *self.modules.values()]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _patch_class(self, cls, original, replacement) -> None:
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._undo.append((cls, attr, value))
                setattr(cls, attr, replacement)

    def install(self) -> list[str]:
        """Wrap every target; returns the targets that no longer exist, whose
        metrics then read zero."""
        missing = []
        for name, mod_name, path, record in TARGETS:
            mod = self.modules.get(mod_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                missing.append(f"{mod_name}.{path}")
                continue
            wrapper = self.tracer.wrap(name, original, record)
            if owner_name:
                self._patch_class(owner, original, wrapper)
            else:
                self._patch_everywhere(original, wrapper)
        missing += self._install_rank_counter()
        self._install_json_dumps()
        return missing

    def _install_rank_counter(self) -> list[str]:
        # Vectors fed to, and pivots found by, the shared sparse echelon.
        algebra = self.modules.get("algebra")
        original = vars(algebra).get("_sparse_rank") if algebra is not None else None
        if original is None:
            return ["algebra._sparse_rank"]
        counts = self.tracer.counts

        def counted_rank(vectors):
            seen = 0

            def counting():
                nonlocal seen
                for vec in vectors:
                    seen += 1
                    yield vec

            rank = original(counting())
            counts["algebra.rank.vectors"] += seen
            counts["algebra.rank.pivots"] += rank
            return rank

        self._patch_everywhere(original, counted_rank)
        return []

    def _install_json_dumps(self) -> None:
        # The CLI serialises through the json module object, so its attribute
        # is patched (and restored on uninstall).
        self._undo.append((json, "dumps", json.dumps))
        json.dumps = self.tracer.wrap("cli.serialize", json.dumps, True)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
