"""Exact-arithmetic classification for generalised Kac-Paljutkin algebras.

Realizes the algebra as the group algebra of the generalised symmetric
group (m-tuples of Z_n twists permuted by S_m), constructs the primitive
idempotents indexed by labelled partitions, and verifies every relation,
counting formula, dimension formula, and Hopf axiom by exact computation
with rational arithmetic only: a value of the cyclotomic field is an
integer pair of kacpal.roots, and a sum of roots of unity is read from
exponent tables.

The names below are imported from their modules on first use (PEP 562), so
importing the package, as every command-line call does, loads no module
that the call does not run.
"""

from importlib import import_module

# module -> the names the package exports from it
_EXPORTS = {
    "classifier": (
        "IrrepRecord",
        "IrrepTable",
        "LabelledPartition",
        "enumerate_labelled_partitions",
        "irrep_dimension",
        "irrep_table",
        "lambda_from_beta",
    ),
    "conjugacy": ("conjugacy_class_count",),
    "hopf": ("cocommutativity_witness", "hopf_axiom_report"),
    "partitions": (
        "Partition",
        "count_formula",
        "hook_length",
        "partitions_of",
        "standard_tableaux_count",
        "young_symmetrizer",
    ),
    "relations": ("verify_defining_relations",),
    "roots": ("cyclotomic_polynomial",),
    "wreath": (
        "CapExceededError",
        "Perm",
        "WreathElement",
        "generator_a",
        "generator_b",
        "group_order",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # read from the module on every use, never stored here, so a wrapper
    # put on the module later is what the package hands out
    return getattr(import_module(f".{module}", __name__), name)
