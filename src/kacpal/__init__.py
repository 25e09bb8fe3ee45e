"""Exact-arithmetic classification for generalised Kac-Paljutkin algebras.

Realizes the algebra as the group algebra of the generalised symmetric
group (m-tuples of Z_n twists permuted by S_m), constructs the primitive
idempotents indexed by labelled partitions, and verifies every relation,
counting formula, dimension formula, and Hopf axiom by exact computation
over cyclotomic rationals.

The names below are imported from their modules on first use (PEP 562), so
importing the package, as every command-line call does, loads no module
that the call does not run.
"""

from importlib import import_module

# module -> the names the package exports from it
_EXPORTS = {
    "algebra": (
        "AlgebraElement",
        "lambda_idempotent",
        "s_element",
        "verify_defining_relations",
        "x_element",
        "x_monomial",
        "y_element",
        "z_element",
    ),
    "classifier": (
        "IrrepRecord",
        "IrrepTable",
        "LabelledPartition",
        "enumerate_labelled_partitions",
        "idempotent_from_beta",
        "irrep_dimension",
        "irrep_table",
        "lambda_from_beta",
    ),
    "conjugacy": ("conjugacy_class_count",),
    "cyclotomic": (
        "CycNumber",
        "Rational",
        "cyclotomic_polynomial",
        "gauss_sum_check",
        "zeta",
        "zeta_power",
    ),
    "hopf": (
        "cocommutativity_witness",
        "counit",
        "hopf_axiom_report",
        "quotient_to_sym",
    ),
    "partitions": (
        "Partition",
        "Tableau",
        "count_formula",
        "hook_length",
        "partition_count",
        "partitions_of",
        "row_consecutive_tableau",
        "standard_tableaux",
        "standard_tableaux_count",
        "young_symmetrizer",
    ),
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
