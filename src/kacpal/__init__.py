"""Exact-arithmetic classification for generalised Kac-Paljutkin algebras.

Realizes the algebra as the group algebra of the generalised symmetric
group (m-tuples of Z_n twists permuted by S_m), constructs the primitive
idempotents indexed by labelled partitions, and verifies every relation,
counting formula, dimension formula, and Hopf axiom by exact computation
over cyclotomic rationals.
"""

from .algebra import (
    AlgebraElement,
    lambda_idempotent,
    left_ideal_dimension,
    s_element,
    sandwich_dimension,
    verify_defining_relations,
    x_element,
    x_monomial,
    y_element,
    z_element,
)
from .classifier import (
    IrrepRecord,
    IrrepTable,
    LabelledPartition,
    count_formula,
    enumerate_labelled_partitions,
    idempotent_from_beta,
    irrep_dimension,
    irrep_table,
    lambda_from_beta,
)
from .cyclotomic import CycNumber, Rational, cyclotomic_polynomial, gauss_sum_check, zeta, zeta_power
from .hopf import (
    TensorElement,
    antipode,
    cocommutativity_witness,
    counit,
    delta,
    hopf_axiom_report,
    quotient_to_sym,
    tensor,
)
from .partitions import (
    Partition,
    SymFormalSum,
    Tableau,
    hook_length,
    partition_count,
    partitions_of,
    row_consecutive_tableau,
    standard_tableaux,
    standard_tableaux_count,
    young_symmetrizer,
)
from .wreath import (
    CapExceededError,
    Perm,
    WreathElement,
    conjugacy_class_count,
    generator_a,
    generator_b,
    group_order,
)

__version__ = "0.1.0"
