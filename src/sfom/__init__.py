"""Integral bases of number fields computed modulo composite integers.

The engine runs higher-order Newton polygon analysis in quotient-ring towers
over Z/NZ for a composite N; zero-divisor hits split N (or a tower modulus)
instead of failing, so the discriminant never needs to be factored.
"""

from .artinalg import AlgebraTower, FactorEvent, NonExactDivision, PolyA
from .basis import (
    BasisElement,
    GlobalBasisResult,
    IntegerLattice,
    NeedsSquarefree,
    global_basis,
    hnf_merge,
    n_integral_basis,
    order_zero_basis,
    terminal_basis,
)
from .intarith import (
    coprime_splitting,
    discriminant,
    int_sfd,
    ord_n,
    resultant,
)
from .omprime import ff_factor, om_prime
from .sfom import ReducibleInput, SFOMRep, SplitOutcome, sfom
from .sftypes import (
    Expansion,
    NewtonPolygon,
    SFType,
    analyze,
    construct_with_residue,
    expand,
    lift_order_zero,
    newton,
    nu,
    ord_ty,
    r0,
    representative,
    residual_of,
    vr,
)
from .validate import (
    p_maximal,
    project_check,
    resultant_valuation_check,
    ring_closed,
    verify_report,
)
