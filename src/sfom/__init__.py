"""Integral bases of number fields computed modulo composite integers.

The engine runs higher-order Newton polygon analysis in quotient-ring towers
over Z/NZ for a composite N; zero-divisor hits split N (or a tower modulus)
instead of failing, so the discriminant never needs to be factored.

The package root exports the library entry points and the exceptions they
document; everything else lives in its module (`sfom.basis`, ...).  The
oracle `p_maximal` loads `sfom.validate` on first use.
"""

from .artinalg import FactorEvent, NonExactDivision
from .basis import global_basis
from .intarith import discriminant
from .omprime import om_prime
from .sfom import ReducibleInput, sfom


def __getattr__(name):
    # looked up on every access, never stored here, so a later rebinding of
    # validate.p_maximal (a tracer wrapping it, say) is always the one seen
    if name == "p_maximal":
        from .validate import p_maximal
        return p_maximal
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
