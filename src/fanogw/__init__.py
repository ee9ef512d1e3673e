"""Exact genus-1 one-point Gromov-Witten invariants of Fano complete
intersections in projective space.  A row's `consistent` holds by
construction; the independent checks are type A's second route (in the
`a-double-residue` check), the type-B residue oracle (every b >= 1 at
every index; the check runs it where nu >= 2), the degree-1 vanishing
and the degree-0 Chern oracle, which shares no code with the degree-0
row."""

from .geometry import MultiDegree
from .hyper import FanoContext
from .invariants import (InvariantRow, chern_degree0_oracle, invariant_row,
                         invariant_table, reduced_invariant,
                         standard_invariant, svr_difference, type_a, type_b)
from .series import (BiSeries, LaurentPoly, QSeries, Rat, WindowUnderflow,
                     ZeroConstantTerm)
from .sums import SumValues, compute_sums, evaluate_conjectures, sums_by_degree
from .tables import CoeffTables

__all__ = [
    "BiSeries", "CoeffTables", "FanoContext", "InvariantRow", "LaurentPoly",
    "MultiDegree", "QSeries", "Rat", "SumValues", "WindowUnderflow",
    "ZeroConstantTerm", "chern_degree0_oracle", "compute_sums",
    "evaluate_conjectures", "invariant_row", "invariant_table",
    "reduced_invariant", "standard_invariant", "sums_by_degree",
    "svr_difference", "type_a", "type_b",
]
