"""Exact-arithmetic toolkit for modular-function expansions on X(Gamma^0(11)),
unbounded-denominator certificates for roots of catalog functions, and the
rank-2 sublattice census of character groups."""

__version__ = "0.1.0"

from .exactnum import (
    INFINITY,
    NumberField,
    AlgebraicNumber,
    val_p,
    min_poly,
    newton_polygon_valuations,
    ord_at_unique_prime,
)
from .qseries import (
    EtaQuotient,
    LaurentSeries,
    deserialize_series,
    eta_quotient_expand,
    nth_root_normalized,
    serialize_series,
)
from .ellcurve import (
    CurveFunction,
    CurvePoint,
    WeierstrassCurve,
    division_polynomial,
    function_with_divisor,
    torsion_factors,
    verify_divisor,
)
from .x011 import (
    GroupCatalogEntry,
    build_catalog,
    catalog_export,
    expand_on_curve,
    expand_xy,
    g5_family,
    g5_series,
    torsion_point,
    x11_curve,
)
from .ubdetect import (UbdVerdict, GrowthProfile, analyze_catalog, detect,
                       detect_entry, growth_profile)
from .census import (
    LatticeTriple,
    CensusResult,
    enumerate_triples,
    s_count,
    ubd_lower_bound_experiment,
)
