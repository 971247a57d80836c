"""Exact-arithmetic toolkit for repeated minors of totally positive matrices,
point-line/hyperplane incidences, and unit-area rectangle counts."""

from .exact import (
    RatMatrix,
    det,
    matrix_from_text,
    matrix_to_text,
    minor,
    rat,
    scale_to_unit,
    verify_tp,
    verify_tp_contiguous,
)
from .constructions import (
    CanonicalizationError,
    Hyperplane,
    IncidenceConfig,
    Line2,
    Point2,
    assemble_tp_2xn,
    canonicalize_config,
    check_constraints,
    config_to_json,
    elekes_config,
    grid_matrix,
    hyperplane_family,
    mate_point,
    points_from_json,
    power_sum_det_closed_form,
    power_sum_matrix,
)
from .counting import (
    count_minors_equal,
    grid_area_counts,
    max_repeated_minor,
    minor_census,
    mu,
    multiset_diff,
    multiset_prod,
    point_hyperplane_incidences,
    point_line_incidences,
    unit_rectangles,
)
from .analysis import (
    RunConfig,
    ScanReport,
    ScanRow,
    fit_power_law,
    scan_exponent,
    st_bound_check,
)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
