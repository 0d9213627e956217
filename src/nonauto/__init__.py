"""Non-autonomous polynomial iteration toolkit.

Filled Julia sets of polynomial sequences, normalized Green potentials with
certified error bounds, logarithmic capacities, Klimek-metric diagnostics,
and raster reproduction of the associated figures.
"""

from .poly import (MagnitudeOverflow, Polynomial, ScaledComplex, chebyshev_minimal,
                   chebyshev_t, evaluate, evaluate_scaled, monomial, polynomial)
from .sequences import (CheckReport, DegreeLedger, PolySequence, SequenceError,
                        Witness, builtin, check_finite_condition, check_guided,
                        check_P2, custom_sequence, escape_radius_search,
                        load_sequence_file)
from .green import (CapacityEstimate, Disk, Ellipse, GreenValue, ModelSet,
                    Preimage, Segment, UNIT_DISK, capacity_estimate, escape_steps,
                    green_field, green_nonauto, orbit_bounded)
from .klimek import (ContractionResult, KlimekEstimate, TableRow, contraction_check,
                     convergence_table, gamma_models, gamma_nonauto, table_to_csv,
                     tail_constant)
from .render import (Raster, RasterSpec, pixel_axes, raster_green,
                     raster_membership, raster_rect_target, write_csv, write_pgm,
                     write_png)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
