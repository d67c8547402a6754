"""defectlab: exact-arithmetic laboratory for valued fields.

Cut algebra over exact rationals, truncated generalized power series in
equal and mixed characteristic, certified samples of v(a - K), and the
explicit transformations that manufacture pairwise-distinct families of
degree-p Artin-Schreier and Kummer extensions, with witness-carrying
certificates and search-free re-verification.
"""

from .approx import (
    InitialSegmentSample,
    TailSchema,
    distance,
    imperfection_witness,
    semitame_report,
    value_set,
)
from .artin import (
    Claims,
    ExtensionCert,
    SigmaSample,
    admissible_twist,
    as_extension,
    as_family,
    as_root,
    certify,
    sigma_sample,
    transform_inseparable,
)
from .cuts import (
    Cut,
    CutEnclosure,
    ExtRat,
    PLUS_INF,
    segment_affine,
)
from .fields import FieldDesc, enumerate_elements, preset_field
from .kummer import (
    kummer_family,
    lab_superdependent_unit,
    pth_power_difference_check,
    transform_mixed,
)
from .series import (
    Series,
    SeriesContext,
    invert,
    make_context,
    newton_root,
    pth_root,
    zeta_p,
)

__version__ = "0.1.0"
