"""Deviation and generalization bounds under censored feedback.

Subpackage map:

* :mod:`cfbounds.rng` / :mod:`cfbounds.stats` -- seeded sampling,
  theoretical and empirical CDFs, sup-deviation.
* :mod:`cfbounds.classic` -- classical IID baselines (DKW/GC/VC/Hoeffding
  forms and the multivariate constant).
* :mod:`cfbounds.censored` -- region-decomposed bounds for censored
  collection, their inverses, and monotonicity checks.
* :mod:`cfbounds.generalization` -- threshold-classifier risk, ERM
  threshold training and the assembled generalization bound.
* :mod:`cfbounds.simulate` -- the sequential admission process with
  bounded exploration and CSV score ingestion.
* :mod:`cfbounds.explore` -- exploration cost models and the
  benefit-minus-cost strategy optimizer.
* :mod:`cfbounds.planar` -- two-dimensional linear-boundary extension.
* :mod:`cfbounds.verify` -- Monte Carlo coverage harness.
* :mod:`cfbounds.presets` / :mod:`cfbounds.cli` -- canned experiment
  configurations and the command-line surface.
"""

from .classic import (
    BoundValue,
    dkw_bound,
    dkw_eta,
    gc_bound,
    hoeffding_bound,
    multivariate_dkw_bound,
    vc_bound,
)
from .censored import (
    MassSpec,
    RegionPartition,
    bound_three_region,
    bound_two_region,
    bound_two_region_apriori,
    censored_term,
    eta_for_confidence,
    partition,
)
from .explore import BoundContext, CostModel, cost_single, optimize_exploration
from .generalization import (
    GenBound,
    gen_bound_from_counts,
    optimal_threshold,
    threshold_risk,
)
from .planar import (
    Boundary2D,
    adjusted_cdf_empirical,
    bound_2d_three_region,
    bound_2d_two_region,
    partition_2d,
)
from .rng import SeededRng
from .simulate import (
    SimulationConfig,
    SimulationTrace,
    finalize,
    ingest_scores,
    run_arrivals,
    run_simulation,
    run_stage1,
)
from .stats import (
    EmpiricalCdf,
    GaussianCdf,
    MixtureModel,
    PiecewiseCdf,
    RestrictedCdf,
    StitchedCdf,
    sample_labeled,
    sup_deviation,
)
from .verify import CoverageReport, compare_bounds, mc_cdf_deviation, mc_gen_gap

__version__ = "0.1.0"
