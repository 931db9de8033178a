"""repro -- reproduction of "Improved Performance and Variation Modelling
for Hierarchical-based Optimisation of Analogue Integrated Circuits"
(Ali, Ke, Wilcock, Wilson; DATE 2009).

The package is organised bottom-up:

* :mod:`repro.tablemodel` -- Verilog-A ``$table_model`` style look-up
  tables with spline interpolation and ``.tbl`` file I/O.
* :mod:`repro.optim` -- the NSGA-II multi-objective optimisation framework
  (non-dominated sorting, crowding distance, SBX, polynomial mutation,
  constraint domination) plus baselines and front-quality metrics.
* :mod:`repro.spice` -- a from-scratch MNA circuit simulator (DC and
  transient) with a compact MOSFET model, used as the transistor-level engine.
* :mod:`repro.process` -- the generic 0.12 um technology, process corners,
  global variation, Pelgrom mismatch and the Monte Carlo engine.
* :mod:`repro.circuits` -- the 5-stage current-starved ring-oscillator VCO:
  netlist generator, SPICE test bench and the calibrated analytical
  evaluator used inside the optimisation loop.
* :mod:`repro.behavioural` -- Kundert-style behavioural PLL blocks (PFD,
  charge pump, loop filter, divider, jitter-injecting VCO) and the
  time-domain / linear PLL analyses.
* :mod:`repro.core` -- the paper's contribution: performance model,
  variation model, combined model, hierarchical flow, yield analysis,
  bottom-up verification and Verilog-A code generation.
* :mod:`repro.experiments` -- the scenario registry, content-addressed
  artefact cache, resumable experiment runner and the ``repro`` CLI.

Quick start::

    from repro import HierarchicalFlow
    report = HierarchicalFlow().run()
    print(report.summary())

or, through the scenario layer (resumable, cached)::

    from repro.experiments import ExperimentRunner, get_scenario
    result = ExperimentRunner(get_scenario("fast-smoke")).run()
    print(result.summary())
"""

from repro.core.combined_model import CombinedPerformanceVariationModel
from repro.core.flow import FlowReport, HierarchicalFlow
from repro.core.performance_model import PerformanceModel
from repro.core.specification import PLL_SPECIFICATIONS, Specification, SpecificationSet
from repro.core.variation_model import VariationModel
from repro.experiments import ExperimentRunner, ScenarioConfig, get_scenario

#: Kept in sync with ``[project] version`` in pyproject.toml.
__version__ = "0.6.0"

__all__ = [
    "HierarchicalFlow",
    "FlowReport",
    "PerformanceModel",
    "VariationModel",
    "CombinedPerformanceVariationModel",
    "Specification",
    "SpecificationSet",
    "PLL_SPECIFICATIONS",
    "ScenarioConfig",
    "ExperimentRunner",
    "get_scenario",
    "__version__",
]
