"""The paper's contribution: combined performance and variation modelling
for hierarchical optimisation.

The flow implemented here follows figure 4 of the paper:

1. **Netlist and objective-function generation** -- the VCO sizing problem
   (:class:`~repro.core.circuit_stage.VcoSizingProblem`) with the paper's
   designable parameters, bounds and five performance functions.
2. **Multi-objective optimisation** -- NSGA-II produces the circuit-level
   Pareto front (:class:`~repro.core.circuit_stage.CircuitLevelOptimisation`).
3. **Performance and variation modelling** -- every Pareto point receives a
   Monte Carlo analysis; the nominal performances become the
   :class:`~repro.core.performance_model.PerformanceModel` and the relative
   spreads become the :class:`~repro.core.variation_model.VariationModel`;
   both are bundled into a
   :class:`~repro.core.combined_model.CombinedPerformanceVariationModel`.
4. **Lookup-table model development** -- the combined model is written to
   ``.tbl`` data files (:mod:`repro.core.datafile`) and to Verilog-A text
   (:mod:`repro.core.codegen`), mirroring Listings 1 and 2.
5. **Hierarchical (system-level) optimisation** -- the behavioural PLL with
   the combined VCO model is optimised over (Kvco, Ivco, C1, C2, R1)
   (:class:`~repro.core.system_stage.SystemLevelOptimisation`), and a
   design meeting the specifications including variation is selected.
6. **Bottom-up verification and yield** -- the selected design is mapped
   back to transistor sizes, Monte Carlo verified and its parametric yield
   reported (:mod:`repro.core.yield_analysis`,
   :mod:`repro.core.verification`).

:class:`~repro.core.flow.HierarchicalFlow` chains all six steps.
"""

from repro.core.circuit_stage import CircuitLevelOptimisation, VcoSizingProblem
from repro.core.codegen import generate_listing1, generate_listing2, write_verilog_a
from repro.core.combined_model import CombinedPerformanceVariationModel
from repro.core.datafile import read_model_directory, write_model_directory
from repro.core.flow import FlowReport, HierarchicalFlow
from repro.core.performance_model import PerformanceModel
from repro.core.specification import Specification, SpecificationSet, PLL_SPECIFICATIONS
from repro.core.system_stage import PllSystemProblem, SystemLevelOptimisation
from repro.core.variation_model import VariationModel, VariationModelError
from repro.core.verification import BottomUpVerification, VerificationReport
from repro.core.yield_analysis import YieldAnalysis, YieldReport

__all__ = [
    "PerformanceModel",
    "VariationModel",
    "VariationModelError",
    "CombinedPerformanceVariationModel",
    "Specification",
    "SpecificationSet",
    "PLL_SPECIFICATIONS",
    "VcoSizingProblem",
    "CircuitLevelOptimisation",
    "PllSystemProblem",
    "SystemLevelOptimisation",
    "HierarchicalFlow",
    "FlowReport",
    "YieldAnalysis",
    "YieldReport",
    "BottomUpVerification",
    "VerificationReport",
    "write_model_directory",
    "read_model_directory",
    "generate_listing1",
    "generate_listing2",
    "write_verilog_a",
]
