"""Behavioural (Verilog-A-style) PLL block models.

The paper's system-level example instantiates behavioural models of every
PLL block -- PFD, charge pump, loop filter, divider and the VCO carrying
the combined performance + variation table model -- and optimises the
system with NSGA-II.  The models here follow the same modelling approach
as reference [13] of the paper (Kundert's behavioural PLL models):

* :class:`~repro.behavioural.vco.BehaviouralVco` -- table-model driven VCO
  with nominal / minimum / maximum outputs and per-edge jitter injection,
* :class:`~repro.behavioural.pfd.PhaseFrequencyDetector`,
  :class:`~repro.behavioural.charge_pump.ChargePump`,
  :class:`~repro.behavioural.loop_filter.LoopFilter` and
  :class:`~repro.behavioural.divider.Divider` -- parameter holders that
  their ``*Lanes`` twins stack into lane arrays,
* :class:`~repro.behavioural.pll.BehaviouralPll` -- a cycle-by-cycle
  time-domain simulator measuring lock time, output jitter and supply
  current (figure 8 of the paper).  Its one cycle loop is the lane engine
  (``simulate_batch`` and friends), which advances N designs / variation
  samples through one numpy loop; a single loop is a batch of one, and
* :class:`~repro.behavioural.pll_linear.LinearPllAnalysis` -- the
  continuous-time small-signal loop analysis used for quick estimates and
  sanity checks.
"""

from repro.behavioural.charge_pump import ChargePump, ChargePumpLanes
from repro.behavioural.divider import Divider, DividerLanes
from repro.behavioural.jitter import (
    accumulated_jitter,
    jitter_sum,
    jitter_sum_lanes,
    period_jitter_from_phase_noise,
)
from repro.behavioural.loop_filter import LoopFilter, LoopFilterLanes, LoopFilterLanesState
from repro.behavioural.pfd import PfdLanes, PhaseErrorLanes, PhaseFrequencyDetector
from repro.behavioural.pll import (
    BehaviouralPll,
    PllBatchTransient,
    PllDesign,
    PllPerformance,
    PllTransient,
)
from repro.behavioural.pll_linear import LinearPllAnalysis, LoopDynamics
from repro.behavioural.vco import BehaviouralVco, VcoLanes, VcoVariationTables

__all__ = [
    "BehaviouralVco",
    "VcoLanes",
    "VcoVariationTables",
    "PhaseFrequencyDetector",
    "PfdLanes",
    "PhaseErrorLanes",
    "ChargePump",
    "ChargePumpLanes",
    "LoopFilter",
    "LoopFilterLanes",
    "LoopFilterLanesState",
    "Divider",
    "DividerLanes",
    "BehaviouralPll",
    "PllDesign",
    "PllPerformance",
    "PllTransient",
    "PllBatchTransient",
    "LinearPllAnalysis",
    "LoopDynamics",
    "jitter_sum",
    "jitter_sum_lanes",
    "accumulated_jitter",
    "period_jitter_from_phase_noise",
]
