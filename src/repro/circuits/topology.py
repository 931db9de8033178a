"""The circuit-topology registry: the seam that makes the flow generic.

The paper's hierarchical methodology is circuit-agnostic -- the bottom-up
model build, the system-level NSGA-II and the yield verification are the
method; the ring VCO is only the demonstrator.  A
:class:`CircuitTopology` bundles everything the flow needs to know about
one circuit family:

* the design space (a frozen dataclass with ``as_dict`` / ``from_dict`` /
  ``parameter_names`` / ``optimisation_parameters`` / ``clamped``),
* factories for the analytical and transistor-level evaluators,
* the netlist builder and the mismatch device geometries,
* the stage-count constraint.

Everything in :mod:`repro.core` resolves topologies through this
registry (usually via :func:`topology_for_evaluator`) instead of
importing :mod:`repro.circuits.ring_vco` directly -- a lint test enforces
that.  Registering a new topology therefore threads a new circuit through
circuit optimisation, model build, system stage, yield analysis and
SPICE verification without touching the core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.circuits.evaluators import (
    RingVcoAnalyticalEvaluator,
    RingVcoSpiceEvaluator,
    VcoEvaluator,
)
from repro.circuits.pseudodiff import (
    PseudoDiffAnalyticalEvaluator,
    PseudoDiffSpiceEvaluator,
    PseudoDiffVcoDesign,
    build_pseudodiff_vco,
    pseudodiff_device_geometries,
)
from repro.circuits.ring_vco import (
    N_STAGES,
    VcoDesign,
    build_ring_vco,
    vco_device_geometries,
)
from repro.optim.problem import Parameter
from repro.process.technology import Technology

__all__ = [
    "CircuitTopology",
    "TOPOLOGIES",
    "DEFAULT_TOPOLOGY",
    "register_topology",
    "get_topology",
    "topology_names",
    "topology_for_evaluator",
    "topology_for_parameters",
    "design_from_parameters",
]

#: Registry key of the paper's demonstrator (and every scenario's default).
DEFAULT_TOPOLOGY = "ring-vco"


@dataclass(frozen=True)
class CircuitTopology:
    """Everything the hierarchical flow needs to know about one circuit.

    Parameters
    ----------
    name:
        Registry key (``ring-vco``, ``pseudodiff-vco``, ...).
    description:
        One-line human description (shown by ``repro list`` and the docs).
    design_cls:
        Frozen design-space dataclass.
    default_n_stages:
        Stage count used when a scenario or flow does not specify one.
    analytical_evaluator_factory:
        ``f(technology, n_stages) -> VcoEvaluator`` building the fast
        first-order evaluator driving optimisation and Monte Carlo.
    spice_evaluator_factory:
        ``f(technology, n_stages, n_workers) -> VcoEvaluator``
        building the transistor-level reference evaluator.
    device_geometries:
        ``f(design, n_stages)`` listing every matched transistor for the
        mismatch model.
    build_circuit:
        ``f(design, technology, vctrl, n_stages, ...)`` netlist builder.
    validate_n_stages:
        ``f(n_stages) -> None`` raising ``ValueError`` on an unsupported
        stage count.
    """

    name: str
    description: str
    design_cls: type
    default_n_stages: int
    analytical_evaluator_factory: Callable[..., VcoEvaluator]
    spice_evaluator_factory: Callable[..., VcoEvaluator]
    device_geometries: Callable[..., List[Any]]
    build_circuit: Callable[..., Any]
    validate_n_stages: Callable[[int], None] = field(default=lambda n_stages: None)

    # -- design-space helpers ------------------------------------------------------------

    def parameter_names(self) -> List[str]:
        """Designable parameter names, in declaration order."""
        return self.design_cls.parameter_names()

    def optimisation_parameters(self, technology: Technology) -> List[Parameter]:
        """Bounded optimisation parameters for the given technology."""
        return self.design_cls.optimisation_parameters(technology)

    def design_from_mapping(self, values: Mapping[str, float]) -> Any:
        """Build a design point from a parameter name -> value mapping."""
        return self.design_cls.from_dict(dict(values))

    def resolve_n_stages(self, n_stages: Optional[int]) -> int:
        """Validate an explicit stage count or fall back to the default."""
        resolved = self.default_n_stages if n_stages is None else int(n_stages)
        self.validate_n_stages(resolved)
        return resolved

    # -- evaluator factories -------------------------------------------------------------

    def analytical_evaluator(
        self, technology: Technology, n_stages: Optional[int] = None
    ) -> VcoEvaluator:
        """The fast analytical evaluator of this topology."""
        return self.analytical_evaluator_factory(
            technology, self.resolve_n_stages(n_stages)
        )

    def spice_evaluator(
        self,
        technology: Technology,
        n_stages: Optional[int] = None,
        n_workers: Optional[int] = None,
    ) -> VcoEvaluator:
        """The transistor-level reference evaluator of this topology."""
        return self.spice_evaluator_factory(
            technology, self.resolve_n_stages(n_stages), n_workers
        )

    # -- serialisation -------------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """JSON-compatible summary (used by docs and the service listing)."""
        return {
            "name": self.name,
            "description": self.description,
            "default_n_stages": self.default_n_stages,
            "parameters": self.parameter_names(),
        }


#: All registered topologies, keyed by name.
TOPOLOGIES: Dict[str, CircuitTopology] = {}


def register_topology(topology: CircuitTopology, overwrite: bool = False) -> CircuitTopology:
    """Add a topology to the registry and return it."""
    if not overwrite and topology.name in TOPOLOGIES:
        raise ValueError(f"topology {topology.name!r} is already registered")
    TOPOLOGIES[topology.name] = topology
    return topology


def get_topology(name: str) -> CircuitTopology:
    """Look up a registered topology by name.

    Raises
    ------
    KeyError
        With the list of known names if ``name`` is not registered.
    """
    try:
        return TOPOLOGIES[name]
    except KeyError:
        known = ", ".join(topology_names())
        raise KeyError(f"unknown topology {name!r}; registered topologies: {known}") from None


def topology_names() -> List[str]:
    """Names of all registered topologies, in registration order."""
    return list(TOPOLOGIES)


def topology_for_evaluator(evaluator: Any) -> CircuitTopology:
    """Resolve an evaluator instance back to its registered topology.

    Evaluators carry a ``topology_name`` class attribute; anything without
    one (e.g. a hand-rolled test double built around the ring design
    space) resolves to the default ring topology, which preserves the
    pre-seam behaviour.
    """
    return get_topology(getattr(evaluator, "topology_name", DEFAULT_TOPOLOGY))


def topology_for_parameters(parameter_names: Sequence[str]) -> CircuitTopology:
    """Resolve a design-parameter-name set back to its topology.

    The performance model stores only parameter names and arrays (its
    pickle format predates the topology seam), so recovering the topology
    dispatches on the *set* of names -- every registered topology has a
    distinct design space.
    """
    wanted = set(parameter_names)
    for topology in TOPOLOGIES.values():
        if set(topology.parameter_names()) == wanted:
            return topology
    raise KeyError(
        f"no registered topology has the design parameters {sorted(wanted)}"
    )


def design_from_parameters(
    parameter_names: Sequence[str], values: Mapping[str, float]
) -> Any:
    """Build a design point by matching a parameter-name set to a topology."""
    return topology_for_parameters(parameter_names).design_from_mapping(dict(values))


# -- built-in topologies ---------------------------------------------------------------


def _validate_ring_stages(n_stages: int) -> None:
    if n_stages < 3 or n_stages % 2 == 0:
        raise ValueError("n_stages must be an odd integer >= 3 (ring oscillator)")


def _validate_pseudodiff_stages(n_stages: int) -> None:
    if n_stages < 3 or n_stages % 2 == 0:
        raise ValueError(
            "n_stages must be an odd integer >= 3 (pseudo-differential ring pair)"
        )


def _ring_analytical(technology: Technology, n_stages: int) -> RingVcoAnalyticalEvaluator:
    return RingVcoAnalyticalEvaluator(technology, n_stages=n_stages)


def _ring_spice(
    technology: Technology, n_stages: int, n_workers: Optional[int]
) -> RingVcoSpiceEvaluator:
    return RingVcoSpiceEvaluator(technology, n_stages=n_stages, n_workers=n_workers)


def _pseudodiff_analytical(
    technology: Technology, n_stages: int
) -> PseudoDiffAnalyticalEvaluator:
    return PseudoDiffAnalyticalEvaluator(technology, n_stages=n_stages)


def _pseudodiff_spice(
    technology: Technology, n_stages: int, n_workers: Optional[int]
) -> PseudoDiffSpiceEvaluator:
    return PseudoDiffSpiceEvaluator(technology, n_stages=n_stages, n_workers=n_workers)


register_topology(
    CircuitTopology(
        name="ring-vco",
        description="Current-starved ring oscillator (the paper's figure-6 demonstrator)",
        design_cls=VcoDesign,
        default_n_stages=N_STAGES,
        analytical_evaluator_factory=_ring_analytical,
        spice_evaluator_factory=_ring_spice,
        device_geometries=vco_device_geometries,
        build_circuit=build_ring_vco,
        validate_n_stages=_validate_ring_stages,
    )
)

register_topology(
    CircuitTopology(
        name="pseudodiff-vco",
        description="Pseudo-differential multi-phase VCO (two anti-phase coupled rings)",
        design_cls=PseudoDiffVcoDesign,
        default_n_stages=N_STAGES,
        analytical_evaluator_factory=_pseudodiff_analytical,
        spice_evaluator_factory=_pseudodiff_spice,
        device_geometries=pseudodiff_device_geometries,
        build_circuit=build_pseudodiff_vco,
        validate_n_stages=_validate_pseudodiff_stages,
    )
)
