"""Declarative scenario configurations for the hierarchical flow.

A :class:`ScenarioConfig` is a frozen value object describing one complete
experiment: which technology and specification set to use, the VCO ring
topology, the NSGA-II and Monte Carlo budgets of both stages, and the
seed.  Scenarios refer to technologies and specification sets by *registry
key* (:data:`repro.process.technology.TECHNOLOGIES`,
:data:`repro.core.specification.SPECIFICATION_SETS`) so they remain plain,
hashable, JSON-serialisable data -- which is what makes content-addressed
caching possible.

Two hashes matter:

* :meth:`ScenarioConfig.config_hash` covers every field that determines
  the *numbers* an experiment produces (seed, budgets, topology,
  technology, specifications).  Execution details -- the evaluation
  backend, the worker count, which optional stages to run -- are
  deliberately excluded: both backends are bit-identical by the project's
  enforced invariant, and optional stages are cached independently.  A
  ``serial`` rerun therefore resumes from a ``vectorised`` run's cache.
* Equality (``==``) compares *all* fields, as usual for dataclasses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Optional

from repro.circuits.topology import DEFAULT_TOPOLOGY, get_topology, topology_names
from repro.core.specification import SpecificationSet, specification_set
from repro.optim.evaluation import DEFAULT_EVALUATION, EVALUATOR_CHOICES
from repro.optim.nsga2 import NSGA2Config
from repro.process.corners import CornerSet, corner_set, corner_set_names
from repro.process.technology import Technology, technology

__all__ = ["ScenarioConfig", "HASH_EXCLUDED_FIELDS"]

#: Fields excluded from :meth:`ScenarioConfig.config_hash`: they change how
#: an experiment executes, never what it computes.
HASH_EXCLUDED_FIELDS = (
    "name",
    "description",
    "evaluation",
    "n_workers",
    "run_yield",
    "run_verification",
    "spice_engine",
)


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified experiment through the hierarchical flow.

    Parameters
    ----------
    name:
        Registry name of the scenario (``table2``, ``fast-smoke``, ...).
    description:
        One-line human description shown by ``repro list``.
    technology:
        Key into :data:`repro.process.technology.TECHNOLOGIES`.
    specifications:
        Key into :data:`repro.core.specification.SPECIFICATION_SETS`.
    n_stages:
        VCO ring length (odd, >= 3; the paper uses 5).
    circuit_population / circuit_generations:
        NSGA-II budget of the circuit-level stage (paper: 100 x 30).
    system_population / system_generations:
        NSGA-II budget of the system-level stage.
    mc_samples_per_point:
        Monte Carlo samples per Pareto point for the variation model
        (paper: 100).
    yield_samples:
        Monte Carlo samples of the final yield verification (paper: 500).
    max_model_points:
        Cap on the Pareto points carried into the combined model
        (``None`` keeps all).
    seed:
        Seed of every RNG stream in the flow.
    evaluation:
        How NSGA-II hands a population to the problem (``vectorised``, the
        default, or ``serial``); excluded from the config hash because both
        backends are bit-identical for a fixed seed.
    n_workers:
        Worker count of the SPICE evaluator's batch process pool.
    run_yield / run_verification:
        Which optional stages the runner executes.
    spice_engine:
        Retired: the SPICE layer has one engine, so ``"lanes"`` is the
        only legal value and nothing reads the field.  It is kept, and
        excluded from the config hash, only because the repository
        benchmark's ``spice-verify`` workload still passes
        ``spice_engine="lanes"``; the change to the benchmark that stops
        passing it deletes the field.  A stored job naming another engine
        fails as an unresolvable scenario.
    topology:
        Key into :data:`repro.circuits.topology.TOPOLOGIES` selecting the
        circuit family the flow optimises.  The default (``ring-vco``)
        hashes identically to scenarios that predate the field, so
        existing cache entries stay valid.
    corners:
        Name of a registered corner set
        (:data:`repro.process.corners.CORNER_SETS`) to sweep the circuit
        Pareto front across after the circuit stage; ``""`` (the default,
        hash-neutral) skips the sweep.
    """

    name: str
    description: str = ""
    technology: str = "generic012"
    specifications: str = "pll_system"
    n_stages: int = 5
    circuit_population: int = 40
    circuit_generations: int = 15
    system_population: int = 24
    system_generations: int = 10
    mc_samples_per_point: int = 100
    yield_samples: int = 500
    max_model_points: Optional[int] = 24
    seed: int = 2009
    evaluation: str = DEFAULT_EVALUATION
    n_workers: Optional[int] = None
    run_yield: bool = True
    run_verification: bool = False
    spice_engine: str = "lanes"
    topology: str = DEFAULT_TOPOLOGY
    corners: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")
        if self.topology not in topology_names():
            raise ValueError(
                f"topology must be one of {', '.join(topology_names())}; "
                f"got {self.topology!r}"
            )
        self.resolve_topology().validate_n_stages(self.n_stages)
        for field_name in (
            "circuit_population",
            "circuit_generations",
            "system_population",
            "system_generations",
            "mc_samples_per_point",
            "yield_samples",
        ):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be at least 1")
        if self.max_model_points is not None and self.max_model_points < 1:
            raise ValueError("max_model_points must be at least 1 (or None)")
        if (self.evaluation or DEFAULT_EVALUATION).lower() not in EVALUATOR_CHOICES:
            raise ValueError(
                f"evaluation must be one of {', '.join(EVALUATOR_CHOICES)}; "
                f"got {self.evaluation!r}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if self.spice_engine != "lanes":
            raise ValueError(f"spice_engine must be 'lanes'; got {self.spice_engine!r}")
        if self.corners and self.corners not in corner_set_names():
            raise ValueError(
                f"corners must be empty or one of {', '.join(corner_set_names())}; "
                f"got {self.corners!r}"
            )
        # Fail fast on unknown registry keys instead of at run time.
        self.resolve_technology()
        self.resolve_specifications()

    # -- registry resolution -------------------------------------------------------------

    def resolve_topology(self):
        """The :class:`~repro.circuits.topology.CircuitTopology` optimised."""
        return get_topology(self.topology)

    def resolve_corners(self) -> Optional[CornerSet]:
        """The swept :class:`~repro.process.corners.CornerSet`, if any."""
        return corner_set(self.corners) if self.corners else None

    def resolve_technology(self) -> Technology:
        """The :class:`~repro.process.technology.Technology` this scenario runs in."""
        return technology(self.technology)

    def resolve_specifications(self) -> SpecificationSet:
        """The system-level :class:`~repro.core.specification.SpecificationSet`."""
        return specification_set(self.specifications)

    # -- NSGA-II plumbing ----------------------------------------------------------------

    def circuit_nsga2_config(self) -> NSGA2Config:
        """NSGA-II configuration of the circuit-level stage."""
        return NSGA2Config(
            population_size=self.circuit_population,
            generations=self.circuit_generations,
            seed=self.seed,
            evaluator=self.evaluation,
        )

    def system_nsga2_config(self) -> NSGA2Config:
        """NSGA-II configuration of the system-level stage."""
        return NSGA2Config(
            population_size=self.system_population,
            generations=self.system_generations,
            seed=self.seed,
            evaluator=self.evaluation,
        )

    # -- serialisation / hashing ---------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """Serialise to a plain JSON-compatible dict (one entry per field)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, values: Dict[str, Any]) -> "ScenarioConfig":
        """Rebuild a scenario from :meth:`as_dict` output.

        Unknown keys raise ``KeyError`` so stale cache metadata written by
        a different version is detected instead of silently dropped.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise KeyError(f"unknown scenario field(s): {sorted(unknown)}")
        return cls(**values)

    def with_overrides(self, **overrides: Any) -> "ScenarioConfig":
        """A copy with the given fields replaced (validation re-runs).

        This is how the CLI applies ``--evaluation`` / ``--n-workers`` /
        ``--seed`` on top of a registered scenario.
        """
        return replace(self, **overrides)

    def hashed_fields(self) -> Dict[str, Any]:
        """The payload covered by :meth:`config_hash`.

        Contains every scenario field that determines results, plus the
        *resolved contents* behind the registry keys (the technology's
        model-card parameters, the specification windows) and the full
        NSGA-II configurations including their defaulted operator
        settings.  Hashing resolved contents -- not just the keys -- means
        that editing a registered specification set or technology card
        invalidates existing cache entries instead of silently serving
        results computed against the old definition.
        """
        payload: Dict[str, Any] = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in HASH_EXCLUDED_FIELDS
        }
        # The topology and corner fields postdate the original hash layout.
        # At their defaults they drop out of the payload entirely, so every
        # scenario written before the fields existed keeps its hash (the
        # golden-hash test pins this); any other value changes the results
        # and must change the hash.
        if self.topology == DEFAULT_TOPOLOGY:
            payload.pop("topology")
        if not self.corners:
            payload.pop("corners")
        else:
            payload["resolved_corners"] = [
                asdict(corner) for corner in self.resolve_corners()
            ]
        payload["resolved_technology"] = asdict(self.resolve_technology())
        payload["resolved_specifications"] = {
            spec.name: [spec.lower, spec.upper] for spec in self.resolve_specifications()
        }
        # Operator settings (crossover/mutation etas, probabilities) alter
        # the optimisation trajectory; the execution-detail fields do not.
        for key, config in (
            ("circuit_nsga2", self.circuit_nsga2_config()),
            ("system_nsga2", self.system_nsga2_config()),
        ):
            settings = config.as_dict()
            settings.pop("evaluator")
            payload[key] = settings
        return payload

    def config_hash(self) -> str:
        """Content hash of everything that determines the results.

        Returns
        -------
        str
            The first 16 hex digits of the SHA-256 over the canonical JSON
            serialisation of :meth:`hashed_fields`.  Two scenarios with
            equal hashes produce bit-identical artefacts (for any
            evaluation backend), so the hash is the cache key of the
            experiment runner.  Stable across processes and pickling --
            it depends only on field values and the resolved registry
            contents, never on object identity.
        """
        canonical = json.dumps(self.hashed_fields(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
