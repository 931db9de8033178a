"""Circuit and element data model.

A :class:`Circuit` is an ordered collection of :class:`Element` instances
connected between named nodes.  The node name ``"0"`` (alias ``"gnd"``)
is the global reference and is never assigned an unknown.

An element is a name, its nodes and its parameters; ``n_branches`` is
the number of extra MNA branch-current unknowns it needs (voltage
sources, inductors and VCVS need one).  The lane engine's
:class:`~repro.spice.plan.CircuitPlan` turns the elements into stamps.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.spice.exceptions import NetlistError

__all__ = ["GROUND", "Element", "Circuit"]

#: Canonical name of the reference node.
GROUND = "0"

#: Accepted aliases for the reference node (case-insensitive).
_GROUND_ALIASES = {"0", "gnd", "ground", "vss!"}


def canonical_node(name: str) -> str:
    """Normalise a node name (ground aliases collapse to ``"0"``)."""
    text = str(name).strip()
    if not text:
        raise NetlistError("node names must be non-empty")
    if text.lower() in _GROUND_ALIASES:
        return GROUND
    return text


class Element:
    """Base class of every circuit element."""

    #: Number of additional branch-current unknowns required by the element.
    n_branches: int = 0

    def __init__(self, name: str, nodes: Sequence[str]) -> None:
        if not name:
            raise NetlistError("element names must be non-empty")
        self.name = str(name)
        self.nodes: Tuple[str, ...] = tuple(canonical_node(n) for n in nodes)
        if not self.nodes:
            raise NetlistError(f"element {self.name!r} must connect to at least one node")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, nodes={self.nodes})"


class Circuit:
    """An ordered, validated collection of circuit elements."""

    def __init__(self, title: str = "") -> None:
        self.title = title
        self._elements: List[Element] = []
        self._element_index: Dict[str, Element] = {}
        #: Cached (nodes, node_index, branch_index, n_branches) tuple;
        #: invalidated whenever the element list changes.
        self._topology: Optional[Tuple[List[str], Dict[str, int], Dict[str, int], int]] = None

    # -- construction -----------------------------------------------------------

    def add(self, element: Element) -> Element:
        """Add one element; element names must be unique within the circuit."""
        key = element.name.lower()
        if key in self._element_index:
            raise NetlistError(f"duplicate element name {element.name!r}")
        self._elements.append(element)
        self._element_index[key] = element
        self._topology = None
        return element

    def extend(self, elements: Iterable[Element]) -> None:
        """Add several elements."""
        for element in elements:
            self.add(element)

    def remove(self, name: str) -> None:
        """Remove the element called ``name``."""
        key = name.lower()
        element = self._element_index.pop(key, None)
        if element is None:
            raise NetlistError(f"no element named {name!r}")
        self._elements.remove(element)
        self._topology = None

    # -- lookup -----------------------------------------------------------------

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._element_index

    def element(self, name: str) -> Element:
        """Return the element called ``name`` (case-insensitive)."""
        try:
            return self._element_index[name.lower()]
        except KeyError as exc:
            raise NetlistError(f"no element named {name!r}") from exc

    def elements_of_type(self, element_type) -> List[Element]:
        """All elements that are instances of ``element_type``."""
        return [e for e in self._elements if isinstance(e, element_type)]

    @property
    def elements(self) -> List[Element]:
        """The elements in insertion order."""
        return list(self._elements)

    # -- node bookkeeping --------------------------------------------------------

    def _topology_maps(self) -> Tuple[List[str], Dict[str, int], Dict[str, int], int]:
        """Node list and index maps, built once and cached until the circuit
        changes (``add`` / ``remove`` invalidate)."""
        if self._topology is None:
            seen: Dict[str, None] = {}
            for element in self._elements:
                for node in element.nodes:
                    if node != GROUND and node not in seen:
                        seen[node] = None
            nodes = list(seen)
            node_index = {node: i for i, node in enumerate(nodes)}
            branch_index: Dict[str, int] = {}
            offset = len(nodes)
            for element in self._elements:
                if element.n_branches:
                    branch_index[element.name] = offset
                    offset += element.n_branches
            self._topology = (nodes, node_index, branch_index, offset - len(nodes))
        return self._topology

    @property
    def nodes(self) -> List[str]:
        """All non-ground node names in first-appearance order."""
        return list(self._topology_maps()[0])

    def node_index(self) -> Dict[str, int]:
        """Mapping from non-ground node name to unknown index.

        The returned dictionary is cached on the circuit; treat it as
        read-only.
        """
        return self._topology_maps()[1]

    @property
    def n_nodes(self) -> int:
        """Number of non-ground nodes."""
        return len(self._topology_maps()[0])

    @property
    def n_branches(self) -> int:
        """Total number of extra branch-current unknowns."""
        return self._topology_maps()[3]

    @property
    def n_unknowns(self) -> int:
        """Total size of the MNA unknown vector."""
        return self.n_nodes + self.n_branches

    def branch_index(self) -> Dict[str, int]:
        """Mapping from element name to its first branch-unknown index.

        The returned dictionary is cached on the circuit; treat it as
        read-only.
        """
        return self._topology_maps()[2]

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        """Check basic well-formedness of the circuit.

        Raises :class:`NetlistError` when the circuit is empty, has no
        ground reference, or contains a node touched by only one element
        terminal (a floating node that would make the MNA matrix singular).
        """
        if not self._elements:
            raise NetlistError("circuit contains no elements")
        touches_ground = any(GROUND in element.nodes for element in self._elements)
        if not touches_ground:
            raise NetlistError("circuit has no connection to the ground node '0'")
        terminal_counts: Dict[str, int] = {}
        for element in self._elements:
            for node in element.nodes:
                if node == GROUND:
                    continue
                terminal_counts[node] = terminal_counts.get(node, 0) + 1
        dangling = sorted(node for node, count in terminal_counts.items() if count < 2)
        if dangling:
            raise NetlistError(
                "floating node(s) with a single connection: " + ", ".join(dangling)
            )

    # -- convenience ---------------------------------------------------------------

    def copy(self, title: Optional[str] = None) -> "Circuit":
        """Shallow copy (elements are shared; the container is new)."""
        duplicate = Circuit(self.title if title is None else title)
        for element in self._elements:
            duplicate.add(element)
        return duplicate

    def summary(self) -> str:
        """Human-readable one-line-per-element description."""
        lines = [f"* {self.title or 'untitled circuit'}"]
        lines.append(f"* {len(self._elements)} elements, {self.n_nodes} nodes")
        for element in self._elements:
            lines.append(f"{element.name} " + " ".join(element.nodes))
        return "\n".join(lines)
