"""Input model for a quasi-simple heteroclinic cycle.

A cycle is described purely by local data: per node, the magnitudes of the
contracting (c_j > 0) and expanding (e_j > 0) eigenvalues plus the list of
transverse eigenvalues (t_{j,s}, any sign); per connection, a permutation of
the local coordinate axes and optional positive rescaling constants.  Radial
eigenvalues may be recorded but play no role in the stability computation.

Validation checks finiteness (of every value and of the ratios c/e, -t/e),
the signs above, N >= 2, bijective permutations and the eigenvalue-count
shadow of quasi-simplicity (equal transverse counts at every node, simple
contracting/expanding pair).  Each check names the CycleValidationError
subclass that reports it; validate_cycle raises the class of the first
violation, and a non-finite value always gets the base class.  Whether the
data comes from an actual cycle of some vector field is the caller's
responsibility.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


class CycleValidationError(ValueError):
    """Base class for rejected cycle descriptions."""


class NonPositiveEigenvalue(CycleValidationError):
    """A contracting/expanding/radial magnitude was not strictly positive."""


class MismatchedTransverseCount(CycleValidationError):
    """Nodes disagree on the number of transverse eigenvalues."""


class InvalidPermutation(CycleValidationError):
    """A connection permutation is not a bijection on {0..N-1}."""


class NonPositiveScaling(CycleValidationError):
    """A connection scaling constant or contraction offset was <= 0."""


@dataclass(frozen=True)
class NodeSpec:
    """Eigenvalue data at one node.

    contracting and expanding are the *magnitudes* c_j, e_j (both > 0);
    transverse holds t_{j,s} with sign.  radial is metadata only.
    """

    contracting: float
    expanding: float
    transverse: tuple[float, ...]
    radial: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "transverse", tuple(float(t) for t in self.transverse))
        object.__setattr__(self, "radial", tuple(float(r) for r in self.radial))
        object.__setattr__(self, "contracting", float(self.contracting))
        object.__setattr__(self, "expanding", float(self.expanding))


@dataclass(frozen=True)
class ConnectionSpec:
    """Global-map data for the connection leaving one node.

    permutation encodes the axis permutation A_j as an index array p:
    row i of the transition matrix equals row p[i] of the unpermuted base
    matrix.  scalings are the a_{j,i} > 0 (default all 1); contraction_offset
    is the coefficient v_{0,j} > 0 of the incoming contracting coordinate.
    Neither scalings nor the offset influence stability indices; they only
    shift the affine part of the log-coordinate maps.
    """

    permutation: tuple[int, ...]
    scalings: tuple[float, ...] | None = None
    contraction_offset: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "permutation", tuple(int(i) for i in self.permutation))
        if self.scalings is not None:
            object.__setattr__(self, "scalings", tuple(float(a) for a in self.scalings))
        object.__setattr__(self, "contraction_offset", float(self.contraction_offset))


@dataclass(frozen=True)
class CycleSpec:
    """Unvalidated cycle description: m nodes, connection j leaves node j."""

    nodes: tuple[NodeSpec, ...]
    connections: tuple[ConnectionSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "connections", tuple(self.connections))


@dataclass(frozen=True)
class ValidatedCycle:
    """Validated handle with resolved defaults.

    m is the number of nodes, n_transverse the common transverse count and
    dimension N = n_transverse + 1 the size of the transition matrices.
    """

    nodes: tuple[NodeSpec, ...]
    connections: tuple[ConnectionSpec, ...]
    m: int = field(init=False)
    n_transverse: int = field(init=False)
    dimension: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", len(self.nodes))
        object.__setattr__(self, "n_transverse", len(self.nodes[0].transverse))
        object.__setattr__(self, "dimension", self.n_transverse + 1)


def find_violations(spec: CycleSpec) -> list[str]:
    """Collect every violation in spec as a human-readable message list."""
    return [message for _, message in _violations(spec)]


def _violations(spec: CycleSpec) -> list[tuple[type[CycleValidationError], str]]:
    """Every violation in spec, each with the exception class that reports it.

    Non-finite values are reported instead of any sign check on them, so NaN
    and inf get the base class whatever their sign.
    """
    problems: list[tuple[type[CycleValidationError], str]] = []
    if len(spec.nodes) < 1:
        problems.append((CycleValidationError, "cycle must contain at least one node"))
        return problems
    if len(spec.connections) != len(spec.nodes):
        problems.append((CycleValidationError,
                         f"expected one connection per node, got {len(spec.connections)} "
                         f"connections for {len(spec.nodes)} nodes"))

    n_t = len(spec.nodes[0].transverse)
    for j, node in enumerate(spec.nodes):
        if not all(map(math.isfinite, (node.contracting, node.expanding,
                                       *node.transverse, *node.radial))):
            problems.append((CycleValidationError,
                             f"node {j}: non-finite value among c, e, t and radial"))
        else:
            if not node.contracting > 0:
                problems.append((NonPositiveEigenvalue,
                                 f"node {j}: contracting eigenvalue magnitude must be > 0"))
            if not node.expanding > 0:
                problems.append((NonPositiveEigenvalue,
                                 f"node {j}: expanding eigenvalue must be > 0"))
            if any(not r > 0 for r in node.radial):
                problems.append((NonPositiveEigenvalue,
                                 f"node {j}: radial eigenvalue magnitudes must be > 0"))
            if node.expanding > 0 and not math.isfinite(
                max(map(abs, (node.contracting, *node.transverse))) / node.expanding
            ):
                # the largest |numerator| gives the largest of the ratios c/e, -t/e
                problems.append((CycleValidationError, f"node {j}: ratio c/e or -t/e overflows"))
        if len(node.transverse) != n_t:
            problems.append((MismatchedTransverseCount,
                             f"node {j}: transverse count {len(node.transverse)} != {n_t} at node 0"))
    if n_t < 1:
        problems.append((CycleValidationError,
                         "at least one transverse eigenvalue per node is required (N >= 2)"))

    dim = n_t + 1
    for j, conn in enumerate(spec.connections):
        if sorted(conn.permutation) != list(range(dim)):
            problems.append((InvalidPermutation,
                             f"connection {j}: permutation {list(conn.permutation)} is not a "
                             f"bijection on 0..{dim - 1}"))
        if conn.scalings is not None:
            if len(conn.scalings) != dim:
                problems.append((CycleValidationError, f"connection {j}: expected {dim} scalings"))
            if not all(map(math.isfinite, conn.scalings)):
                problems.append((CycleValidationError, f"connection {j}: non-finite scaling"))
            elif any(not a > 0 for a in conn.scalings):
                problems.append((NonPositiveScaling, f"connection {j}: scalings must be > 0"))
        if not math.isfinite(conn.contraction_offset):
            problems.append((CycleValidationError, f"connection {j}: non-finite v0"))
        elif not conn.contraction_offset > 0:
            problems.append((NonPositiveScaling, f"connection {j}: v0 must be > 0"))
    return problems


def validate_cycle(spec: CycleSpec) -> ValidatedCycle:
    """Validate spec, raising the class of its first violation.

    The message lists every violation.  Deterministic and side-effect free:
    validating twice yields the same result.  On success the returned handle
    has all scalings resolved (defaults filled in) and m >= 1, N >= 2, every
    value finite and c_j, e_j, a_{j,i} > 0.
    """
    problems = _violations(spec)
    if problems:
        raise problems[0][0]("; ".join(message for _, message in problems))

    dim = len(spec.nodes[0].transverse) + 1
    connections = tuple(
        ConnectionSpec(
            permutation=c.permutation,
            scalings=c.scalings if c.scalings is not None else (1.0,) * dim,
            contraction_offset=c.contraction_offset,
        )
        for c in spec.connections
    )
    return ValidatedCycle(nodes=spec.nodes, connections=connections)


# ---------------------------------------------------------------------------
# JSON document format
#
# {"nodes": [{"contracting": num, "expanding": num, "transverse": [num, ...],
#             "radial": [num, ...]?}, ...],
#  "connections": [{"permutation": [int, ...], "scalings": [num, ...]?,
#                   "v0": num?}, ...]}
# Indices are 0-based and key names are exact.
# ---------------------------------------------------------------------------


def cycle_from_dict(doc: dict) -> CycleSpec:
    """Build a CycleSpec from the JSON document layout."""
    try:
        nodes = tuple(
            NodeSpec(
                contracting=nd["contracting"],
                expanding=nd["expanding"],
                transverse=tuple(nd["transverse"]),
                radial=tuple(nd.get("radial", ())),
            )
            for nd in doc["nodes"]
        )
        connections = tuple(
            ConnectionSpec(
                permutation=tuple(cd["permutation"]),
                scalings=tuple(cd["scalings"]) if "scalings" in cd else None,
                contraction_offset=cd.get("v0", 1.0),
            )
            for cd in doc["connections"]
        )
    except (KeyError, TypeError) as exc:
        raise CycleValidationError(f"malformed cycle document: {exc}") from exc
    return CycleSpec(nodes=nodes, connections=connections)


def cycle_to_dict(spec: CycleSpec) -> dict:
    """Serialize a CycleSpec to the JSON document layout."""
    doc: dict = {"nodes": [], "connections": []}
    for node in spec.nodes:
        nd: dict = {
            "contracting": node.contracting,
            "expanding": node.expanding,
            "transverse": list(node.transverse),
        }
        if node.radial:
            nd["radial"] = list(node.radial)
        doc["nodes"].append(nd)
    for conn in spec.connections:
        cd: dict = {"permutation": list(conn.permutation)}
        if conn.scalings is not None:
            cd["scalings"] = list(conn.scalings)
        if conn.contraction_offset != 1.0:
            cd["v0"] = conn.contraction_offset
        doc["connections"].append(cd)
    return doc


def load_cycle(path: str) -> CycleSpec:
    """Read a cycle-spec JSON document from path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CycleValidationError(f"{path}: invalid JSON ({exc})") from exc
    return cycle_from_dict(doc)


def save_cycle(spec: CycleSpec, path: str) -> None:
    """Write a cycle-spec JSON document to path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cycle_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
