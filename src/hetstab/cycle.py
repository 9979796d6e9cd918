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

A value that a caller gives as a real number is read by one rule, here and
in findex, oracle, rsp and transition: _real for a scalar and _reals for a
sequence.  An int, a float or a bool (numpy's too) is a real number, and an
int beyond double range reads as -inf or +inf, so the owner's finiteness or
range check rejects it; a string, bytes, a complex or None never is one, so
a string is never parsed and a complex never loses its imaginary part.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["NodeSpec", "ConnectionSpec", "CycleSpec", "ValidatedCycle", "validate_cycle",
           "load_cycle", "save_cycle", "cycle_from_dict", "cycle_to_dict", "CycleValidationError",
           "NonPositiveEigenvalue", "MismatchedTransverseCount", "InvalidPermutation",
           "NonPositiveScaling"]


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


REALS = (numbers.Real, np.bool_)    # the types of the number rule (_real)


def _real(value, name: str, error: type[ValueError] = ValueError) -> float:
    """value as a float when it is a real number (REALS), where an int beyond
    double range reads as -inf or +inf; error naming name otherwise."""
    if type(value) is float:            # without the slower ABC check
        return value
    if not isinstance(value, REALS):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _integer(value) -> bool:
    """Whether value is an integer: a Python or numpy int, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _reals(values, name: str, error: type[ValueError] = ValueError, keep: type = float) -> tuple:
    """values as a tuple of floats (_real), where an entry of type keep is
    kept as it is (with keep=int, any _integer as an exact int), and values
    itself when it is a tuple of such entries only; error naming name unless
    an iterable of real numbers that is not a string or bytes."""
    if type(values) is tuple:           # as cycle_from_dict gives them: no copy
        for v in values:
            if type(v) is not keep:
                break
        else:
            return values
    try:
        if isinstance(values, (str, bytes)):
            raise TypeError
        return tuple([v if type(v) is keep else int(v) if keep is int and _integer(v)
                      else _real(v, name) for v in values])
    except (TypeError, ValueError):
        raise error(f"{name} must be a sequence of numbers, got {values!r}") from None


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
        error = CycleValidationError
        object.__setattr__(self, "contracting", _real(self.contracting, "contracting", error))
        object.__setattr__(self, "expanding", _real(self.expanding, "expanding", error))
        object.__setattr__(self, "transverse", _reals(self.transverse, "transverse", error))
        object.__setattr__(self, "radial", _reals(self.radial, "radial", error))


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
        error = CycleValidationError
        # an integer stays exact and an integral float becomes an int; 1.9 or
        # NaN stays a float for validation to reject
        object.__setattr__(self, "permutation", tuple(
            [int(i) if type(i) is float and i.is_integer() else i
             for i in _reals(self.permutation, "permutation", error, keep=int)]))
        if self.scalings is not None:
            object.__setattr__(self, "scalings", _reals(self.scalings, "scalings", error))
        object.__setattr__(self, "contraction_offset", _real(self.contraction_offset, "v0", error))


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

    m is the number of nodes and dimension N, one more than the common
    transverse count, the size of the transition matrices.
    """

    nodes: tuple[NodeSpec, ...]
    connections: tuple[ConnectionSpec, ...]
    m: int = field(init=False)
    dimension: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", len(self.nodes))
        object.__setattr__(self, "dimension", len(self.nodes[0].transverse) + 1)


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
    connections = tuple(c if c.scalings is not None else replace(c, scalings=(1.0,) * dim)
                        for c in spec.connections)
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


def _number(value, key: str):
    """value when it is a number (an int or a float, numpy's too), not a
    bool or a string; TypeError naming key otherwise."""
    if type(value) in (float, int):     # what JSON gives, without the slower ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{key}: expected a number, got {value!r}")
    return value


def _listed(value, key: str, item=_number, item_key: str | None = None) -> tuple:
    """item(entry, item_key or key) of each entry of the list (or tuple)
    value, after one type check however long it is; TypeError naming key."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{key}: expected a list, got {value!r}")
    return tuple([item(v, item_key or key) for v in value])


def _dict(value, key: str) -> dict:
    """value when it is a dict; TypeError naming key otherwise."""
    if not isinstance(value, dict):
        raise TypeError(f"{key}: expected a dict, got {value!r}")
    return value


def cycle_from_dict(doc: dict) -> CycleSpec:
    """Build a CycleSpec from the JSON document layout; CycleValidationError
    when a key is missing or a value is not of its type."""
    try:
        doc = _dict(doc, "document")
        nodes = tuple(
            NodeSpec(
                contracting=_number(nd["contracting"], "contracting"),
                expanding=_number(nd["expanding"], "expanding"),
                transverse=_listed(nd["transverse"], "transverse"),
                radial=_listed(nd.get("radial", ()), "radial"),
            )
            for nd in _listed(doc["nodes"], "nodes", _dict, "node")
        )
        connections = tuple(
            ConnectionSpec(
                permutation=_listed(cd["permutation"], "permutation"),
                scalings=_listed(cd["scalings"], "scalings") if "scalings" in cd else None,
                contraction_offset=_number(cd.get("v0", 1.0), "v0"),
            )
            for cd in _listed(doc["connections"], "connections", _dict, "connection")
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
        except RecursionError:
            raise CycleValidationError(f"{path}: invalid JSON (nested too deeply)") from None
    return cycle_from_dict(doc)


def save_cycle(spec: CycleSpec, path: str) -> None:
    """Write a cycle-spec JSON document to path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cycle_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
