"""One table per input rule, run through every entry point that takes the input.

Each rule has one owner in the package, so every entry point must reject a
bad input with the owner's exception type and message: never a numpy error,
a warning or an answer.
"""

import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hetstab import (
    Classification,
    ConnectionSpec,
    CycleSpec,
    CycleValidationError,
    DefectiveMatrix,
    EstimatorConfig,
    InvalidPermutation,
    NodeSpec,
    NonPositiveEigenvalue,
    NonPositiveInput,
    ParamOutOfRange,
    ProductOverflow,
    RspParams,
    as_basic_matrices,
    basic_matrix,
    classification_from_sigmas,
    classify,
    collect_alpha_vectors,
    cycle_from_dict,
    eigen_decompose,
    estimate_fplus_mc,
    estimate_sigma_mc,
    f_index,
    f_index_n3,
    f_minus,
    f_plus,
    full_return_matrix,
    load_cycle,
    in_delta_basin,
    matrix_basin_membership,
    partial_turn_matrix,
    rsp_compare,
    rsp_cycle_spec,
    rsp_matrices,
    save_cycle,
    sigma,
    validate_cycle,
    vmax_row,
)
import hetstab.cycle
import hetstab.oracle as oracle
import hetstab.transition
from hetstab.cli import main

NAN, INF = math.nan, math.inf
RAW = rsp_matrices(RspParams(-0.5, 0.2))                       # m = 2, N = 3
CYCLE = validate_cycle(rsp_cycle_spec(RspParams(-0.5, 0.2)))
TINY = EstimatorConfig(epsilon_ladder=(1e-15, 1e-16), samples_per_level=20)
POINT = (1e-3, 1e-3, 1e-3)


def node(c=1.0, e=1.0, t=(-0.5,), radial=()):
    return NodeSpec(contracting=c, expanding=e, transverse=t, radial=radial)


def two_nodes(nd, conn=ConnectionSpec((0, 1))):
    return CycleSpec(nodes=(nd, nd), connections=(conn, conn))


# ---------------------------------------------------------------------------
# Cycle spec: cycle._violations, raised by validate_cycle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    CycleSpec(nodes=(node(t=()),), connections=(ConnectionSpec((0,)),)),
    two_nodes(node(c=NAN)),
    two_nodes(node(e=NAN)),
    two_nodes(node(radial=(NAN,))),
    two_nodes(node(c=-INF)),
    two_nodes(node(), ConnectionSpec((0, 1), scalings=(1.0, NAN))),
    two_nodes(node(), ConnectionSpec((0, 1), scalings=(-INF, 1.0))),
    two_nodes(node(), ConnectionSpec((0, 1), contraction_offset=NAN)),
], ids=["N=1", "nan-c", "nan-e", "nan-radial", "-inf-c", "nan-scaling", "-inf-scaling",
        "nan-v0"])
def test_cycle_spec_rule_raises_the_base_class(spec):
    with pytest.raises(CycleValidationError) as exc:
        validate_cycle(spec)
    assert exc.type is CycleValidationError


def test_cycle_spec_rule_keeps_its_messages_and_types_the_first():
    spec = CycleSpec(
        nodes=(node(c=-1.0), node(t=(-0.5, 0.1))),
        connections=(ConnectionSpec((0, 0), scalings=(1.0, 0.0)),
                     ConnectionSpec((0, 1), contraction_offset=0.0)),
    )
    with pytest.raises(CycleValidationError) as exc:
        validate_cycle(spec)
    assert exc.type is NonPositiveEigenvalue
    assert str(exc.value).split("; ") == [
        "node 0: contracting eigenvalue magnitude must be > 0",
        "node 1: transverse count 2 != 1 at node 0",
        "connection 0: permutation [0, 0] is not a bijection on 0..1",
        "connection 0: scalings must be > 0",
        "connection 1: v0 must be > 0",
    ]


@pytest.mark.parametrize("spec,message", [
    (CycleSpec(nodes=(node(),) * 2, connections=(ConnectionSpec((1, 0)),)),
     "expected one connection per node, got 1 connections for 2 nodes"),
    (two_nodes(node(), ConnectionSpec((0, 1), scalings=(1.0, 2.0, 3.0))),
     "connection 0: expected 2 scalings; connection 1: expected 2 scalings"),
], ids=["connection-count", "scalings-length"])
def test_cycle_spec_rule_counts_connections_and_scalings(spec, message):
    with pytest.raises(CycleValidationError) as exc:
        validate_cycle(spec)
    assert exc.type is CycleValidationError and str(exc.value) == message


# ---------------------------------------------------------------------------
# Cycle document: cycle.cycle_from_dict takes numbers only, not strings or
# bools, where the JSON layout has a number
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key,value,bad", [
    ("contracting", "1.5", "1.5"), ("contracting", True, True), ("transverse", [False], False),
    ("radial", ["x"], "x"), ("permutation", [True, False], True), ("scalings", [1.0, "2"], "2"),
    ("v0", False, False), ("contracting", np.True_, np.True_),
])
def test_cycle_document_rule_rejects_strings_and_bools(key, value, bad):
    doc = {"nodes": [{"contracting": 1.0, "expanding": 1.0, "transverse": [-0.5]}],
           "connections": [{"permutation": [1, 0]}]}
    part = "nodes" if key in ("contracting", "transverse", "radial") else "connections"
    doc[part][0][key] = value
    message = f"^malformed cycle document: {key}: expected a number, got {re.escape(repr(bad))}$"
    with pytest.raises(CycleValidationError, match=message) as exc:
        cycle_from_dict(doc)
    assert exc.type is CycleValidationError


@pytest.mark.parametrize("number", [np.float64, np.int64, np.float32])
def test_cycle_document_rule_reads_numpy_numbers_as_plain_ones(number):
    # a numpy number skips the fast check of cycle._number for plain ints
    # and floats, and passes its numbers.Real one
    def document(number):
        return {"nodes": [{"contracting": number(2), "expanding": number(1),
                           "transverse": [number(-3)], "radial": [number(4)]}] * 2,
                "connections": [{"permutation": [1, 0], "scalings": [number(1), number(2)],
                                 "v0": number(1)}] * 2}

    spec, plain = cycle_from_dict(document(number)), cycle_from_dict(document(float))
    assert spec == cycle_from_dict(document(int)) == plain
    assert classify(validate_cycle(spec)) == classify(validate_cycle(plain))


def _document():
    return {"nodes": [{"contracting": 1.0, "expanding": 1.0, "transverse": [-0.5]}],
            "connections": [{"permutation": [1, 0]}]}


@pytest.mark.parametrize("path,value,key,kind", [
    (("nodes", 0, "transverse"), "ab", "transverse", "list"),
    (("nodes", 0, "transverse"), 5, "transverse", "list"),
    (("nodes", 0, "radial"), 3, "radial", "list"),
    (("connections", 0, "permutation"), "10", "permutation", "list"),
    (("connections", 0, "scalings"), 2.0, "scalings", "list"),
    (("nodes",), "ab", "nodes", "list"),
    (("connections",), 7, "connections", "list"),
    (("nodes", 0), 5, "node", "dict"),
    (("connections", 0), [1, 0], "connection", "dict"),
    ((), [], "document", "dict"),
])
def test_cycle_document_rule_wants_lists_and_dicts(path, value, key, kind):
    doc = _document()
    if path:
        *head, last = path
        target = doc
        for part in head:
            target = target[part]
        target[last] = value
    else:
        doc = value
    message = f"^malformed cycle document: {key}: expected a {kind}, got {re.escape(repr(value))}$"
    with pytest.raises(CycleValidationError, match=message) as exc:
        cycle_from_dict(doc)
    assert exc.type is CycleValidationError


@pytest.mark.parametrize("path,value,message", [
    (("nodes", 0, "contracting"), 10**400, "node 0: non-finite value among c, e, t and radial"),
    (("nodes", 0, "transverse"), [-(10**400)], "node 0: non-finite value among c, e, t and radial"),
    (("nodes", 0, "radial"), [10**400], "node 0: non-finite value among c, e, t and radial"),
    (("connections", 0, "scalings"), [1.0, 10**400], "connection 0: non-finite scaling"),
    (("connections", 0, "v0"), 10**400, "connection 0: non-finite v0"),
], ids=["contracting", "transverse", "radial", "scalings", "v0"])
def test_cycle_document_rule_rejects_ints_beyond_double_range(path, value, message):
    # the number rule reads 10**400 as inf, which validation rejects as
    # non-finite, not the OverflowError of float(10**400)
    doc = _document()
    doc[path[0]][path[1]][path[2]] = value
    with pytest.raises(CycleValidationError, match=f"^{message}$") as exc:
        validate_cycle(cycle_from_dict(doc))
    assert exc.type is CycleValidationError


def test_cycle_document_rule_accepts_tuples_for_lists():
    doc = _document()
    doc["nodes"][0]["radial"] = [2.0]
    doc["connections"][0]["scalings"] = [1.0, 2.0]
    as_tuples = {"nodes": ({**doc["nodes"][0], "transverse": (-0.5,), "radial": (2.0,)},),
                 "connections": ({"permutation": (1, 0), "scalings": (1.0, 2.0)},)}
    assert cycle_from_dict(as_tuples) == cycle_from_dict(doc)


# ---------------------------------------------------------------------------
# Permutation entries: ConnectionSpec makes integral entries ints, and
# cycle._violations rejects every other entry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("perm,shown", [
    ((1.9, 0.2), "[1.9, 0.2]"),
    ((1, 0.5), "[1, 0.5]"),
    ((NAN, 0.0), "[nan, 0]"),
    ((INF, 0.0), "[inf, 0]"),
], ids=["fractions", "one-fraction", "nan", "inf"])
def test_permutation_rule_rejects_non_integral_entries(perm, shown):
    message = f"^connection 0: permutation {re.escape(shown)} is not a bijection on 0..1"
    with pytest.raises(InvalidPermutation, match=message):
        validate_cycle(two_nodes(node(), ConnectionSpec(perm)))
    doc = {"nodes": [{"contracting": 1.0, "expanding": 1.0, "transverse": [-0.5]}] * 2,
           "connections": [{"permutation": list(perm)}] * 2}
    with pytest.raises(InvalidPermutation, match=message):
        validate_cycle(cycle_from_dict(doc))


@pytest.mark.parametrize("entry", [2**62 + 1, np.int64(2**62 + 1), np.uint64(2**62 + 1)],
                         ids=["int", "numpy-int", "numpy-uint"])
def test_permutation_rule_shows_an_integer_entry_exactly(entry):
    # 2^62 + 1 is no double: read through float it would show ...904
    spec = two_nodes(node(), ConnectionSpec((entry, 0)))
    assert spec.connections[0].permutation == (2**62 + 1, 0)
    message = "connection 0: permutation [4611686018427387905, 0] is not a bijection on 0..1"
    with pytest.raises(InvalidPermutation, match=f"^{re.escape(message)}"):
        validate_cycle(spec)


@pytest.mark.parametrize("perm", [
    (1.0, 0.0), (np.int64(1), np.int32(0)), tuple(np.arange(2)[::-1]),
], ids=["integral-floats", "numpy-ints", "numpy-array"])
def test_permutation_rule_accepts_integral_entries(perm, tmp_path):
    spec = two_nodes(node(), ConnectionSpec(perm))
    assert [type(i) for i in spec.connections[0].permutation] == [int, int]
    save_cycle(spec, str(tmp_path / "c.json"))
    assert validate_cycle(load_cycle(str(tmp_path / "c.json"))) == validate_cycle(spec)
    assert validate_cycle(spec).connections[0].permutation == (1, 0)


# ---------------------------------------------------------------------------
# Node index: transition._node_index
# ---------------------------------------------------------------------------


NODE_ENTRY_POINTS = {
    "basic_matrix": lambda j: basic_matrix(CYCLE, j),
    "full_return_matrix": lambda j: full_return_matrix(RAW, j),
    "partial_turn_matrix-l": lambda j: partial_turn_matrix(RAW, j, 0),
    "partial_turn_matrix-j": lambda j: partial_turn_matrix(RAW, 0, j),
    "sigma": lambda j: sigma(RAW, j),
    "collect_alpha_vectors": lambda j: collect_alpha_vectors(RAW, j),
    "estimate_sigma_mc": lambda j: estimate_sigma_mc(RAW, j, TINY),
    "in_delta_basin": lambda j: in_delta_basin(RAW, j, POINT, TINY),
}


NOT_INTEGERS = [1.0, np.float64(1.0), 0.5, "1", True]


@pytest.mark.parametrize("j", [2, -1] + [
    pytest.param(j, id=f"{type(j).__name__}-{j}") for j in NOT_INTEGERS])
@pytest.mark.parametrize("entry", sorted(NODE_ENTRY_POINTS))
def test_node_index_rule(entry, j):
    message = (f"^node index {j} out of range for m=2$" if type(j) is int
               else f"^node index must be an integer, got {re.escape(repr(j))}$")
    with pytest.raises(IndexError, match=message) as exc:
        NODE_ENTRY_POINTS[entry](j)
    assert exc.type is IndexError


@pytest.mark.parametrize("entry", sorted(NODE_ENTRY_POINTS))
def test_node_index_rule_accepts_numpy_integers(entry):
    assert repr(NODE_ENTRY_POINTS[entry](np.int64(1))) == repr(NODE_ENTRY_POINTS[entry](1))
    assert type(hetstab.transition._node_index(np.int32(1), 2)) is int


# ---------------------------------------------------------------------------
# Matrix: transition._entries
# ---------------------------------------------------------------------------


MATRIX_ENTRY_POINTS = {
    "as_basic_matrices": lambda M: as_basic_matrices([M, M]),
    "classify": lambda M: classify([M, M]),
    "eigen_decompose": eigen_decompose,
    "vmax_row": vmax_row,
    "matrix_basin_membership": lambda M: matrix_basin_membership(M, (-1.0, -1.0)),
}
NOT_A_MATRIX = "^expected a finite square matrix"
# transition._floats comes first: integer, float and bool entries, also as
# Python numbers in an object array, are read as floats, while a complex
# entry never loses its imaginary part and a string is never parsed
BAD_MATRICES = {
    "nan": ([[2.0, NAN], [0.0, 2.0]], NOT_A_MATRIX),
    "inf": ([[2.0, 0.0], [INF, 2.0]], NOT_A_MATRIX),
    "2x3": ([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]], NOT_A_MATRIX),
    "vector": ([2.0, 2.0], NOT_A_MATRIX),
    "0x0": (np.zeros((0, 0)), NOT_A_MATRIX),
    "complex-array": (np.array([[2.0, 0.0], [0.0, 2.0 + 1e-3j]]),
                      "^expected real numbers, got complex128 entries$"),
    "complex-entry": ([[2.0, 0.0], [0.0, 2j]], "^expected real numbers, got complex128 entries$"),
    "string-entry": ([[2.0, 0.0], [0.0, "2"]], "^expected real numbers, got str_ entries$"),
    "string-object": (np.array([[2.0, 0.0], [0.0, "2"]], dtype=object),
                      "^expected real numbers, got str entries$"),
    "complex-object": (np.array([[2.0, 0.0], [0.0, 2j]], dtype=object),
                       "^expected real numbers, got complex entries$"),
}


@pytest.mark.parametrize("bad", sorted(BAD_MATRICES))
@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRY_POINTS))
def test_matrix_rule(entry, bad):
    matrix, message = BAD_MATRICES[bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message) as exc:
            MATRIX_ENTRY_POINTS[entry](matrix)
    assert exc.type is ValueError


@pytest.mark.parametrize("matrix", [
    np.array([[2, 0], [-1, 1]]), np.array([[2, 0], [-1, 1]], dtype=np.int8),
    [[2, False], [-1, True]], np.array([[2, 0], [-1, 1]], dtype=object),
], ids=["int", "int8", "bool", "object"])
@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRY_POINTS))
def test_matrix_rule_accepts_integers_and_bools(entry, matrix):
    floats = [[2.0, 0.0], [-1.0, 1.0]]
    assert repr(MATRIX_ENTRY_POINTS[entry](matrix)) == repr(MATRIX_ENTRY_POINTS[entry](floats))


# ---------------------------------------------------------------------------
# Direction vector: findex._components
# ---------------------------------------------------------------------------


ALPHA_ENTRY_POINTS = {
    "f_plus": f_plus,
    "f_minus": f_minus,
    "f_index": f_index,
    "f_index_n3": lambda a: f_index_n3(*a),
    "estimate_fplus_mc": lambda a: estimate_fplus_mc(a, (1e-1, 1e-2), 100, seed=0),
}


@pytest.mark.parametrize("alpha", [(1.0, NAN, 0.0), (-INF, 1.0, 1.0), (INF, 0.0, 0.0)],
                         ids=["nan", "-inf", "inf"])
@pytest.mark.parametrize("entry", sorted(ALPHA_ENTRY_POINTS))
def test_direction_vector_rule(entry, alpha):
    with pytest.raises(ValueError, match="^direction vector components must be finite$") as exc:
        ALPHA_ENTRY_POINTS[entry](alpha)
    assert exc.type is ValueError


@pytest.mark.parametrize("alpha", ["12", None, 3.0, ((1.0, -2.0), (0.5, 1.0)), (1.0, -1j)],
                         ids=["string", "none", "scalar", "nested", "complex"])
@pytest.mark.parametrize("entry", sorted(set(ALPHA_ENTRY_POINTS) - {"f_index_n3"}))
def test_direction_vector_rule_rejects_what_is_not_a_sequence_of_numbers(entry, alpha):
    # a ValueError that names the direction vector, neither a TypeError nor an
    # answer for the characters of a string
    with pytest.raises(ValueError, match="^direction vector must be a sequence of numbers, got ") \
            as exc:
        ALPHA_ENTRY_POINTS[entry](alpha)
    assert exc.type is ValueError


@pytest.mark.parametrize("alpha", [(1e308, 1e308, -1.0), (1e308, -1e308, 1.0),
                                   (-1e308, -1e308, 1.0), (1e308, 1e308, -1e300)],
                         ids=["sum-overflows", "sum-finite", "negative-sum-overflows", "finite-index"])
@pytest.mark.parametrize("entry", sorted(ALPHA_ENTRY_POINTS))
def test_direction_vector_rule_accepts_huge_components(entry, alpha):
    # every index is homogeneous of degree 0, so alpha / 2**20 has the same
    # value, and the estimator the same level fractions; an overflowing sum
    # is no error and no warning
    small = tuple(a / 2**20 for a in alpha)
    got, want = ALPHA_ENTRY_POINTS[entry](alpha), ALPHA_ENTRY_POINTS[entry](small)
    if entry == "estimate_fplus_mc":
        got, want = got.levels, want.levels
    assert got == want


# ---------------------------------------------------------------------------
# Ladder: oracle._ladder
# ---------------------------------------------------------------------------


LADDER_ENTRY_POINTS = {
    "EstimatorConfig": lambda lad: EstimatorConfig(epsilon_ladder=lad),
    "estimate_fplus_mc": lambda lad: estimate_fplus_mc((-1.0, 1.0), lad, 100, seed=0),
}


@pytest.mark.parametrize("ladder", [(), (INF, 1e-3), (1e-3, NAN), (1e-3, -1e-4)],
                         ids=["empty", "inf", "nan", "negative"])
@pytest.mark.parametrize("entry", sorted(LADDER_ENTRY_POINTS))
def test_ladder_rule(entry, ladder):
    with pytest.raises(ValueError, match="^epsilon ladder must be non-empty, finite and positive$"):
        LADDER_ENTRY_POINTS[entry](ladder)


@pytest.mark.parametrize("ladder", [None, 1e-3, np.float64(1e-3), (1e-3, 1e-4j), "0.001", "21"],
                         ids=["none", "scalar", "numpy-scalar", "complex", "string", "digits"])
@pytest.mark.parametrize("entry", sorted(LADDER_ENTRY_POINTS))
def test_ladder_rule_rejects_what_is_not_a_sequence_of_numbers(entry, ladder):
    # a ValueError that names the ladder, not a TypeError from iterating it
    with pytest.raises(ValueError, match="^epsilon ladder must be a sequence of numbers, got "):
        LADDER_ENTRY_POINTS[entry](ladder)


# each pair is one ulp apart with the same math.log, so a fit over them would
# divide 0 by 0
SHARED_LOGS = [(1e-15, 9.999999999999999e-16), (1e-3, 0.0009999999999999998)]


@pytest.mark.parametrize("ladder", SHARED_LOGS, ids=["1e-15", "1e-3"])
@pytest.mark.parametrize("entry", sorted(LADDER_ENTRY_POINTS))
def test_ladder_rule_wants_ln_eps_strictly_decreasing(entry, ladder):
    assert ladder[0] > ladder[1] and math.log(ladder[0]) == math.log(ladder[1])
    with pytest.raises(ValueError, match="^epsilon ladder must be strictly decreasing$"):
        LADDER_ENTRY_POINTS[entry](ladder)


def test_every_level_has_a_log_below_ln_delta():
    # one ulp below delta, a level whose log is ln(delta) is rejected; two
    # ulps below 1e-3, the log is smaller and the level is taken
    level = math.nextafter(1e-300, 0.0)
    assert math.log(level) == math.log(1e-300)
    with pytest.raises(ValueError, match="^every ladder level must be < delta$"):
        EstimatorConfig(delta=1e-300, epsilon_ladder=(level,))
    level = math.nextafter(math.nextafter(1e-3, 0.0), 0.0)
    assert math.log(level) < math.log(1e-3)
    assert EstimatorConfig(delta=1e-3, epsilon_ladder=(level,)).epsilon_ladder == (level,)


@settings(max_examples=300, deadline=None)
@given(delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       ulps=st.integers(1, 6),
       decades=st.lists(st.floats(0.0, 300.0), max_size=3),
       dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_every_sample_of_an_accepted_config_starts_inside_the_tube(delta, ulps, decades, dim,
                                                                   seed):
    # a level a few ulps below delta, and deeper ones: wherever the config
    # takes them, every row of the log cube, the extreme uniforms 0 and
    # 1 - 2^-53 included, lies strictly below ln(delta)
    top = delta
    for _ in range(ulps):
        top = math.nextafter(top, 0.0)
    ladder = [top, *sorted({delta * 10.0 ** -d for d in decades}, reverse=True)]
    try:
        cfg = EstimatorConfig(delta=delta, epsilon_ladder=ladder)
    except ValueError:
        assume(False)
    rng = np.random.default_rng(seed)
    for eps in cfg.epsilon_ladder:
        block = np.concatenate([rng.random((64, dim)), np.zeros((1, dim)),
                                np.full((1, dim), 1.0 - 2.0**-53)])
        assert (oracle._sample_log_cube(block, eps) < math.log(cfg.delta)).all()


@pytest.mark.parametrize("delta", [None, "0.01", 0.01j, (0.01,)],
                         ids=["none", "string", "complex", "tuple"])
def test_delta_rule_rejects_what_is_not_a_real_number(delta):
    # a ValueError that names delta, not a TypeError from comparing it
    with pytest.raises(ValueError, match=r"^delta must be a real number in \(0, 1\), got "):
        EstimatorConfig(delta=delta)


def test_delta_rule_accepts_numpy_reals():
    assert EstimatorConfig(delta=np.float64(0.01)).delta == 0.01
    assert EstimatorConfig(delta=np.float32(0.25)).delta == np.float32(0.25)


def test_delta_rule_stores_a_float():
    assert EstimatorConfig(delta=Fraction(1, 100)) == EstimatorConfig(delta=0.01)
    assert type(EstimatorConfig(delta=np.float32(0.25)).delta) is float


# ---------------------------------------------------------------------------
# Sampling plan: oracle._whole, an integer (not a bool, numpy ints allowed)
# at or above its least value
# ---------------------------------------------------------------------------


PLAN_ENTRY_POINTS = {
    "estimate_sigma_mc": lambda samples=20, turns=200, seed=0: estimate_sigma_mc(
        RAW, 0, EstimatorConfig(epsilon_ladder=(1e-40, 1e-50), samples_per_level=samples,
                                max_full_turns=turns, seed=seed)),
    "estimate_fplus_mc": lambda samples=100, seed=0: estimate_fplus_mc(
        (1.0, 1.0, 1.0), (1e-1, 1e-2), samples, seed),
}
PLAN_NAMES = {"estimate_sigma_mc": {"samples": "samples_per_level", "turns": "max_full_turns"},
              "estimate_fplus_mc": {}}
BAD_PLANS = {
    "seed-negative": ("seed", -1, 0),
    "seed-numpy-negative": ("seed", np.int64(-1), 0),
    "seed-fraction": ("seed", 1.5, 0),
    "seed-bool": ("seed", True, 0),
    "seed-string": ("seed", "0", 0),
    "samples-zero": ("samples", 0, 1),
    "samples-fraction": ("samples", 2.5, 1),
    "samples-bool": ("samples", True, 1),
    "turns-three": ("turns", 3, 4),
    "turns-fraction": ("turns", 10.5, 4),
}


@pytest.mark.parametrize("entry,bad", [
    (entry, bad) for entry in sorted(PLAN_ENTRY_POINTS) for bad in sorted(BAD_PLANS)
    if entry == "estimate_sigma_mc" or not bad.startswith("turns")   # F+ has no turn budget
])
def test_sampling_plan_rule(entry, bad):
    key, value, least = BAD_PLANS[bad]
    name = PLAN_NAMES[entry].get(key, key)
    message = f"^{name} must be an integer >= {least}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message) as exc:
        PLAN_ENTRY_POINTS[entry](**{key: value})
    assert exc.type is ValueError


@pytest.mark.parametrize("entry", sorted(PLAN_ENTRY_POINTS))
def test_sampling_plan_rule_accepts_numpy_integers(entry):
    assert PLAN_ENTRY_POINTS[entry](samples=np.int32(20), seed=np.int64(3)) == \
        PLAN_ENTRY_POINTS[entry](samples=20, seed=3)


@pytest.mark.parametrize("samples", [2**63, np.uint64(2**63), 2**200])
def test_fplus_samples_stay_below_two_to_the_63(samples):
    # the binomial draws of estimate_fplus_mc take a C long; 2^63 rows would
    # otherwise raise a bare OverflowError, or stream about 2^49 blocks
    message = f"^samples must be an integer < {2**63}, got {re.escape(repr(samples))}$"
    with pytest.raises(ValueError, match=message) as exc:
        estimate_fplus_mc((-1.0, 1.0, 1.0), (1e-1, 1e-2), samples, seed=0)
    assert exc.type is ValueError


def test_fplus_takes_the_largest_sample_count(monkeypatch):
    # 2^63 - 1 rows: a level certified whole draws nothing, and one whose
    # tested column fails about 1e-15 of the rows draws about 9000
    monkeypatch.setattr(oracle, "_side", lambda levels, complement: (0.0, None))
    whole = estimate_fplus_mc((1.0, 1.0, 1.0), (1e-1, 1e-2), 2**63 - 1, seed=0)
    deep = estimate_fplus_mc((-1.0, 1.0, 1.0), (math.exp(-38.0),), 2**63 - 1, seed=0)
    assert [lev.sigma_frac for lev in whole.levels + deep.levels] == [1.0, 1.0, 1.0]


def test_sampling_plan_rule_stores_python_ints():
    plan = EstimatorConfig(samples_per_level=np.int32(20), max_full_turns=np.int64(8),
                           seed=np.uint8(3))
    assert plan == EstimatorConfig(samples_per_level=20, max_full_turns=8, seed=3)
    assert {type(plan.samples_per_level), type(plan.max_full_turns), type(plan.seed)} == {int}


# ---------------------------------------------------------------------------
# Point: oracle._log_point
# ---------------------------------------------------------------------------


POINT_ENTRY_POINTS = {
    "in_delta_basin": lambda x: in_delta_basin(RAW, 0, x, TINY),
}


@pytest.mark.parametrize("x,kind,message", [
    ((1e-3, 1e-3), ValueError, r"^point has wrong shape \(2,\) for dimension 3$"),
    ((1e-3,) * 4, ValueError, r"^point has wrong shape \(4,\) for dimension 3$"),
    (((1e-3,) * 3,), ValueError, r"^point has wrong shape \(1, 3\) for dimension 3$"),
    ((1e-3, NAN, 1e-3), NonPositiveInput, "^point must have finite"),
    ((1e-3, INF, 1e-3), NonPositiveInput, "^point must have finite"),
    ((1e-3, 0.0, 1e-3), NonPositiveInput, "^point must have finite"),
    ((1e-3, -1e-3, 1e-3), NonPositiveInput, "^point must have finite"),
], ids=["short", "long", "2-d", "nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("entry", sorted(POINT_ENTRY_POINTS))
def test_point_rule(entry, x, kind, message):
    with pytest.raises(ValueError, match=message) as exc:
        POINT_ENTRY_POINTS[entry](x)
    assert exc.type is kind


@pytest.mark.parametrize("y,shape", [((-1.0, -1.0), "(2,)"), (-np.ones((2, 2, 3)), "(2, 2, 3)")],
                         ids=["1-d", "3-d"])
def test_membership_samples_rule(y, shape):
    with pytest.raises(ValueError, match=f"^samples have wrong shape {re.escape(shape)} "
                                         r"for \(3, 3\) matrix$"):
        matrix_basin_membership(np.eye(3), y)


@pytest.mark.parametrize("call, sign", [
    (lambda x: in_delta_basin(RAW, 0, x, TINY), 1.0),
    (lambda y: matrix_basin_membership(np.eye(3), y), -1.0),
], ids=["in_delta_basin", "matrix_basin_membership"])
@pytest.mark.parametrize("point, shown", [
    (lambda s: np.array([s, s + 1e-9j, s]) * 1e-3, "complex128"),
    (lambda s: (s * 1e-3, s * 1e-3j, s * 1e-3), "complex128"),
    (lambda s: (s * 1e-3, f"{s * 1e-3}", s * 1e-3), "str_"),
], ids=["complex-array", "complex-entry", "string-entry"])
def test_point_entries_must_be_real_numbers(call, sign, point, shown):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^expected real numbers, got {shown} entries$") as exc:
            call(point(sign))
    assert exc.type is ValueError


# ---------------------------------------------------------------------------
# Real numbers: cycle._real and cycle._reals, the number rule under every
# entry point that takes a number or a sequence of them
# ---------------------------------------------------------------------------


# name -> (call with one value in the entry's place, a valid value there,
# the type of the error)
NUMBER_ENTRY_POINTS = {
    "NodeSpec-contracting": (lambda x: NodeSpec(x, 1.0, (-0.5,)), 2.0, CycleValidationError),
    "NodeSpec-expanding": (lambda x: NodeSpec(1.0, x, (-0.5,)), 2.0, CycleValidationError),
    "NodeSpec-transverse": (lambda x: NodeSpec(1.0, 1.0, x), (-0.5, 0.25), CycleValidationError),
    "NodeSpec-radial": (lambda x: NodeSpec(1.0, 1.0, (-0.5,), x), (2.0, 3.0), CycleValidationError),
    "ConnectionSpec-permutation": (ConnectionSpec, (1, 0), CycleValidationError),
    "ConnectionSpec-scalings": (lambda x: ConnectionSpec((1, 0), x), (2.0, 0.5),
                                CycleValidationError),
    "ConnectionSpec-v0": (lambda x: ConnectionSpec((1, 0), contraction_offset=x), 0.3,
                          CycleValidationError),
    "RspParams-eps_x": (lambda x: RspParams(x, 0.2), -0.5, ValueError),
    "RspParams-eps_y": (lambda x: RspParams(-0.5, x), 0.2, ValueError),
    "f_index": (f_index, (1.0, -2.0, 0.5), ValueError),
    "f_plus": (f_plus, (1.0, -2.0, 0.5), ValueError),
    "f_minus": (f_minus, (1.0, -2.0, 0.5), ValueError),
    "f_index_n3": (lambda x: f_index_n3(1.0, x, 0.5), -2.0, ValueError),
    "estimate_fplus_mc-alpha": (lambda x: estimate_fplus_mc(x, (1e-1, 1e-2), 100, seed=0),
                                (1.0, -2.0, 0.5), ValueError),
    "estimate_fplus_mc-ladder": (lambda x: estimate_fplus_mc((-1.0, 1.0), x, 100, seed=0),
                                 (1e-1, 1e-2), ValueError),
    "EstimatorConfig-ladder": (lambda x: EstimatorConfig(epsilon_ladder=x), (1e-3, 1e-4),
                               ValueError),
    "EstimatorConfig-delta": (lambda x: EstimatorConfig(delta=x), 0.01, ValueError),
    "classification_from_sigmas": (classification_from_sigmas, (0.5, -0.25), ValueError),
}
# each is rejected in place of a number, of a sequence and of one entry of it
NOT_NUMBERS = {"string": "0.5", "digits": "05", "bytes": b"05", "complex": 0.5j, "none": None,
               "nested": ((0.5,),)}
SEQUENCE_FORMS = {
    "list": list, "tuple": tuple, "ndarray": np.array, "generator": lambda v: (x for x in v),
    "numpy-scalars": lambda v: tuple(map(np.float64, v)),
}


@pytest.mark.parametrize("bad", sorted(NOT_NUMBERS))
@pytest.mark.parametrize("entry", sorted(NUMBER_ENTRY_POINTS))
def test_number_rule(entry, bad):
    # a ValueError that names the input, never a TypeError or a string read
    # as a number, or as a sequence of digits
    call, valid, kind = NUMBER_ENTRY_POINTS[entry]
    # None in place of the scalings is their default, all 1
    values = [] if (entry, bad) == ("ConnectionSpec-scalings", "none") else [NOT_NUMBERS[bad]]
    if isinstance(valid, tuple):
        values.append(valid[:-1] + (NOT_NUMBERS[bad],))
    for value in values:
        with pytest.raises(ValueError, match=" must be a (real number|sequence of numbers)") as exc:
            call(value)
        assert exc.type is kind


@pytest.mark.parametrize("form", sorted(SEQUENCE_FORMS))
@pytest.mark.parametrize("entry", sorted(NUMBER_ENTRY_POINTS))
def test_number_rule_accepts_real_numbers(entry, form):
    # a sequence in any of these forms, and a numpy scalar, reads as the
    # same floats (integral permutation entries as ints)
    call, valid, _ = NUMBER_ENTRY_POINTS[entry]
    value = SEQUENCE_FORMS[form](valid) if isinstance(valid, tuple) else np.float64(valid)
    assert repr(call(value)) == repr(call(valid))


def test_classification_from_sigmas_rejects_an_empty_sequence():
    with pytest.raises(ValueError, match=r"^sigma must be non-empty and free of NaN, got \[\]$"):
        classification_from_sigmas([])


@pytest.mark.parametrize("sigmas", [[NAN], (NAN, 1.0), np.array([INF, NAN])],
                         ids=["alone", "tuple", "ndarray"])
def test_classification_from_sigmas_rejects_nan(sigmas):
    with pytest.raises(ValueError, match=r"^sigma must be non-empty and free of NaN, got \[") as exc:
        classification_from_sigmas(sigmas)
    assert exc.type is ValueError


def test_classification_from_sigmas_reads_infinities_and_huge_ints():
    # +-inf are indices like any other, and an int beyond double range is +inf
    assert classification_from_sigmas((INF, -INF)) is Classification.NOT_ATTRACTOR
    assert classification_from_sigmas([HUGE, INF]) is Classification.ASYMPTOTICALLY_STABLE


def test_an_int_beyond_double_range_is_read_entry_by_entry():
    # only that entry becomes -inf or +inf, not every entry of the array
    assert hetstab.transition._floats([[-HUGE, 0.5], [HUGE, True]]).tolist() == [
        [-INF, 0.5], [INF, 1.0]]
    assert hetstab.cycle._reals([0.5, -HUGE], "x") == (0.5, -INF)


# ---------------------------------------------------------------------------
# Ints beyond double range: each owner of a float conversion reads one as not
# finite, where float() raises OverflowError
# ---------------------------------------------------------------------------


HUGE = 10**400
HUGE_MATRIX = [[HUGE, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
MATRIX_ERROR = (ValueError, r"^expected a finite square matrix, got shape \(3, 3\)$")
ALPHA_ERROR = (ValueError, "^direction vector components must be finite$")
LADDER_ERROR = (ValueError, "^epsilon ladder must be non-empty, finite and positive$")
HUGE_INT_ENTRY_POINTS = {
    "classify": (lambda: classify([RAW[0], HUGE_MATRIX]), MATRIX_ERROR),
    "sigma": (lambda: sigma([RAW[0], HUGE_MATRIX], 0), MATRIX_ERROR),
    "eigen_decompose": (lambda: eigen_decompose(HUGE_MATRIX), MATRIX_ERROR),
    "full_return_matrix": (lambda: full_return_matrix([HUGE_MATRIX], 0), MATRIX_ERROR),
    "matrix_basin_membership-matrix": (
        lambda: matrix_basin_membership(HUGE_MATRIX, (-1.0, -1.0, -1.0)), MATRIX_ERROR),
    "f_index": (lambda: f_index((HUGE, -1.0)), ALPHA_ERROR),
    "f_plus": (lambda: f_plus((-1.0, HUGE)), ALPHA_ERROR),
    "f_minus": (lambda: f_minus((1.0, -HUGE)), ALPHA_ERROR),
    "f_index_n3": (lambda: f_index_n3(1.0, HUGE, -1.0), ALPHA_ERROR),
    "estimate_fplus_mc-alpha": (
        lambda: estimate_fplus_mc((-1.0, HUGE), (1e-1, 1e-2), 100, seed=0), ALPHA_ERROR),
    "EstimatorConfig": (lambda: EstimatorConfig(epsilon_ladder=(HUGE, 1e-3)), LADDER_ERROR),
    "estimate_fplus_mc-ladder": (
        lambda: estimate_fplus_mc((-1.0, 1.0), (HUGE, 1e-3), 10, seed=0), LADDER_ERROR),
    "in_delta_basin": (lambda: in_delta_basin(RAW, 0, (1e-3, HUGE, 1e-3), TINY),
                       (NonPositiveInput, "^point must have finite, strictly positive")),
    "matrix_basin_membership-y": (
        lambda: matrix_basin_membership(np.eye(2), (-1.0, -HUGE)),
        (ValueError, "^initial points must be finite and strictly negative$")),
    "RspParams": (lambda: RspParams(-0.5, -HUGE),
                  (ParamOutOfRange, r"^eps_y=-inf is outside \(-1, 1\)$")),
}


@pytest.mark.parametrize("entry", sorted(HUGE_INT_ENTRY_POINTS))
def test_ints_beyond_double_range_get_the_owners_error(entry):
    call, (kind, message) = HUGE_INT_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=message) as exc:
        call()
    assert exc.type is kind


# ---------------------------------------------------------------------------
# Cyclic products: transition.cyclic_products, now also in the oracle
# ---------------------------------------------------------------------------


OVERFLOW = validate_cycle(CycleSpec(nodes=(node(c=1e200),) * 3,
                                    connections=(ConnectionSpec((0, 1)),) * 3))


@pytest.mark.parametrize("entry", [
    lambda: estimate_sigma_mc(OVERFLOW, 0, TINY),
    lambda: in_delta_basin(OVERFLOW, 1, (1e-3, 1e-3), TINY),
], ids=["estimate_sigma_mc", "in_delta_basin"])
def test_oracle_runs_the_product_overflow_check(entry):
    with pytest.raises(ProductOverflow, match="^cyclic product from node"):
        entry()


def test_orbit_overflow_in_the_oracle_is_an_escape_not_a_warning():
    # the one-step product is finite, but iterating it overflows one
    # coordinate and then meets 0 * inf: numpy's warnings stay inside
    assert in_delta_basin([np.diag([1e300, 1.0])], 0, (1e-3, 1e-3), TINY) is False


@pytest.mark.parametrize("c", [1e3, 1e100, 1e300])
def test_orbit_with_a_coordinate_at_minus_inf_has_converged(c):
    # x_0 -> 0 so fast that ln x_0 overflows to -inf before the max-norm
    # reaches DEEP_LOG, while ln x_1 doubles each step; the zero entries of
    # the matrix must not turn 0 * -inf into an escape
    config = EstimatorConfig(epsilon_ladder=(1e-4,), samples_per_level=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert in_delta_basin([np.diag([c, 2.0])], 0, (1e-3, 1e-3), config) is True


# ---------------------------------------------------------------------------
# Tolerance: spectral._tolerance, checked before any decomposition
# ---------------------------------------------------------------------------


FULL = full_return_matrix(RAW, 0)
DEFECTIVE = [[2.0, 1.0], [0.0, 2.0]]                        # one Jordan block
TOL_ERROR = "tol must be finite with 0 <= tol < 1, got "
TOL_ENTRY_POINTS = {
    "classify": lambda tol: classify(RAW, tol=tol),
    "sigma": lambda tol: sigma(RAW, 0, tol=tol),
    "collect_alpha_vectors": lambda tol: collect_alpha_vectors(RAW, 0, tol=tol),
    "eigen_decompose": lambda tol: eigen_decompose(FULL, tol),
    "vmax_row": lambda tol: vmax_row(FULL, tol),
    "rsp_compare": lambda tol: rsp_compare(RspParams(-0.5, 0.2), tol=tol),
    "eigen_decompose-defective": lambda tol: eigen_decompose(DEFECTIVE, tol),
    "classify-defective": lambda tol: classify([DEFECTIVE], tol=tol),
}


@pytest.mark.parametrize("tol", [NAN, -1.0, INF, 1.0, None, 1j, "x", "1e-9", np.True_],
                         ids=["nan", "-1", "inf", "1", "none", "complex", "string", "digits",
                              "numpy-true"])
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_tolerance_rule(entry, tol):
    # what is not a real number gets the same ValueError, not a TypeError,
    # float's message or a parsed string
    with pytest.raises(ValueError, match=f"^{TOL_ERROR}{re.escape(repr(tol))}$") as exc:
        TOL_ENTRY_POINTS[entry](tol)
    assert exc.type is ValueError


@pytest.mark.parametrize("tol", [0.0, np.False_, False, np.int64(0), np.float32(0.0)],
                         ids=["float", "numpy-false", "false", "int64", "float32"])
@pytest.mark.parametrize("entry", sorted(e for e in TOL_ENTRY_POINTS if "defective" not in e))
def test_tolerance_rule_accepts_zero(entry, tol):
    # a bool, numpy's too, is a real number by the number rule (cycle.REALS)
    TOL_ENTRY_POINTS[entry](tol)


def test_defective_matrix_reports_after_the_tolerance_rule():
    with pytest.raises(DefectiveMatrix):
        eigen_decompose(DEFECTIVE)


# ---------------------------------------------------------------------------
# CLI: every rejected input exits 1 with a one-line error, or with the usage
# and a one-line error for a bad flag
# ---------------------------------------------------------------------------


@pytest.fixture
def cli_files(tmp_path):
    save_cycle(rsp_cycle_spec(RspParams(-0.5, 0.2)), str(tmp_path / "c.json"))
    doc = {"nodes": [{"contracting": 1e200, "expanding": 1.0, "transverse": [-0.5]}] * 3,
           "connections": [{"permutation": [0, 1]}] * 3}
    (tmp_path / "overflow.json").write_text(json.dumps(doc))
    doc = {"nodes": [{"contracting": 1.0, "expanding": 1.0, "transverse": [-0.5]}] * 2,
           "connections": [{"permutation": [1.9, 0.2]}] * 2}
    (tmp_path / "fraction.json").write_text(json.dumps(doc))
    doc = {"nodes": [{"contracting": "x", "expanding": 1.0, "transverse": [-0.5]}] * 2,
           "connections": [{"permutation": [1, 0]}] * 2}
    (tmp_path / "string.json").write_text(json.dumps(doc))
    doc = {"nodes": [{"contracting": 1.0, "expanding": 1.0, "transverse": [-0.5]}] * 2,
           "connections": [{"permutation": [True, False]}] * 2}
    (tmp_path / "bool.json").write_text(json.dumps(doc))
    doc = {"nodes": [{"contracting": 1.0, "expanding": 1.0, "transverse": 5}] * 2,
           "connections": [{"permutation": [1, 0]}] * 2}
    (tmp_path / "number.json").write_text(json.dumps(doc))
    (tmp_path / "array.json").write_text("[]")
    doc = {"nodes": [{"contracting": 10**400, "expanding": 1.0, "transverse": [-0.5]}] * 2,
           "connections": [{"permutation": [1, 0]}] * 2}
    (tmp_path / "huge.json").write_text(json.dumps(doc))
    (tmp_path / "deep.json").write_text("[" * 100_000)
    return tmp_path


LADDER_USAGE = "argument {}: ladder needs 0 < end < start < inf and count >= 1"
ALPHA_USAGE = "error: argument --alpha: not a comma-separated float list: "
CLI_REJECTIONS = {
    "findex-nan": (["findex", "--alpha", "1,nan"],
                   "error: direction vector components must be finite"),
    "fplus-nan": (["oracle", "fplus", "--alpha", "1,nan", "--samples", "100"],
                  "error: direction vector components must be finite"),
    "findex-word": (["findex", "--alpha", "1,x"], "hetstab findex: " + ALPHA_USAGE + "'1,x'"),
    "fplus-word": (["oracle", "fplus", "--alpha", "1,x", "--samples", "100"],
                   "hetstab oracle fplus: " + ALPHA_USAGE + "'1,x'"),
    "findex-empty-token": (["findex", "--alpha", "1,,-2"],
                           "hetstab findex: " + ALPHA_USAGE + "'1,,-2'"),
    "fplus-trailing-comma": (["oracle", "fplus", "--alpha", "1,-2,", "--samples", "100"],
                             "hetstab oracle fplus: " + ALPHA_USAGE + "'1,-2,'"),
    "sigma-node": (["oracle", "sigma", "{d}/c.json", "--node", "5", "--samples", "10"],
                   "error: node index 5 out of range for m=2"),
    "sigma-overflow": (["oracle", "sigma", "{d}/overflow.json", "--samples", "10"],
                       "error: cyclic product from node 0 is not finite"),
    "analyze-dir": (["analyze", "{d}"], "error: [Errno 21] Is a directory"),
    "json-dir": (["analyze", "{d}/c.json", "--json", "{d}"], "error: [Errno 21] Is a directory"),
    "analyze-fraction": (["analyze", "{d}/fraction.json"],
                         "error: connection 0: permutation [1.9, 0.2] is not a bijection"),
    "analyze-string": (["analyze", "{d}/string.json"],
                       "error: malformed cycle document: contracting: expected a number, got 'x'"),
    "analyze-bool": (["analyze", "{d}/bool.json"],
                     "error: malformed cycle document: permutation: expected a number, got True"),
    "analyze-number": (["analyze", "{d}/number.json"],
                       "error: malformed cycle document: transverse: expected a list, got 5"),
    "analyze-array": (["analyze", "{d}/array.json"],
                      "error: malformed cycle document: document: expected a dict, got []"),
    "analyze-huge": (["analyze", "{d}/huge.json"],
                     "error: node 0: non-finite value among c, e, t and radial"),
    "sigma-huge": (["oracle", "sigma", "{d}/huge.json", "--samples", "10"],
                   "error: node 0: non-finite value among c, e, t and radial"),
    "analyze-deep": (["analyze", "{d}/deep.json"],
                     "error: {d}/deep.json: invalid JSON (nested too deeply)"),
    "sigma-deep": (["oracle", "sigma", "{d}/deep.json", "--samples", "10"],
                   "error: {d}/deep.json: invalid JSON (nested too deeply)"),
    "fplus-levels-inf": (["oracle", "fplus", "--alpha", "-1,1,1", "--levels", "inf:1e-3:3"],
                         "hetstab oracle fplus: error: " + LADDER_USAGE.format("--levels")),
    "fplus-levels-nan": (["oracle", "fplus", "--alpha", "-1,1,1", "--levels", "nan:1e-3:3"],
                         "hetstab oracle fplus: error: " + LADDER_USAGE.format("--levels")),
    "sigma-eps-inf": (["oracle", "sigma", "{d}/c.json", "--eps", "inf:1e-5:3"],
                      "hetstab oracle sigma: error: " + LADDER_USAGE.format("--eps")),
    "fplus-levels-no-count": (["oracle", "fplus", "--alpha", "-1,1,1", "--levels", "1e-3:1e-7"],
                              "hetstab oracle fplus: error: argument --levels: "
                              "expected start:end:count, got '1e-3:1e-7'"),
    "fplus-levels-shared-log": (["oracle", "fplus", "--alpha", "-1,1,1", "--levels",
                                 "0.001:0.0009999999999999998:2", "--samples", "200000"],
                                "error: epsilon ladder must be strictly decreasing"),
    "sigma-eps-shared-log": (["oracle", "sigma", "{d}/c.json",
                              "--eps", "1e-15:9.999999999999999e-16:2"],
                             "error: epsilon ladder must be strictly decreasing"),
    "sigma-seed": (["oracle", "sigma", "{d}/c.json", "--seed", "-1", "--samples", "10"],
                   "error: seed must be an integer >= 0, got -1"),
    "fplus-seed": (["oracle", "fplus", "--alpha", "-1,1,1", "--seed", "-1", "--samples", "100"],
                   "error: seed must be an integer >= 0, got -1"),
    "sigma-samples": (["oracle", "sigma", "{d}/c.json", "--samples", "0"],
                      "error: samples_per_level must be an integer >= 1, got 0"),
    "fplus-samples": (["oracle", "fplus", "--alpha", "-1,1,1", "--samples", "0"],
                      "error: samples must be an integer >= 1, got 0"),
    "fplus-samples-2-63": (["oracle", "fplus", "--alpha", "-1,1,1", "--samples", str(2**63)],
                           f"error: samples must be an integer < {2**63}, got {2**63}"),
    "sigma-turns": (["oracle", "sigma", "{d}/c.json", "--turns", "3", "--samples", "10"],
                    "error: max_full_turns must be an integer >= 4, got 3"),
    "sweep-grid-negative": (["rsp-sweep", "--grid", "-5", "--out", "{d}/s.csv"],
                            "hetstab rsp-sweep: error: argument --grid: "
                            "grid must be an integer >= 1, got '-5'"),
    "sweep-grid-zero": (["rsp-sweep", "--grid", "0", "--out", "{d}/s.csv"],
                        "hetstab rsp-sweep: error: argument --grid: "
                        "grid must be an integer >= 1, got '0'"),
}
for _tol in ("nan", "-1.0", "inf", "1.0"):
    for _name, _argv in [("analyze", ["analyze", "{d}/c.json"]),
                         ("rsp", ["rsp", "--eps-x", "-0.5", "--eps-y", "0.2"]),
                         ("rsp-sweep", ["rsp-sweep", "--grid", "1", "--out", "{d}/s.csv"])]:
        CLI_REJECTIONS[f"{_name}-tol-{_tol}"] = (
            _argv + ["--tol", _tol], f"error: {TOL_ERROR}{_tol}")


@pytest.mark.parametrize("case", sorted(CLI_REJECTIONS))
def test_cli_rejects_with_exit_one(cli_files, capsys, case):
    argv, error = CLI_REJECTIONS[case]
    assert main([a.format(d=cli_files) for a in argv]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1].startswith(error.format(d=cli_files))
    assert len(lines) == 1 or lines[0].startswith("usage: hetstab ")
    assert not [line for line in lines if "Traceback" in line or "Warning" in line]
    assert not (cli_files / "s.csv").exists()


def test_cli_findex_accepts_an_overflowing_sum(capsys):
    assert main(["findex", "--alpha", "1e308,1e308,-1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["F+      = +inf", "F-      = 0.0",
                                                    "F^index = +inf"]
