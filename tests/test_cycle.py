import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hetstab import (
    ConnectionSpec,
    CycleSpec,
    CycleValidationError,
    InvalidPermutation,
    MismatchedTransverseCount,
    NodeSpec,
    NonPositiveEigenvalue,
    NonPositiveScaling,
    cycle_from_dict,
    cycle_to_dict,
    load_cycle,
    save_cycle,
    validate_cycle,
)


def minimal_spec():
    n = NodeSpec(contracting=1.0, expanding=1.0, transverse=(-0.5, -0.5))
    c = ConnectionSpec(permutation=(0, 1, 2))
    return CycleSpec(nodes=(n, n), connections=(c, c))


def test_minimal_two_node_cycle_valid():
    cycle = validate_cycle(minimal_spec())
    assert cycle.m == 2
    assert cycle.dimension == 3


def test_validation_is_deterministic():
    spec = minimal_spec()
    a = validate_cycle(spec)
    b = validate_cycle(spec)
    assert a == b


def test_mismatched_transverse_count():
    n0 = NodeSpec(contracting=1.0, expanding=1.0, transverse=(-0.5, -0.5))
    n1 = NodeSpec(contracting=1.0, expanding=1.0, transverse=(-0.5,))
    c = ConnectionSpec(permutation=(0, 1, 2))
    with pytest.raises(MismatchedTransverseCount):
        validate_cycle(CycleSpec(nodes=(n0, n1), connections=(c, c)))


@pytest.mark.parametrize("c,e", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_non_positive_eigenvalues_rejected(c, e):
    n = NodeSpec(contracting=c, expanding=e, transverse=(-0.5,))
    conn = ConnectionSpec(permutation=(0, 1))
    with pytest.raises(NonPositiveEigenvalue):
        validate_cycle(CycleSpec(nodes=(n,), connections=(conn,)))


@pytest.mark.parametrize("perm", [(0, 0, 1), (0, 1), (0, 1, 3), (2, 1, 2)])
def test_invalid_permutations_rejected(perm):
    n = NodeSpec(contracting=1.0, expanding=1.0, transverse=(-0.5, -0.5))
    bad = ConnectionSpec(permutation=perm)
    good = ConnectionSpec(permutation=(0, 1, 2))
    with pytest.raises(InvalidPermutation):
        validate_cycle(CycleSpec(nodes=(n, n), connections=(bad, good)))


def test_non_positive_scalings_rejected():
    n = NodeSpec(contracting=1.0, expanding=1.0, transverse=(-0.5,))
    bad = ConnectionSpec(permutation=(0, 1), scalings=(1.0, 0.0))
    with pytest.raises(NonPositiveScaling):
        validate_cycle(CycleSpec(nodes=(n,), connections=(bad,)))
    bad_v0 = ConnectionSpec(permutation=(0, 1), contraction_offset=-1.0)
    with pytest.raises(NonPositiveScaling):
        validate_cycle(CycleSpec(nodes=(n,), connections=(bad_v0,)))


@pytest.mark.parametrize("node,conn", [
    (NodeSpec(1.0, 1.0, (math.nan,)), ConnectionSpec((0, 1))),
    (NodeSpec(math.inf, 1.0, (-0.5,)), ConnectionSpec((0, 1))),
    (NodeSpec(1.0, math.inf, (-0.5,)), ConnectionSpec((0, 1))),
    (NodeSpec(1.0, 1.0, (-math.inf,)), ConnectionSpec((0, 1))),
    (NodeSpec(1.0, 1.0, (-0.5,), radial=(math.inf,)), ConnectionSpec((0, 1))),
    (NodeSpec(1e300, 1e-300, (-0.5,)), ConnectionSpec((0, 1))),       # c/e overflows
    (NodeSpec(1.0, 1e-300, (-1e300,)), ConnectionSpec((0, 1))),       # -t/e overflows
    (NodeSpec(1.0, 1.0, (-0.5,)), ConnectionSpec((0, 1), scalings=(1.0, math.inf))),
    (NodeSpec(1.0, 1.0, (-0.5,)), ConnectionSpec((0, 1), contraction_offset=math.inf)),
], ids=["nan-t", "inf-c", "inf-e", "inf-t", "inf-radial", "ce-overflow", "te-overflow",
        "inf-scaling", "inf-v0"])
def test_non_finite_data_rejected(node, conn):
    spec = CycleSpec(nodes=(node, node), connections=(conn, conn))
    with pytest.raises(CycleValidationError) as exc:
        validate_cycle(spec)
    assert exc.type is CycleValidationError      # not a "non-positive" subclass


def test_empty_cycle_and_missing_transverse_rejected():
    with pytest.raises(CycleValidationError):
        validate_cycle(CycleSpec(nodes=(), connections=()))
    bare = NodeSpec(contracting=1.0, expanding=1.0, transverse=())
    with pytest.raises(CycleValidationError):
        validate_cycle(CycleSpec(nodes=(bare,), connections=(ConnectionSpec(permutation=(0,)),)))


def test_defaults_resolved_on_validation():
    cycle = validate_cycle(minimal_spec())
    for conn in cycle.connections:
        assert conn.scalings == (1.0, 1.0, 1.0)
        assert conn.contraction_offset == 1.0


def test_radial_metadata_is_kept_but_validated():
    n = NodeSpec(contracting=1.0, expanding=1.0, transverse=(-0.5,), radial=(0.3, 1.0))
    cycle = validate_cycle(CycleSpec(nodes=(n,), connections=(ConnectionSpec(permutation=(0, 1)),)))
    assert cycle.nodes[0].radial == (0.3, 1.0)
    bad = NodeSpec(contracting=1.0, expanding=1.0, transverse=(-0.5,), radial=(-0.3,))
    with pytest.raises(NonPositiveEigenvalue):
        validate_cycle(CycleSpec(nodes=(bad,), connections=(ConnectionSpec(permutation=(0, 1)),)))


def test_json_document_round_trip(tmp_path):
    doc = {
        "nodes": [
            {"contracting": 1.0, "expanding": 2.0, "transverse": [0.5, -0.5],
             "radial": [1.5]},
            {"contracting": 0.5, "expanding": 1.0, "transverse": [-0.25, -1.0]},
        ],
        "connections": [
            {"permutation": [1, 2, 0], "scalings": [2.0, 1.0, 0.5], "v0": 3.0},
            {"permutation": [0, 1, 2]},
        ],
    }
    spec = cycle_from_dict(doc)
    assert cycle_to_dict(spec) == doc

    path = tmp_path / "cycle.json"
    save_cycle(spec, str(path))
    assert load_cycle(str(path)) == spec
    # exact key names on disk
    raw = json.loads(path.read_text())
    assert set(raw) == {"nodes", "connections"}
    assert set(raw["nodes"][0]) == {"contracting", "expanding", "transverse", "radial"}
    assert set(raw["connections"][0]) == {"permutation", "scalings", "v0"}


def test_malformed_documents_rejected(tmp_path):
    with pytest.raises(CycleValidationError):
        cycle_from_dict({"nodes": [{}], "connections": []})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CycleValidationError):
        load_cycle(str(bad))


@given(st.integers(min_value=2, max_value=5), st.randoms(use_true_random=False))
def test_any_true_permutation_accepted(dim, rnd):
    perm = list(range(dim))
    rnd.shuffle(perm)
    n = NodeSpec(contracting=1.0, expanding=1.0, transverse=(-0.5,) * (dim - 1))
    c = ConnectionSpec(permutation=tuple(perm))
    cycle = validate_cycle(CycleSpec(nodes=(n,), connections=(c,)))
    assert cycle.dimension == dim
