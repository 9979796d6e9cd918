"""One table per input rule, run through every entry point that takes the input.

Each rule has one owner in the package, so every entry point must reject a
bad input with the owner's exception type and message: never a numpy error,
a warning or an answer.
"""

import json
import math

import numpy as np
import pytest

from hetstab import (
    ConnectionSpec,
    CycleSpec,
    CycleValidationError,
    EstimatorConfig,
    NodeSpec,
    NonPositiveEigenvalue,
    NonPositiveInput,
    ProductOverflow,
    RspParams,
    apply_matrix_map,
    as_basic_matrices,
    basic_matrix,
    check_podvigina_conditions,
    collect_alpha_vectors,
    eigen_decompose,
    estimate_fplus_mc,
    estimate_sigma_mc,
    f_index,
    f_index_n3,
    f_minus,
    f_plus,
    find_violations,
    full_return_matrix,
    in_delta_basin,
    matrix_basin_membership,
    partial_turn_matrix,
    rsp_cycle_spec,
    rsp_matrices,
    save_cycle,
    sigma,
    validate_cycle,
    vmax_row,
)
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
    assert find_violations(spec) == [
        "node 0: contracting eigenvalue magnitude must be > 0",
        "node 1: transverse count 2 != 1 at node 0",
        "connection 0: permutation [0, 0] is not a bijection on 0..1",
        "connection 0: scalings must be > 0",
        "connection 1: v0 must be > 0",
    ]
    with pytest.raises(CycleValidationError) as exc:
        validate_cycle(spec)
    assert exc.type is NonPositiveEigenvalue
    assert str(exc.value) == "; ".join(find_violations(spec))


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


@pytest.mark.parametrize("j", [2, -1])
@pytest.mark.parametrize("entry", sorted(NODE_ENTRY_POINTS))
def test_node_index_rule(entry, j):
    with pytest.raises(IndexError, match=f"^node index {j} out of range for m=2$") as exc:
        NODE_ENTRY_POINTS[entry](j)
    assert exc.type is IndexError


# ---------------------------------------------------------------------------
# Matrix: transition._entries
# ---------------------------------------------------------------------------


MATRIX_ENTRY_POINTS = {
    "as_basic_matrices": lambda M: as_basic_matrices([M, M]),
    "eigen_decompose": eigen_decompose,
    "check_podvigina_conditions": check_podvigina_conditions,
    "vmax_row": vmax_row,
    "apply_matrix_map": lambda M: apply_matrix_map(M, (0.5, 0.5)),
    "matrix_basin_membership": lambda M: matrix_basin_membership(M, (-1.0, -1.0)),
}
BAD_MATRICES = {
    "nan": [[2.0, NAN], [0.0, 2.0]],
    "inf": [[2.0, 0.0], [INF, 2.0]],
    "2x3": [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]],
    "vector": [2.0, 2.0],
}


@pytest.mark.parametrize("bad", sorted(BAD_MATRICES))
@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRY_POINTS))
def test_matrix_rule(entry, bad):
    with pytest.raises(ValueError, match="^expected a finite square matrix") as exc:
        MATRIX_ENTRY_POINTS[entry](BAD_MATRICES[bad])
    assert exc.type is ValueError


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


# ---------------------------------------------------------------------------
# Point: oracle._log_point
# ---------------------------------------------------------------------------


POINT_ENTRY_POINTS = {
    "apply_matrix_map": lambda x: apply_matrix_map(np.eye(3), x),
    "in_delta_basin": lambda x: in_delta_basin(RAW, 0, x, TINY),
}


@pytest.mark.parametrize("x,kind,message", [
    ((1e-3, 1e-3), ValueError, r"^point has wrong shape \(2,\) for dimension 3$"),
    ((1e-3,) * 4, ValueError, r"^point has wrong shape \(4,\) for dimension 3$"),
    (((1e-3,) * 3,), ValueError, r"^point has wrong shape \(1, 3\) for dimension 3$"),
    ((1e-3, NAN, 1e-3), NonPositiveInput, "^point must have finite"),
    ((1e-3, INF, 1e-3), NonPositiveInput, "^point must have finite"),
    ((1e-3, 0.0, 1e-3), NonPositiveInput, "^point must have finite"),
], ids=["short", "long", "2-d", "nan", "inf", "zero"])
@pytest.mark.parametrize("entry", sorted(POINT_ENTRY_POINTS))
def test_point_rule(entry, x, kind, message):
    with pytest.raises(ValueError, match=message) as exc:
        POINT_ENTRY_POINTS[entry](x)
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


# ---------------------------------------------------------------------------
# CLI: every rejected input exits 1 with a one-line error
# ---------------------------------------------------------------------------


@pytest.fixture
def cli_files(tmp_path):
    save_cycle(rsp_cycle_spec(RspParams(-0.5, 0.2)), str(tmp_path / "c.json"))
    doc = {"nodes": [{"contracting": 1e200, "expanding": 1.0, "transverse": [-0.5]}] * 3,
           "connections": [{"permutation": [0, 1]}] * 3}
    (tmp_path / "overflow.json").write_text(json.dumps(doc))
    return tmp_path


@pytest.mark.parametrize("argv,error", [
    (["findex", "--alpha", "1,nan"], "error: direction vector components must be finite"),
    (["oracle", "fplus", "--alpha", "1,nan", "--samples", "100"],
     "error: direction vector components must be finite"),
    (["oracle", "sigma", "{d}/c.json", "--node", "5", "--samples", "10"],
     "error: node index 5 out of range for m=2"),
    (["oracle", "sigma", "{d}/overflow.json", "--samples", "10"],
     "error: cyclic product from node 0 is not finite"),
    (["analyze", "{d}"], "error: [Errno 21] Is a directory"),
    (["analyze", "{d}/c.json", "--json", "{d}"], "error: [Errno 21] Is a directory"),
], ids=["findex-nan", "fplus-nan", "sigma-node", "sigma-overflow", "analyze-dir", "json-dir"])
def test_cli_rejects_with_exit_one(cli_files, capsys, argv, error):
    assert main([a.format(d=cli_files) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(error)
    assert "Traceback" not in err
