import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastslow.core import (
    Grid1D,
    SpatialProfile,
    eval_full_rhs,
    eval_source,
    fd_jacobian,
    read_profile_csv,
    write_profile_csv,
    write_rows_csv,
)
from fastslow.errors import BoundaryNodeError, ContractViolationError
from fastslow.models import michaelis_menten_model

YEQ = np.sqrt(3.0) - 1.0
Z_EQ = np.array([0.0, YEQ, YEQ])


@given(st.integers(min_value=3, max_value=500))
def test_grid_invariants(n):
    g = Grid1D(n)
    x = g.nodes
    assert x[0] == 0.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0)
    assert g.spacing * (n - 1) == pytest.approx(1.0, abs=1e-15)


def test_grid_too_small():
    with pytest.raises(ContractViolationError):
        Grid1D(2)


def test_source_at_equilibrium():
    m = michaelis_menten_model()
    assert np.abs(eval_source(m, Z_EQ)).max() < 1e-12


def test_source_hand_value():
    m = michaelis_menten_model()
    out = eval_source(m, [2.0, 0.0, 1.0])
    assert out == pytest.approx([-2.99, 0.1, -2.9], abs=1e-12)


def test_linear_fixed_point():
    from fastslow.models import linear_model
    m = linear_model(np.diag([-1.0, -2.0]), [0.3, 0.7])
    assert np.all(eval_source(m, [0.3, 0.7]) == 0.0)


def test_dimension_mismatch():
    m = michaelis_menten_model()
    with pytest.raises(ContractViolationError):
        eval_source(m, [1.0, 2.0])


def test_negative_diffusion_rejected():
    """Also NaN and inf: ``NaN < 0`` is False, so a sign test alone passes it."""
    from fastslow.core import ReactionDiffusionModel
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ContractViolationError, match="finite and >= 0"):
            ReactionDiffusionModel(
                name="bad", species=("a", "b"), source=lambda z: z,
                diffusion=np.array([0.1, bad]),
            )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_state_rejects_non_finite_components(bad):
    from fastslow.core import as_state
    with pytest.raises(ContractViolationError, match="finite"):
        as_state([1.0, bad, 0.0], 3)


def test_full_rhs_constant_profile_equals_source():
    m = michaelis_menten_model()
    z = np.array([1.0, 0.4, 0.6])
    profile = SpatialProfile(Grid1D(11), np.tile(z, (11, 1)))
    src = eval_source(m, z)
    for i in range(1, 10):
        # Laplacian of constant data cancels exactly
        assert np.array_equal(eval_full_rhs(m, profile, i), src)


def test_full_rhs_equilibrium_profile_vanishes():
    m = michaelis_menten_model()
    profile = SpatialProfile(Grid1D(11), np.tile(Z_EQ, (11, 1)))
    for i in range(1, 10):
        assert np.abs(eval_full_rhs(m, profile, i)).max() < 1e-12


def test_full_rhs_linear_profile_equals_source():
    m = michaelis_menten_model()
    g = Grid1D(21)
    states = Z_EQ + np.outer(g.nodes, np.array([2.0, 0.0, 1.0]) - Z_EQ)
    profile = SpatialProfile(g, states)
    for i in (1, 10, 19):
        expect = eval_source(m, states[i])
        assert eval_full_rhs(m, profile, i) == pytest.approx(expect, abs=1e-9)


def test_full_rhs_boundary_rejected():
    m = michaelis_menten_model()
    profile = SpatialProfile(Grid1D(5), np.zeros((5, 3)))
    for i in (0, 4):
        with pytest.raises(BoundaryNodeError):
            eval_full_rhs(m, profile, i)


def test_jacobian_matches_finite_differences():
    m = michaelis_menten_model()
    rng = np.random.default_rng(20240817)
    zs = rng.uniform([0.0, 0.0, 0.0], [2.0, 1.0, 1.0], size=(100, 3))
    for z in zs:
        J = m.jacobian(z)
        J_fd = fd_jacobian(m.source, z, step=1e-6)
        assert np.abs(J - J_fd).max() <= 1e-6 * (1.0 + np.abs(J).max())


def test_operations_are_pure():
    m = michaelis_menten_model()
    z = np.array([1.3, 0.2, 0.8])
    assert np.array_equal(eval_source(m, z), eval_source(m, z))
    profile = SpatialProfile(Grid1D(7), np.tile(z, (7, 1)) * np.linspace(0.5, 1.0, 7)[:, None])
    assert np.array_equal(eval_full_rhs(m, profile, 3), eval_full_rhs(m, profile, 3))


def test_profile_states_are_frozen():
    profile = SpatialProfile(Grid1D(5), np.zeros((5, 3)))
    with pytest.raises(ValueError):
        profile.states[0, 0] = 1.0


@settings(max_examples=25, deadline=None)
@given(n_nodes=st.integers(min_value=3, max_value=40),
       n_species=st.integers(min_value=1, max_value=3))
def test_profile_csv_roundtrip(tmp_path_factory, n_nodes, n_species):
    rng = np.random.default_rng(n_nodes * 7 + n_species)
    states = rng.standard_normal((n_nodes, n_species)) * 10.0 ** rng.integers(-8, 8)
    profile = SpatialProfile(Grid1D(n_nodes), states)
    path = tmp_path_factory.mktemp("csv") / "profile.csv"
    species = tuple(f"s{i}" for i in range(n_species))
    write_profile_csv(path, profile, species, comment="roundtrip check")
    back = read_profile_csv(path)
    assert np.array_equal(back.states, profile.states)
    assert back.grid.node_count == n_nodes


@pytest.mark.parametrize("comment", ["", "fastslow | stage=pde"])
def test_profile_csv_has_one_comment_line_before_the_header(tmp_path, comment):
    """``np.loadtxt(skiprows=2)`` readers rely on it: without the ``#`` line
    they would drop the first data row."""
    path = tmp_path / "profile.csv"
    profile = SpatialProfile(Grid1D(4), np.arange(12.0).reshape(4, 3))
    write_profile_csv(path, profile, ("X", "Y", "Z"), comment)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# {comment}"
    assert lines[1] == "x,X,Y,Z"
    assert [line for line in lines if line.startswith("#")] == lines[:1]
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    assert np.array_equal(data[:, 1:], profile.states)


def test_rows_csv_matches_value_by_value_formatting(tmp_path):
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))
    rows[0] = [-0.0, np.inf, 5e-324, 0.1]
    path = tmp_path / "rows.csv"
    write_rows_csv(path, ["a", "b", "c", "d"], rows, "note")
    expect = ["# note", "a,b,c,d"] + [",".join("%.17g" % v for v in row) for row in rows]
    assert path.read_text() == "\n".join(expect) + "\n"


def test_rows_csv_blocks_and_tuples_match_value_by_value_formatting(tmp_path):
    """Rows past one formatting block, and the tuple of ``(t, residual)``
    tuples that ``pde-solve --history`` passes, written value by value."""
    rows = np.random.default_rng(1).standard_normal((1100, 2))
    for data in (rows, tuple(tuple(row) for row in rows.tolist())):
        path = tmp_path / "rows.csv"
        write_rows_csv(path, ["t", "residual"], data, "note")
        expect = ["# note", "t,residual"] + [",".join("%.17g" % v for v in row) for row in rows]
        assert path.read_text() == "\n".join(expect) + "\n"


def test_rows_csv_repeated_values_match_value_by_value_formatting(tmp_path):
    """Columns that repeat values, over more than one block: each block
    formats a distinct value once, keyed on its bits, so ``-0.0`` and
    ``0.0`` keep their own text; a column with no repeat sits beside them."""
    rng = np.random.default_rng(2)
    grid = np.linspace(-1.0, 1.0, 37)
    signed_zeros = rng.choice([-0.0, 0.0, np.inf, -np.inf, np.nan, 0.1], 1100)
    rows = np.column_stack([np.repeat(grid, 30)[:1100], np.tile(grid, 30)[:1100],
                            signed_zeros, rng.standard_normal(1100)])
    path = tmp_path / "rows.csv"
    write_rows_csv(path, ["a", "b", "c", "d"], rows, "note")
    expect = ["# note", "a,b,c,d"] + [",".join("%.17g" % v for v in row) for row in rows]
    assert path.read_text() == "\n".join(expect) + "\n"
    assert {"-0", "0"} <= {line.split(",")[2] for line in expect[2:]}


@pytest.mark.parametrize("comment", ["two\nlines", "trailing\n", "carriage\rreturn"])
def test_multiline_csv_comment_rejected(tmp_path, comment):
    profile = SpatialProfile(Grid1D(3), np.zeros((3, 1)))
    with pytest.raises(ContractViolationError):
        write_rows_csv(tmp_path / "rows.csv", ["a"], np.zeros((2, 1)), comment)
    with pytest.raises(ContractViolationError):
        write_profile_csv(tmp_path / "profile.csv", profile, ("s",), comment)
