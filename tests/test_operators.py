"""Weak curl operator, projections and the solution norms."""

import numpy as np
import pytest

from mhdfem import derham, linalg, operators
from mhdfem.assembly import assemble_linear, quadrature_rule, quadrature_weights
from mhdfem.derham import (
    FieldFunction,
    canonical_interpolate,
    evaluate_div_on_cells,
    evaluate_grad_on_cells,
    evaluate_on_cells,
    make_space,
    physical_points,
)
from mhdfem.mesh import unit_cube_mesh, build_topology
from mhdfem.mhd import MhdDriver, MhdError, MhdParams
from mhdfem.operators import DiscreteCurl, OperatorError, lp_norm, norm_curl_part
from mhdfem.verify import builtin_case
from oracles import (
    discrete_curl,
    divfree_saddle,
    grad_load,
    h1_seminorm,
    l2_project_edge,
    lp_norm_on_all_cells,
    w_norm_parts,
)

RNG = np.random.default_rng(31)


def _field_as_callable(field, quad_degree=6):
    """Wrap a finite element field as an analytic-style callable.

    Valid only for consumers that evaluate at the physical quadrature
    points of the same rule, in cell-major order (``assemble_linear``
    with matching quad_degree).
    """
    rule = quadrature_rule(quad_degree)
    vals = evaluate_on_cells(field, rule.points).reshape(-1, 3)

    def func(x):
        assert len(x) == len(vals)
        return vals

    return func


# ----------------------------------------------------------------------
# weak curl


def test_discrete_curl_of_zero(mesh2, topo2):
    dcurl = DiscreteCurl(mesh2, topo2, "normal_B")
    out = discrete_curl(dcurl, FieldFunction.zeros(dcurl.div_space))
    assert np.abs(out.coeffs).max() == 0.0


@pytest.mark.parametrize("bc_family", ["tangential_B", "normal_B"], ids=["none", "essential_zero"])
def test_discrete_curl_adjointness(mesh2, topo2, bc_family):
    dcurl = DiscreteCurl(mesh2, topo2, bc_family)
    ned, rt = dcurl.curl_space, dcurl.div_space
    for _ in range(5):
        B = FieldFunction.zeros(rt)
        B.coeffs[rt.free] = RNG.standard_normal(rt.num_free)
        F = FieldFunction.zeros(ned)
        F.coeffs[ned.free] = RNG.standard_normal(ned.num_free)
        curl_h = discrete_curl(dcurl, B)
        lhs = curl_h.coeffs[ned.free] @ (dcurl.mass @ F.coeffs[ned.free])
        rhs = F.coeffs[ned.free] @ (dcurl.pairing @ B.coeffs[rt.free])
        scale = lp_norm(B, 2) * (lp_norm(F, 2) + norm_curl_part(F))
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_discrete_curl_matches_dense_oracle(mesh1, topo1):
    dcurl = DiscreteCurl(mesh1, topo1, "tangential_B")
    ned, rt = dcurl.curl_space, dcurl.div_space
    # B = curl F0 for an edge field F0 lies in the face space exactly
    F0 = RNG.standard_normal(ned.ndof)
    B = FieldFunction(rt, topo1.curl_incidence @ F0)
    out = discrete_curl(dcurl, B)
    dense = np.linalg.solve(dcurl.mass.toarray(), dcurl.pairing.toarray() @ B.coeffs)
    assert out.coeffs == pytest.approx(dense, rel=1e-10, abs=1e-12)


def test_discrete_curl_raises_when_contract_is_missed(mesh2, topo2, monkeypatch):
    dcurl = DiscreteCurl(mesh2, topo2, "tangential_B")
    B = FieldFunction(dcurl.div_space, RNG.standard_normal(dcurl.div_space.ndof))
    monkeypatch.setattr(linalg, "RESIDUAL_TOL", 1e-30)
    with pytest.raises(linalg.LinAlgError, match="residual"):
        dcurl.norm(B)


def test_discrete_curl_space_guards(mesh1, topo1):
    with pytest.raises(OperatorError, match="unknown bc_family"):
        DiscreteCurl(mesh1, topo1, "mixed")
    dcurl = DiscreteCurl(mesh1, topo1, "tangential_B")
    rt1e = make_space("rt_lowest", "essential_zero", mesh1, topo1)
    with pytest.raises(OperatorError, match="face space"):
        dcurl.norm(FieldFunction.zeros(rt1e))


@pytest.mark.parametrize("bc_family", ["normal_B", "tangential_B"])
@pytest.mark.parametrize("mesh_name", ["mesh2", "jittered_mesh"])
def test_driver_complex_is_the_standalone_complex(request, mesh_name, bc_family):
    # the driver takes its curl pair and potentials from DiscreteCurl
    # and changes none of them
    mesh = request.getfixturevalue(mesh_name)
    drv = MhdDriver(mesh, MhdParams(bc_family=bc_family))
    alone = DiscreteCurl(mesh, build_topology(mesh), bc_family)
    for name in ("mass", "pairing", "G0", "C_ct"):
        a, b = getattr(drv.dcurl, name), getattr(alone, name)
        assert a.shape == b.shape, name
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, part), getattr(b, part)), (name, part)
    assert np.array_equal(drv.dcurl.ct, alone.ct)


# ----------------------------------------------------------------------
# L^2 projection onto the edge space


def _sample(func, mesh, rule):
    """Values of an analytic field at the rule's points, (nc, nq, 3)."""
    x = physical_points(mesh, rule.points)
    return func(x.reshape(-1, 3)).reshape(x.shape)


def test_l2_project_reproduces_member(mesh2, topo2):
    dcurl = DiscreteCurl(mesh2, topo2, "tangential_B")
    a, b = np.array([0.2, -0.5, 1.0]), np.array([0.3, 0.8, -0.1])
    func = lambda x: a + np.cross(b, x)
    rule = quadrature_rule(6)
    proj = l2_project_edge(dcurl, _sample(func, mesh2, rule), rule)
    member = canonical_interpolate(dcurl.curl_space, func)
    assert proj.coeffs == pytest.approx(member.coeffs, rel=1e-12, abs=1e-12)


def test_l2_project_annihilates_deflated_field(mesh2, topo2):
    dcurl = DiscreteCurl(mesh2, topo2, "tangential_B")
    func = lambda x: np.stack(
        [np.sin(3 * x[:, 1]), np.cos(2 * x[:, 2]), x[:, 0] ** 3], axis=1
    )
    rule = quadrature_rule(6)
    vals = _sample(func, mesh2, rule)
    p = l2_project_edge(dcurl, vals, rule)
    q = l2_project_edge(dcurl, vals - evaluate_on_cells(p, rule.points), rule)
    assert np.abs(q.coeffs).max() <= 1e-10


def test_l2_project_pythagoras_split(mesh2, topo2):
    # phi = u_h x B_h for discrete fields; the projection splits the norm
    dcurl = DiscreteCurl(mesh2, topo2, "normal_B")
    rt = dcurl.div_space
    u = make_space("lagrange_p2_vector", "essential_zero", mesh2, topo2)
    uh = FieldFunction.zeros(u)
    uh.coeffs[u.free] = RNG.standard_normal(u.num_free)
    Bh = FieldFunction.zeros(rt)
    Bh.coeffs[rt.free] = RNG.standard_normal(rt.num_free)
    rule = quadrature_rule(6)
    phi = np.cross(
        evaluate_on_cells(uh, rule.points), evaluate_on_cells(Bh, rule.points)
    )
    p = l2_project_edge(dcurl, phi, rule)
    wdet = quadrature_weights(mesh2, rule)
    pvals = evaluate_on_cells(p, rule.points)
    phi_sq = float(np.einsum("cq,cqd,cqd->", wdet, phi, phi))
    p_sq = float(np.einsum("cq,cqd,cqd->", wdet, pvals, pvals))
    rem = phi - pvals
    rem_sq = float(np.einsum("cq,cqd,cqd->", wdet, rem, rem))
    assert abs(phi_sq - p_sq - rem_sq) <= 1e-10 * phi_sq


# ----------------------------------------------------------------------
# Stokes projection


def test_stokes_project_zero(mesh2):
    drv = MhdDriver(mesh2, MhdParams())
    pu, pp = drv.stokes_project(np.zeros(drv.u_space.num_free))
    assert np.abs(pu.coeffs).max() <= 1e-12
    assert np.abs(pp.coeffs).max() <= 1e-12


def test_stokes_project_output_is_discretely_divfree(mesh2):
    case = builtin_case("normal_B")
    drv = MhdDriver(mesh2, case.params())
    pu, _ = drv.stokes_project(grad_load(drv.u_space, case.grad_u, 6))
    weak_div = drv.D_p @ pu.coeffs[drv.u_space.free]
    scale = max(np.abs(pu.coeffs).max(), 1e-30)
    assert np.abs(weak_div).max() <= 1e-12 * scale


def test_stokes_project_reproduces_member(mesh2):
    case = builtin_case("normal_B")
    drv = MhdDriver(mesh2, case.params())
    pu1, _ = drv.stokes_project(grad_load(drv.u_space, case.grad_u, 6))
    rule = quadrature_rule(6)
    G = evaluate_grad_on_cells(pu1, rule.points).reshape(-1, 3, 3)

    def grad_func(x):
        assert len(x) == len(G)
        return G

    pu2, _ = drv.stokes_project(grad_load(drv.u_space, grad_func, 6))
    scale = max(np.abs(pu1.coeffs).max(), 1e-30)
    assert np.abs(pu2.coeffs - pu1.coeffs).max() <= 1e-10 * scale


def test_stokes_project_convergence_rate():
    # the manufactured velocity enters the second-order regime slowly; the
    # finest halving-free pair n=8 -> n=10 is the observed-rate sample
    case = builtin_case("normal_B")
    errs = []
    for n in (4, 8, 10):
        mesh = unit_cube_mesh(n)
        drv = MhdDriver(mesh, case.params())
        pu, _ = drv.stokes_project(grad_load(drv.u_space, case.grad_u, 8))
        rule = quadrature_rule(8)
        wdet = quadrature_weights(mesh, rule)
        x = physical_points(mesh, rule.points).reshape(-1, 3)
        G = evaluate_grad_on_cells(pu, rule.points)
        dG = G - case.grad_u(x).reshape(G.shape)
        V = evaluate_on_cells(pu, rule.points)
        dV = V - case.u(x).reshape(V.shape)
        errs.append(
            float(
                np.sqrt(
                    np.einsum("cq,cqij,cqij->", wdet, dG, dG)
                    + np.einsum("cq,cqd,cqd->", wdet, dV, dV)
                )
            )
        )
    assert errs[0] > errs[1] > errs[2]
    rate = np.log(errs[1] / errs[2]) / np.log(10.0 / 8.0)
    assert rate >= 1.9


def test_stokes_project_singular_system_is_a_driver_error(mesh1):
    # on the one-cube mesh the velocity/pressure pair is unstable; the
    # CLI reports a driver error as a failed run, not a traceback
    drv = MhdDriver(mesh1, MhdParams())
    with pytest.raises(MhdError, match="Stokes system singular"):
        drv.stokes_project(np.zeros(drv.u_space.num_free))


def test_a_projection_refuses_a_load_of_the_wrong_shape(mesh2):
    # a one-entry load would broadcast over the velocity rows of S
    drv = MhdDriver(mesh2, MhdParams())
    for project, space in ((drv.stokes_project, drv.u_space), (drv.divfree_project, drv.B_space)):
        for load in (np.zeros(1), np.zeros(space.num_free + 1), np.zeros((space.num_free, 1))):
            with pytest.raises(MhdError, match="a load of shape"):
                project(load)


# ----------------------------------------------------------------------
# divergence-free L^2 projection


@pytest.mark.parametrize("bc_family", ["normal_B", "tangential_B"], ids=["flux_zero", "free"])
def test_divfree_project_divergence_vanishes(mesh2, monkeypatch, bc_family):
    # the projection is a curl of a cotree potential: once the driver
    # is built, no matrix is factored
    case = builtin_case(bc_family)
    drv = MhdDriver(mesh2, case.params())
    shapes = []
    init = linalg.Factorization.__init__
    monkeypatch.setattr(
        linalg.Factorization, "__init__", lambda lu, A: shapes.append(A.shape) or init(lu, A)
    )
    out = drv.divfree_project(assemble_linear(drv.B_space, case.B))
    assert shapes == []
    scale = max(np.abs(out.coeffs).max(), 1e-30)
    assert np.abs(evaluate_div_on_cells(out)).max() <= 1e-12 * scale


@pytest.mark.parametrize("bc_family", ["normal_B", "tangential_B"])
def test_divfree_project_matches_the_bordered_saddle(mesh2, bc_family):
    case = builtin_case(bc_family)
    drv = MhdDriver(mesh2, case.params())
    out = drv.divfree_project(assemble_linear(drv.B_space, case.B))
    ref = divfree_saddle(drv.B_space, case.B)
    assert np.abs(out.coeffs[drv.B_space.free] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_divfree_project_reproduces_member(mesh2, topo2):
    drv = MhdDriver(mesh2, MhdParams())
    ned = drv.E_space
    F0 = np.zeros(ned.ndof)
    F0[ned.free] = RNG.standard_normal(ned.num_free)
    member = FieldFunction(drv.B_space, topo2.curl_incidence @ F0)
    out = drv.divfree_project(assemble_linear(drv.B_space, _field_as_callable(member)))
    scale = max(np.abs(member.coeffs).max(), 1e-30)
    assert np.abs(out.coeffs - member.coeffs).max() <= 1e-10 * scale


def test_divfree_project_optimality(mesh2):
    # the constrained projection beats canonical interpolation of the
    # divergence-free exact field in the L^2 distance
    case = builtin_case("normal_B")
    drv = MhdDriver(mesh2, case.params())
    proj = drv.divfree_project(assemble_linear(drv.B_space, case.B))
    interp = canonical_interpolate(drv.B_space, case.B)
    rule = quadrature_rule(8)
    wdet = quadrature_weights(mesh2, rule)
    x = physical_points(mesh2, rule.points).reshape(-1, 3)

    def err(field):
        d = evaluate_on_cells(field, rule.points)
        d = d - case.B(x).reshape(d.shape)
        return float(np.sqrt(np.einsum("cq,cqd,cqd->", wdet, d, d)))

    assert err(proj) <= err(interp) + 1e-10


# ----------------------------------------------------------------------
# norms


def test_lp_norm_oracles(mesh2, topo2):
    # (x, 0, 0) lies in the P2 space, and x >= 0 makes |x|^3 a polynomial
    u = make_space("lagrange_p2_vector", "none", mesh2, topo2)
    xfield = canonical_interpolate(
        u, lambda x: np.stack([x[:, 0], 0 * x[:, 0], 0 * x[:, 0]], axis=1)
    )
    assert lp_norm(xfield, 2) == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-12)
    assert lp_norm(xfield, 3) == pytest.approx(0.25 ** (1.0 / 3.0), rel=1e-12)
    ned = make_space("nedelec1_lowest", "none", mesh2, topo2)
    const = canonical_interpolate(ned, lambda x: np.tile([1.0, 0.0, 0.0], (len(x), 1)))
    assert lp_norm(const, 3) == pytest.approx(1.0, rel=1e-12)
    assert lp_norm(FieldFunction.zeros(ned), 2) == 0.0
    with pytest.raises(OperatorError):
        lp_norm(const, 4)


KINDS = ("lagrange_p1", "dg0", "nedelec1_lowest", "rt_lowest", "lagrange_p2_vector")


@pytest.mark.parametrize("block_values", [1, 1000, operators.LP_BLOCK_VALUES])
@pytest.mark.parametrize("kind", KINDS)
def test_lp_norms_of_a_block_match_each_field_on_all_cells(
    mesh2, topo2, monkeypatch, kind, block_values
):
    # from one cell per block, through blocks that cut the last one
    # short, to all of mesh2's 48 cells in one block
    monkeypatch.setattr(operators, "LP_BLOCK_VALUES", block_values)
    space = make_space(kind, "none", mesh2, topo2)
    coeffs = RNG.standard_normal((space.ndof, 5))
    coeffs[:, 3] = 0.0
    for p, degree in ((2, 4), (3, 6)):
        got = operators.lp_norms(space, coeffs, p, quad_degree=degree)
        want = [
            lp_norm_on_all_cells(FieldFunction(space, c), p, degree) for c in coeffs.T
        ]
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
        assert got[3] == 0.0
        assert operators.lp_norms(space, coeffs[:, :0], p, quad_degree=degree).shape == (0,)
        one = lp_norm(FieldFunction(space, coeffs[:, 0]), p, quad_degree=degree)
        assert one == pytest.approx(got[0], rel=1e-13, abs=0.0)


@pytest.mark.parametrize("bc_family", ["normal_B", "tangential_B"], ids=["essential_zero", "none"])
def test_curl_norms_of_a_block_match_each_field(mesh2, topo2, bc_family):
    dcurl = DiscreteCurl(mesh2, topo2, bc_family)
    rt = dcurl.div_space
    coeffs = RNG.standard_normal((rt.ndof, 4))
    coeffs[:, 1] = 0.0
    got = dcurl.norms(coeffs)
    want = [lp_norm(discrete_curl(dcurl, FieldFunction(rt, c)), 2, quad_degree=4) for c in coeffs.T]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert got[1] == 0.0
    assert dcurl.norm(FieldFunction(rt, coeffs[:, 0])) == pytest.approx(got[0], rel=1e-12)
    assert dcurl.norms(coeffs[:, :0]).shape == (0,)


def test_block_kernels_reject_a_block_of_another_space(mesh2, topo2):
    dcurl = DiscreteCurl(mesh2, topo2, "tangential_B")
    ned, rt = dcurl.curl_space, dcurl.div_space
    for coeffs in (np.ones((ned.ndof, 2)), np.ones(rt.ndof)):
        with pytest.raises(OperatorError, match="coefficients of shape"):
            dcurl.norms(coeffs)
        with pytest.raises(OperatorError, match="coefficients of shape"):
            operators.lp_norms(rt, coeffs, 3)


@pytest.mark.parametrize("bc_family", ["normal_B", "tangential_B"])
def test_w_norm_matches_quadrature(mesh2, bc_family):
    # each part of the driver's W-norm, a quadratic form of its assembled
    # matrices, is the quadrature of the same fields
    drv = MhdDriver(mesh2, MhdParams(bc_family=bc_family))
    parts = ("u", "B_div", "curl_h", "B", "total")
    zero = drv.zero_state()
    assert all(getattr(drv.w_norm(zero.u, zero.B), k) == 0.0 for k in parts)
    for _ in range(3):
        u, B = (
            FieldFunction.from_free(s, RNG.standard_normal(s.num_free))
            for s in (drv.u_space, drv.B_space)
        )
        norm, ref = drv.w_norm(u, B), w_norm_parts(drv, u, B)
        for k in parts:
            assert getattr(norm, k) == pytest.approx(ref[k], rel=1e-13), k


def test_norms_never_tabulate_a_basis(mesh2, topo2, monkeypatch):
    # fields are evaluated through the per-mesh coefficient tables, never
    # through an (nc, nq, nloc, 3) basis table built on every call
    u = make_space("lagrange_p2_vector", "essential_zero", mesh2, topo2)
    dcurl = DiscreteCurl(mesh2, topo2, "normal_B")
    uh, E, B = (
        FieldFunction(s, RNG.standard_normal(s.ndof))
        for s in (u, dcurl.curl_space, dcurl.div_space)
    )
    calls = []
    for name in ("basis_values",):

        def spy(*args, _name=name, _real=getattr(derham, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(derham, name, spy)
    lp_norm(E, 3)
    lp_norm(B, 3)
    lp_norm(discrete_curl(dcurl, B), 2)
    h1_seminorm(uh)
    assert calls == []


def test_velocity_dual_norm(mesh2):
    # the driver's sup <f, v> / |grad v| is (f . K^-1 f)^(1/2)
    case = builtin_case("normal_B")
    drv = MhdDriver(mesh2, case.params(), case.sources())
    f = drv.load_f
    expected = np.sqrt(f @ np.linalg.solve(drv.K_u.toarray(), f))
    assert expected > 0
    assert drv.dual_f == pytest.approx(expected, rel=1e-10)


def test_velocity_dual_norm_raises_when_contract_is_missed(mesh2, monkeypatch):
    case = builtin_case("normal_B")
    monkeypatch.setattr(linalg, "RESIDUAL_TOL", 1e-30)
    with pytest.raises(linalg.LinAlgError, match="residual"):
        MhdDriver(mesh2, case.params(), case.sources())


# ----------------------------------------------------------------------
# sampled stability ratios of the discretely divergence-free family


@pytest.mark.parametrize("bc_family", ["normal_B", "tangential_B"], ids=["essential_zero", "none"])
def test_poincare_and_l3_ratios_bounded(bc_family):
    # curls of edge fields are discretely div-free; their L2 and L3 norms
    # stay controlled by the weak curl, with the bound improving under
    # refinement (checked with 10% slack)
    maxima = []
    for n in (1, 2):
        mesh = unit_cube_mesh(n)
        topo = build_topology(mesh)
        dcurl = DiscreteCurl(mesh, topo, bc_family)
        ned, rt = dcurl.curl_space, dcurl.div_space
        mx_l2 = mx_l3 = 0.0
        for _ in range(50):
            F = np.zeros(ned.ndof)
            F[ned.free] = RNG.standard_normal(ned.num_free)
            d = topo.curl_incidence @ F
            norm = np.linalg.norm(d)
            if norm == 0.0:
                continue
            B = FieldFunction(rt, d / norm)
            assert np.abs(evaluate_div_on_cells(B)).max() <= 1e-12
            denom = lp_norm(discrete_curl(dcurl, B), 2)
            assert denom > 0
            mx_l2 = max(mx_l2, lp_norm(B, 2) / denom)
            mx_l3 = max(mx_l3, lp_norm(B, 3) / denom)
        assert np.isfinite(mx_l2) and np.isfinite(mx_l3)
        maxima.append((mx_l2, mx_l3))
    assert maxima[1][0] <= 1.10 * maxima[0][0]
    assert maxima[1][1] <= 1.10 * maxima[0][1]
