"""Contact-coordinate resolution against an n-space reference.

The reference functions below are the reflection cascade, the outcome
enumeration and the plastic projection as they were written before the
resolution moved to contact coordinates: every reflection updates the
full momentum and every inner product goes through a fresh solve
against the mass matrix. The resolver must reproduce their sequences,
statuses and branch counts exactly and their momenta, impulses and xi
to 1e-12, and must solve against the mass matrix once per call.
"""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpact import metric as mt
from simpact import resolution
from simpact.cli import build_model, load_config
from simpact.design import legtail_orthogonality_problem, solve_orthogonal, xi_at_optimum
from simpact.errors import DegenerateNormalsError
from simpact.models import BilliardsModel, LegTailModel, billiards_pair_inner
from simpact.metric import (
    DEADBAND,
    ContactFrame,
    KineticMetric,
    is_feasible,
    norm,
)
from simpact.resolution import (
    CascadePolicy,
    CascadeStatus,
    EnumerationResult,
    elastic_cascade,
    enumerate_outcomes,
    inelastic_resolve,
    ImpactKind,
    ImpactOutcome,
    plastic_resolve,
    two_contact_reflection_bound,
)
from simpact.stepper import StepperConfig, _Sim
from simpact.uniqueness import classify_pair, indeterminacy_xi, outcome_xi, verify_commutation

from conftest import pair_with_inner, random_metric, random_unit_covector

RTOL = 1e-12

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# ---------------------------------------------------------------------------
# n-space reference


def _ref_scales(metric, rows):
    duals = [metric.dual(r) for r in rows]
    norms2 = np.array([float(r @ d) for r, d in zip(rows, duals)])
    return duals, norms2, 1.0 / np.sqrt(norms2)


def ref_cascade(metric, p_minus, normals, policy, feas_tol=0.0):
    rows = [np.asarray(u, float) for u in normals]
    p = np.asarray(p_minus, float).copy()
    duals, norms2, scales = _ref_scales(metric, rows)
    dual_mat = np.asarray(duals)
    if len(rows) == 2:
        c = mt.inner(metric, rows[0], rows[1]) / (norm(metric, rows[0]) * norm(metric, rows[1]))
        cap = math.ceil(math.pi / math.asin(math.sqrt((1.0 + c) / 2.0)))
    elif len(rows) == 1:
        cap = 1
    else:
        cap = policy.max_steps
    sequence, impulses = [], []
    status = CascadeStatus.CONVERGED
    while True:
        values = (dual_mat @ p) * scales
        infeasible = np.flatnonzero(values < -feas_tol)
        if infeasible.size == 0:
            break
        if len(sequence) >= cap:
            status = CascadeStatus.STEP_CAP_EXCEEDED
            break
        if sequence and sequence[-1] in infeasible:
            infeasible = infeasible[infeasible != sequence[-1]]
            if infeasible.size == 0:
                break
        if policy.variant == "most-violating":
            k = int(infeasible[np.argmin(values[infeasible])])
        elif policy.variant == "least-violating":
            k = int(infeasible[np.argmax(values[infeasible])])
        else:
            k = next(i for i in policy.order if i in infeasible)
        lam = -2.0 * float(p @ duals[k]) / norms2[k]
        p = p + lam * rows[k]
        sequence.append(k)
        impulses.append(lam)
    return p, sequence, impulses, status


def ref_enumerate(metric, p_minus, normals, depth_cap, feas_tol=0.0, dedup_rtol=1e-9):
    rows = [np.asarray(u, float) for u in normals]
    p0 = np.asarray(p_minus, float).copy()
    duals, norms2, scales = _ref_scales(metric, rows)
    dual_mat = np.asarray(duals)
    dedup_tol = dedup_rtol * max(norm(metric, p0), 1e-300)
    outcomes, state = [], {"truncated": False, "explored": 0}

    def visit(p, sequence, impulses):
        state["explored"] += 1
        values = (dual_mat @ p) * scales
        infeasible = [
            int(i)
            for i in np.flatnonzero(values < -feas_tol)
            if not sequence or i != sequence[-1]
        ]
        if not infeasible:
            if all(norm(metric, p - prior[0]) >= dedup_tol for prior in outcomes):
                outcomes.append((p, tuple(sequence), tuple(impulses)))
            return
        if len(sequence) >= depth_cap:
            state["truncated"] = True
            return
        for k in infeasible:
            lam = -2.0 * float(p @ duals[k]) / norms2[k]
            visit(p + lam * rows[k], sequence + [k], impulses + [lam])

    visit(p0, [], [])
    return outcomes, state["truncated"], state["explored"]


def ref_span_coefficients(metric, p, rows):
    duals = [metric.dual(r) for r in rows]
    gram = np.array([[r @ d for d in duals] for r in rows])
    return np.linalg.solve(gram, np.array([p @ d for d in duals]))


def ref_plastic(metric, p, rows):
    coeffs = ref_span_coefficients(metric, p, rows)
    return p - coeffs @ np.asarray(rows), -coeffs


# ---------------------------------------------------------------------------
# Instances

SHAPES = ("generic", "narrow-wedge", "near-parallel", "criterion-2", "orthogonal", "three-stage")
PAIR_INNER = {"narrow-wedge": -0.995, "near-parallel": 0.995, "orthogonal": 0.0, "three-stage": -0.5}


def _unit_rows(metric, rng, k):
    rows = [rng.standard_normal(metric.dim) for _ in range(k)]
    return [r / norm(metric, r) for r in rows]


def pair_momentum(metric, rng, u, v):
    """A momentum infeasible for both unit normals ``u`` and ``v``.

    ``p = -u - t v`` plus a null-space part, with ``t`` drawn from the
    open interval where both inner products are negative. Unlike the
    ``-u - v`` fallback of ``doubly_infeasible_momentum``, it never
    violates both normals equally: between exactly tied normals the
    policies choose by round-off, in the reference as in the resolver.
    """
    c = mt.inner(metric, u, v)
    lo, hi = max(-c, 0.2), min(-1.0 / c if c < 0.0 else math.inf, 5.0)
    t = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
    return -u - t * v + plastic_resolve(metric, rng.standard_normal(metric.dim), [u, v]).p_plus


def build_instance(seed, shape, k, extra_dim):
    """Metric, normals and an incoming momentum infeasible for some normal.

    Pair shapes use two normals at the named unit inner product;
    ``criterion-2`` draws the pair as acceptance criterion 2 does.
    """
    rng = np.random.default_rng(seed)
    if shape != "generic":
        k = 2
    metric = random_metric(rng, k + extra_dim)
    if shape == "generic":
        normals = _unit_rows(metric, rng, k)
        weights = rng.uniform(0.2, 2.0, size=k)
        p = -weights @ np.asarray(normals) + 0.5 * rng.standard_normal(metric.dim)
    else:
        if shape == "criterion-2":
            normals = [random_unit_covector(metric, rng) for _ in range(2)]
        else:
            normals = list(pair_with_inner(metric, rng, PAIR_INNER[shape]))
        p = pair_momentum(metric, rng, *normals)
    # Rescale the normals: nothing may depend on their magnitudes.
    normals = [s * u for s, u in zip(rng.uniform(0.5, 2.0, size=len(normals)), normals)]
    return metric, normals, p


def make_policy(name, k, seed):
    if name == "fixed":
        return CascadePolicy.fixed(np.random.default_rng(seed + 1).permutation(k))
    return CascadePolicy.parse(name)


instances = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from(SHAPES),
    st.integers(1, 4),
    st.integers(0, 3),
    st.sampled_from(("most-violating", "least-violating", "fixed")),
)


def pair_rtol(metric, normals):
    """RTOL, widened by ``0.005 / (1 - |c|)`` for pairs with |c| above 0.995.

    The round-off of both the reference and the resolver grows with the
    conditioning ``1 / (1 - |c|)`` of the pair, and wedges near c = -1
    also take up to ``pi * sqrt(2 / (1 - |c|))`` reflections.
    """
    if len(normals) != 2:
        return RTOL
    c = abs(ContactFrame(metric, normals).pair_cosine())
    return RTOL * max(1.0, 0.005 / (1.0 - c))


def assert_close(got, want, scale, rtol=RTOL):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    if got.size:
        assert np.abs(got - want).max() <= rtol * scale


def _momentum_scale(p, normals, sequence, impulses):
    """Largest term of ``p + sum(impulse * normal)``, the scale of its round-off."""
    terms = [np.abs(p).max()] + [
        abs(lam) * np.abs(normals[k]).max() for k, lam in zip(sequence, impulses)
    ]
    return max(terms)


def _scale(values):
    return max(float(np.abs(np.asarray(values, float)).max(initial=0.0)), 1e-300)


def _gram_scale(metric, normals, values):
    """Scale for coefficients solved from the Gram matrix.

    Round-off in the Gram matrix moves its solution by about eps times
    the condition number, in the reference as in the resolver, so the
    1e-12 bound widens once the conditioning passes about 5e3.
    """
    cond = np.linalg.cond(ContactFrame(metric, normals).gram)
    return _scale(values) * max(1.0, np.finfo(float).eps * cond / RTOL)


# ---------------------------------------------------------------------------
# Oracle properties


@settings(max_examples=300, deadline=None)
@given(case=instances)
def test_cascade_matches_reference(case):
    seed, shape, k, extra, policy_name = case
    metric, normals, p = build_instance(seed, shape, k, extra)
    policy = make_policy(policy_name, len(normals), seed)
    out = elastic_cascade(metric, p, normals, policy)
    ref_p, ref_seq, ref_imp, ref_status = ref_cascade(metric, p, normals, policy)
    assert out.sequence == tuple(ref_seq)
    assert out.status is ref_status
    rtol = pair_rtol(metric, normals)
    p_scale = _momentum_scale(p, normals, ref_seq, ref_imp)
    assert_close(out.p_plus, ref_p, p_scale, rtol)
    assert_close(out.impulses, ref_imp, _scale(ref_imp), rtol)
    # Exact elastic energy, and a feasible exit when converged.
    assert norm(metric, out.p_plus) == pytest.approx(norm(metric, p), rel=rtol)
    if out.converged:
        assert is_feasible(metric, out.p_plus, normals, DEADBAND * p_scale)


# ---------------------------------------------------------------------------
# The float cascade against the array loop it replaced


def array_loop_cascade(frame, policy):
    """The contact-coordinate cascade as an array loop: one numpy update per reflection."""
    k_count = len(frame)
    if k_count == 2:
        cap = resolution._pair_bound(frame.pair_cosine())
    elif k_count == 1:
        cap = 1
    else:
        cap = policy.max_steps

    a = frame.a.copy()
    lam = np.zeros(k_count)
    sequence: list[int] = []
    impulses: list[float] = []
    status = CascadeStatus.CONVERGED
    while True:
        values = a * frame.scales
        infeasible = (values < 0.0).nonzero()[0]
        if infeasible.size == 0:
            break
        if len(sequence) >= cap:
            status = CascadeStatus.STEP_CAP_EXCEEDED
            break
        if sequence and sequence[-1] in infeasible:
            infeasible = infeasible[infeasible != sequence[-1]]
            if infeasible.size == 0:
                break
        if policy.variant == "most-violating":
            k = int(infeasible[np.argmin(values[infeasible])])
        elif policy.variant == "least-violating":
            k = int(infeasible[np.argmax(values[infeasible])])
        else:
            k = next(i for i in policy.order if i in infeasible)
        step = -2.0 * float(a[k]) / frame.norms2[k]
        a += step * frame.gram[:, k]
        lam[k] += step
        sequence.append(k)
        impulses.append(step)
    outcome = ImpactOutcome(
        p_plus=frame.momentum(lam),
        sequence=tuple(sequence),
        impulses=tuple(impulses),
        status=status,
        kind=ImpactKind.ELASTIC,
    )
    return outcome, lam


def assert_cascade_bitwise_equal(frame, policy):
    """Sequence, impulses, status, impulse sums and momentum equal, with no tolerance."""
    got, lam = resolution._cascade(frame, policy)
    want, want_lam = array_loop_cascade(frame, policy)
    assert got.sequence == want.sequence
    assert got.impulses == want.impulses
    assert all(type(x) is float for x in got.impulses)
    assert got.status is want.status
    assert np.array_equal(lam, want_lam)
    assert np.array_equal(got.p_plus, want.p_plus)
    return got


@settings(max_examples=400, deadline=None)
@given(case=instances, max_steps=st.sampled_from((1, 2, 3, resolution.DEFAULT_MAX_STEPS)))
def test_cascade_bitwise_equals_array_loop(case, max_steps):
    seed, shape, k, extra, policy_name = case
    metric, normals, p = build_instance(seed, shape, k, extra)
    policy = replace(make_policy(policy_name, len(normals), seed), max_steps=max_steps)
    assert_cascade_bitwise_equal(ContactFrame(metric, normals, p), policy)


def _wedge(c):
    """Unit normals at inner product ``c`` and a momentum violating both."""
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([c, math.sqrt(1.0 - c * c), 0.0])
    return [u, v], -0.7 * u - 0.4 * v + np.array([0.0, 0.0, 0.3])


@pytest.mark.parametrize("c", [-0.995, -0.5, 0.0, 0.995])
@pytest.mark.parametrize("policy_name", ["most-violating", "least-violating", "fixed:0,1", "fixed:1,0"])
def test_wedge_cascades_bitwise_equal_array_loop(c, policy_name):
    normals, p = _wedge(c)
    metric = KineticMetric(np.diag([1.0, 2.5, 0.7]))
    out = assert_cascade_bitwise_equal(
        ContactFrame(metric, normals, p), CascadePolicy.parse(policy_name)
    )
    assert out.converged


@pytest.mark.parametrize("order, length", [((0, 1), 4199), ((1, 0), 4198)])
def test_criterion_2_wedge_bitwise_equals_array_loop(order, length):
    metric = KineticMetric(np.eye(3))
    normals, _ = _wedge(-0.99999972)
    p = np.array([-1e-5, -1.0, 0.2])
    out = assert_cascade_bitwise_equal(
        ContactFrame(metric, normals, p), CascadePolicy.fixed(order)
    )
    assert len(out.sequence) == length


def test_cradle_boundary_cascade_bitwise_equals_array_loop():
    # Three equal balls, the first moving: after u and then v the inner
    # product with u is exactly 0.0, so the cascade stops at (0, 1).
    metric = KineticMetric(np.eye(3))
    normals = [np.array([-1.0, 1.0, 0.0]), np.array([0.0, -1.0, 1.0])]
    frame = ContactFrame(metric, normals, np.array([1.0, 0.0, 0.0]))
    out = assert_cascade_bitwise_equal(frame, CascadePolicy.most_violating())
    assert out.sequence == (0, 1)
    assert float(normals[0] @ metric.dual(out.p_plus)) == 0.0
    np.testing.assert_array_equal(out.p_plus, [0.0, 0.0, 1.0])


@pytest.mark.parametrize("max_steps", [1, 2, 3])
def test_capped_cradle_cascade_bitwise_equals_array_loop(max_steps):
    # Four equal balls need three reflections, so smaller caps overrun.
    metric = KineticMetric(np.eye(4))
    normals = [np.eye(4)[i + 1] - np.eye(4)[i] for i in range(3)]
    frame = ContactFrame(metric, normals, np.array([1.0, 0.0, 0.0, 0.0]))
    out = assert_cascade_bitwise_equal(frame, CascadePolicy.most_violating(max_steps))
    assert out.converged is (max_steps == 3)
    assert len(out.sequence) == max_steps


@settings(max_examples=200, deadline=None)
@given(case=instances)
def test_enumeration_matches_reference(case):
    seed, shape, k, extra, _ = case
    metric, normals, p = build_instance(seed, shape, k, extra)
    depth_cap = 64 if len(normals) <= 2 else 6
    found = enumerate_outcomes(metric, p, normals, depth_cap)
    ref_out, ref_truncated, ref_explored = ref_enumerate(metric, p, normals, depth_cap)
    assert found.truncated == ref_truncated
    assert found.branches_explored == ref_explored
    assert len(found) == len(ref_out)
    rtol = pair_rtol(metric, normals)
    for got, (ref_p, ref_seq, ref_imp) in zip(found.outcomes, ref_out):
        assert got.sequence == ref_seq
        p_scale = _momentum_scale(p, normals, ref_seq, ref_imp)
        assert_close(got.p_plus, ref_p, p_scale, rtol)
        assert_close(got.impulses, ref_imp, _scale(ref_imp), rtol)
        assert is_feasible(metric, got.p_plus, normals, DEADBAND * p_scale)
    # Pairwise xi against distances taken one solve at a time.
    xi_max, xi_mean = outcome_xi(metric, p, found.outcomes)
    gaps = [
        norm(metric, a[0] - b[0]) / norm(metric, p)
        for i, a in enumerate(ref_out)
        for b in ref_out[i + 1 :]
    ]
    if gaps:
        assert xi_max == pytest.approx(max(gaps), rel=rtol, abs=rtol)
        assert xi_mean == pytest.approx(float(np.mean(gaps)), rel=rtol, abs=rtol)
    else:
        assert (xi_max, xi_mean) == (0.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(case=instances, restitution=st.floats(0.0, 1.0))
def test_plastic_and_inelastic_match_reference(case, restitution):
    seed, shape, k, extra, policy_name = case
    metric, normals, p = build_instance(seed, shape, k, extra)
    policy = make_policy(policy_name, len(normals), seed)
    ref_pe, ref_seq, ref_imp_e, ref_status = ref_cascade(metric, p, normals, policy)
    ref_pp, ref_lam_p = ref_plastic(metric, p, normals)
    p_scale = max(
        _momentum_scale(p, normals, ref_seq, ref_imp_e),
        _momentum_scale(p, normals, range(len(normals)), ref_lam_p),
    )
    rtol = pair_rtol(metric, normals)

    plastic = plastic_resolve(metric, p, normals)
    assert_close(plastic.p_plus, ref_pp, p_scale, rtol)
    assert_close(plastic.impulses, ref_lam_p, _gram_scale(metric, normals, ref_lam_p))

    out = inelastic_resolve(metric, p, normals, restitution, policy)
    assert out.status is ref_status
    ref_p = restitution * ref_pe + (1.0 - restitution) * ref_pp
    assert_close(out.p_plus, ref_p, p_scale, rtol)
    # The net impulses blend the elastic and plastic impulse sums, which
    # set the scale of their round-off.
    ref_imp = ref_span_coefficients(metric, ref_p - p, normals)
    blended = np.concatenate([ref_imp_e, ref_lam_p])
    assert_close(out.impulses, ref_imp, _gram_scale(metric, normals, blended))
    # The energy split |p+|^2 = R^2 |p_e|^2 + (1 - R^2) |p_p|^2.
    r2 = restitution * restitution
    split = r2 * norm(metric, ref_pe) ** 2 + (1.0 - r2) * norm(metric, ref_pp) ** 2
    assert norm(metric, out.p_plus) ** 2 == pytest.approx(split, rel=1e-9, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(SHAPES[1:]),
    extra=st.integers(0, 3),
)
def test_pair_measures_match_reference(seed, shape, extra):
    metric, (u, v), p = build_instance(seed, shape, 2, extra)
    first = ref_cascade(metric, p, [u, v], CascadePolicy.fixed((0, 1)))[0]
    second = ref_cascade(metric, p, [u, v], CascadePolicy.fixed((1, 0)))[0]
    ref_xi = norm(metric, first - second) / norm(metric, p)
    rtol = pair_rtol(metric, [u, v])
    assert indeterminacy_xi(metric, p, u, v) == pytest.approx(ref_xi, rel=rtol, abs=rtol)
    ref_c = mt.inner(metric, u, v) / (norm(metric, u) * norm(metric, v))
    assert classify_pair(metric, u, v).inner_value == pytest.approx(ref_c, abs=RTOL)


# ---------------------------------------------------------------------------
# Many-contact enumeration against a per-prior deduplication


def prior_loop_enumerate(metric, p_minus, normals, depth_cap, dedup_rtol=1e-9):
    """The contact-coordinate search with a scalar distance per found outcome."""
    frame = ContactFrame(metric, normals, p_minus)
    dedup_tol = dedup_rtol * max(math.sqrt(max(frame.p_norm2, 0.0)), 1e-300)
    found, state = [], {"truncated": False, "explored": 0}

    def visit(a, lam, sequence, impulses):
        state["explored"] += 1
        values = a * frame.scales
        infeasible = [
            int(i)
            for i in (values < 0.0).nonzero()[0]
            if not sequence or i != sequence[-1]
        ]
        if not infeasible:
            for prior, _ in found:
                if frame.distance(lam, prior) < dedup_tol:
                    return
            outcome = ImpactOutcome(
                p_plus=frame.momentum(lam),
                sequence=tuple(sequence),
                impulses=tuple(impulses),
                status=CascadeStatus.CONVERGED,
                kind=ImpactKind.ELASTIC,
            )
            found.append((lam, outcome))
            return
        if len(sequence) >= depth_cap:
            state["truncated"] = True
            return
        for k in infeasible:
            step = -2.0 * float(a[k]) / frame.norms2[k]
            branch = lam.copy()
            branch[k] += step
            visit(a + step * frame.gram[:, k], branch, sequence + [k], impulses + [step])

    visit(frame.a, np.zeros(len(frame)), [], [])
    outcomes = tuple(out for _, out in found)
    return EnumerationResult(outcomes, state["truncated"], state["explored"])


def stacked_difference_xi(metric, p_minus, outcomes):
    """Pairwise xi from one solve over every pairwise difference at once."""
    rows = [np.asarray(p_minus, float)] + [
        a.p_plus - b.p_plus for i, a in enumerate(outcomes) for b in outcomes[i + 1 :]
    ]
    stacked = np.array(rows)
    norms2 = np.einsum("ij,ji->i", stacked, np.linalg.solve(metric.mass, stacked.T))
    norms = np.sqrt(np.maximum(norms2, 0.0))
    if norms[0] == 0.0 or len(outcomes) < 2:
        return 0.0, 0.0
    gaps = norms[1:] / norms[0]
    return float(gaps.max()), float(np.mean(gaps))


def many_contact_instance(seed, k, kind, extra):
    """Three or four normals; ``chain`` instances have merged outcomes.

    A chain is Newton's cradle with random masses and every ball faster
    than its right neighbour: non-adjacent contacts are orthogonal, so
    reflection orders that differ by commuting steps reach one outcome.
    """
    if kind == "generic":
        return build_instance(seed, "generic", k, extra)
    rng = np.random.default_rng(seed)
    n = k + 1
    masses = rng.uniform(0.05, 2.0, n)
    normals = [np.eye(n)[i + 1] - np.eye(n)[i] for i in range(k)]
    p = masses * np.sort(rng.uniform(-1.0, 1.0, n))[::-1]
    return KineticMetric(np.diag(masses)), normals, p


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(3, 4),
    kind=st.sampled_from(("generic", "chain")),
    extra=st.integers(0, 3),
    depth_cap=st.integers(3, 9),
)
def test_many_contact_enumeration_matches_prior_loop(seed, k, kind, extra, depth_cap):
    metric, normals, p = many_contact_instance(seed, k, kind, extra)
    found = enumerate_outcomes(metric, p, normals, depth_cap)
    ref = prior_loop_enumerate(metric, p, normals, depth_cap)
    assert (found.truncated, found.branches_explored) == (ref.truncated, ref.branches_explored)
    assert len(found) == len(ref)
    for got, want in zip(found.outcomes, ref.outcomes):
        assert (got.sequence, got.impulses, got.status, got.kind) == (
            want.sequence,
            want.impulses,
            want.status,
            want.kind,
        )
        np.testing.assert_array_equal(got.p_plus, want.p_plus)
    xi = outcome_xi(metric, p, found.outcomes)
    ref_xi = stacked_difference_xi(metric, p, ref.outcomes)
    assert xi == pytest.approx(ref_xi, rel=RTOL, abs=0.0)


def generated_four_contact_instance():
    """Four random unit normals under a random metric with 671 outcomes.

    Gaussian normals, a random SPD mass matrix and a momentum violating
    every normal, drawn from a fixed seed; at depth 16 the search visits
    2,771 branches.
    """
    rng = np.random.default_rng([20171009, 4, 41])
    n = int(rng.integers(4, 9))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mass = (q * np.exp(rng.uniform(-2.0, 2.0, n))) @ q.T
    inv = np.linalg.inv(mass)
    normals = rng.standard_normal((4, n))
    normals /= np.sqrt(np.einsum("ij,jk,ik->i", normals, inv, normals))[:, None]
    p = -rng.uniform(0.5, 1.5, 4) @ normals + 0.3 * rng.standard_normal(n)
    return KineticMetric(mass), list(normals), p


def test_many_outcomes_in_one_solve_and_linear_memory(mass_solves):
    metric, normals, p = generated_four_contact_instance()
    solves, found = mass_solves(metric, lambda: enumerate_outcomes(metric, p, normals, 16))
    assert len(found) >= 500 and not found.truncated
    assert solves == 1
    solves, _ = mass_solves(metric, lambda: outcome_xi(metric, p, found.outcomes))
    assert solves == 1
    # Every pairwise difference at once would take about 225k rows.
    tracemalloc.start()
    try:
        xi_max, xi_mean = outcome_xi(metric, p, found.outcomes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert 0.0 < xi_mean < xi_max


def _assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.sequence, a.impulses, a.status, a.kind) == (
            b.sequence,
            b.impulses,
            b.status,
            b.kind,
        )
        np.testing.assert_array_equal(a.p_plus, b.p_plus)


def test_many_outcome_instance_matches_prior_loop():
    metric, normals, p = generated_four_contact_instance()
    found = enumerate_outcomes(metric, p, normals, 16)
    ref = prior_loop_enumerate(metric, p, normals, 16)
    assert (found.truncated, found.branches_explored) == (False, 2771)
    assert ref.branches_explored == 2771
    _assert_same_outcomes(found.outcomes, ref.outcomes)
    xi = outcome_xi(metric, p, found.outcomes)
    ref_xi = stacked_difference_xi(metric, p, ref.outcomes)
    assert xi == pytest.approx(ref_xi, rel=RTOL, abs=0.0)


def test_branch_budget_truncates_to_a_prefix(monkeypatch):
    metric, normals, p = generated_four_contact_instance()
    full = enumerate_outcomes(metric, p, normals, 16)
    monkeypatch.setattr(resolution, "MAX_BRANCHES", 100)
    cut = enumerate_outcomes(metric, p, normals, 16)
    assert cut.branches_explored == 100
    assert cut.truncated
    assert 0 < len(cut) < len(full)
    _assert_same_outcomes(cut.outcomes, full.outcomes[: len(cut)])


def test_narrow_wedge_deeper_than_the_recursion_limit():
    # Two normals 179.96 degrees apart: each order alternates about 4,200
    # times before the momentum is feasible.
    metric = KineticMetric(np.eye(3))
    c = -0.99999972
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([c, math.sqrt(1.0 - c * c), 0.0])
    p = np.array([-1e-5, -1.0, 0.2])
    found = enumerate_outcomes(metric, p, [u, v], depth_cap=9000)
    assert not found.truncated
    assert [len(out.sequence) for out in found.outcomes] == [4199, 4198]
    cascades = [
        elastic_cascade(metric, p, [u, v], CascadePolicy.fixed(order))
        for order in ((0, 1), (1, 0))
    ]
    _assert_same_outcomes(found.outcomes, cascades)


# ---------------------------------------------------------------------------
# The frame itself


def test_frame_zero_normal_named():
    metric = KineticMetric(np.eye(3))
    with pytest.raises(DegenerateNormalsError) as err:
        ContactFrame(metric, [np.array([1.0, 0.0, 0.0]), np.zeros(3)])
    assert err.value.indices == (1,)


def test_frame_momentum_identity(rng):
    metric = random_metric(rng, 5)
    normals = [rng.standard_normal(5) for _ in range(3)]
    p = rng.standard_normal(5)
    frame = ContactFrame(metric, normals, p)
    lam = rng.standard_normal(3)
    moved = frame.momentum(lam)
    np.testing.assert_allclose(moved, p + lam @ np.asarray(normals), rtol=0, atol=1e-14)
    np.testing.assert_allclose(frame.dual(lam), metric.dual(moved), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(frame.a, [mt.inner(metric, u, p) for u in normals], rtol=1e-12)
    np.testing.assert_array_equal(frame.gram, frame.gram.T)
    assert frame.p_norm2 == pytest.approx(norm(metric, p) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# Solves against the mass matrix


def test_pair_query_solves_at_most_three_times(rng, mass_solves):
    metric = random_metric(rng, 4)
    u, v = pair_with_inner(metric, rng, -0.995)
    p = pair_momentum(metric, rng, u, v)

    def query():
        out = elastic_cascade(metric, p, [u, v])
        indeterminacy_xi(metric, p, u, v)
        classify_pair(metric, u, v)
        return out

    solves, out = mass_solves(metric, query)
    assert len(out.sequence) > 20
    assert solves <= 3


PUBLIC_CALLS = {
    "elastic_cascade": lambda m, p, u, v: elastic_cascade(m, p, [u, v]),
    "plastic_resolve": lambda m, p, u, v: plastic_resolve(m, p, [u, v]),
    "inelastic_resolve": lambda m, p, u, v: inelastic_resolve(m, p, [u, v], 0.4),
    "indeterminacy_xi": lambda m, p, u, v: indeterminacy_xi(m, p, u, v),
    "classify_pair": lambda m, p, u, v: classify_pair(m, u, v),
    "two_contact_reflection_bound": lambda m, p, u, v: two_contact_reflection_bound(m, u, v),
    "outcome_xi": lambda m, p, u, v: outcome_xi(
        m, p, enumerate_outcomes(m, p, [u, v], 64).outcomes
    ),
}


@pytest.mark.parametrize("name", sorted(PUBLIC_CALLS))
def test_each_call_solves_once(rng, mass_solves, name):
    metric = random_metric(rng, 4)
    u, v = pair_with_inner(metric, rng, -0.9)
    p = pair_momentum(metric, rng, u, v)
    solves, _ = mass_solves(metric, lambda: PUBLIC_CALLS[name](metric, p, u, v))
    # outcome_xi also runs the enumeration that feeds it.
    assert solves == (2 if name == "outcome_xi" else 1)


@pytest.mark.parametrize("masses", [[1.0, 0.01, 1.0, 1.0], [1.0, 0.3, 1.0, 0.5, 1.0]])
def test_enumeration_solves_once(mass_solves, masses):
    # Newton's cradle with light balls: the left ball strikes a chain
    # whose reflections branch many times.
    n = len(masses)
    metric = KineticMetric(np.diag(masses))
    normals = [np.eye(n)[i + 1] - np.eye(n)[i] for i in range(n - 1)]
    p = np.eye(n)[0]
    solves, found = mass_solves(metric, lambda: enumerate_outcomes(metric, p, normals, 12))
    assert found.branches_explored > 100
    assert solves == 1


def test_narrow_wedge_enumeration_solves_once(rng, mass_solves):
    metric = random_metric(rng, 3)
    u, v = pair_with_inner(metric, rng, -0.995)
    p = pair_momentum(metric, rng, u, v)
    solves, found = mass_solves(metric, lambda: enumerate_outcomes(metric, p, [u, v], 64))
    assert found.branches_explored > 40
    assert solves == 1


def test_node_impact_builds_one_frame(monkeypatch, mass_solves):
    # A body dropping flat onto two contacts closed at the node: the
    # stepper's node test classifies both from one contact frame, and
    # that frame is the frame the impact is resolved in.
    body = LegTailModel(1.0, 0.1, (0.3, -0.2), (-0.3, -0.2), gravity=0.0)
    q = body.double_contact_pose()
    metric = body.metric_at(q)
    monkeypatch.setattr(body, "metric_at", lambda _: metric)
    sim = _Sim(body, StepperConfig(h=0.01), None)
    p_in = body.mass_matrix(q) @ np.array([0.0, -1.0, 0.0])
    solves, _ = mass_solves(metric, lambda: sim.advance(q, 0.0, p_in, 0.01))
    assert [(ev.t, ev.contacts) for ev in sim.events] == [(0.0, (0, 1))]
    assert solves == 1


# ---------------------------------------------------------------------------
# Edge callers: the design loop, the commutation check and the billiards
# closed form read the pair cosine and feasibility from one contact frame.


def shipped_legtail_optimum():
    """The problem, result and optimal model of ``scenarios/legtail_optimize.json``."""
    config = load_config(SCENARIOS / "legtail_optimize.json")
    task = config["task"]
    problem = legtail_orthogonality_problem(
        build_model(config["model"]),
        config["initial"]["q"],
        free_q=tuple(task["free_q"]),
        free_params=tuple(task["free_params"]),
        tol_inner=task["tol_inner"],
    )
    result = solve_orthogonal(problem)
    return problem, result, problem.model_factory(result.params_opt)


def pinned_metric(model, q):
    """The model's metric at ``q``, returned for every ``metric_at`` call."""
    metric = model.metric_at(q)
    model.metric_at = lambda _: metric
    return metric


def test_design_residual_solves_once(mass_solves):
    problem, result, opt_model = shipped_legtail_optimum()
    metric = pinned_metric(opt_model, result.q_opt)
    problem.model_factory = lambda params: opt_model
    x_opt = problem.pack(result.q_opt, result.params_opt)
    solves, r = mass_solves(metric, lambda: problem.residuals(x_opt))
    assert solves == 1
    assert abs(r[2]) <= problem.tol_inner


def test_xi_at_optimum_solves_once_per_sample(mass_solves):
    _, result, opt_model = shipped_legtail_optimum()
    metric = pinned_metric(opt_model, result.q_opt)
    samples = 100
    solves, xi = mass_solves(
        metric, lambda: xi_at_optimum(opt_model, result.q_opt, samples=samples)
    )
    assert solves <= samples + 1
    assert xi < 1e-12


def test_verify_commutation_solves_once_per_sample(rng, mass_solves):
    metric = random_metric(rng, 4)
    u, v = pair_with_inner(metric, rng, 0.3)
    samples = 256
    solves, report = mass_solves(metric, lambda: verify_commutation(metric, u, v, samples))
    assert solves <= samples + 1
    assert not report.commutes and report.max_two_step_gap > 1e-6


def test_billiards_pair_inner_solves_once(mass_solves):
    model = BilliardsModel([1.0, 2.0, 1.5], [0.1, 0.15, 0.12])
    q = model.double_contact_configuration(2.0)
    metric = pinned_metric(model, q)
    solves, value = mass_solves(metric, lambda: billiards_pair_inner(model, q))
    assert solves == 1
    assert value == pytest.approx(math.cos(2.0) / 1.5, rel=1e-12)


def test_one_pair_cosine_on_random_pairs(rng):
    for _ in range(50):
        metric = random_metric(rng, int(rng.integers(2, 7)))
        u, v = pair_with_inner(metric, rng, rng.uniform(-0.9, 0.9))
        u, v = rng.uniform(0.5, 2.0) * u, rng.uniform(0.5, 2.0) * v
        value = classify_pair(metric, u, v).inner_value
        assert verify_commutation(metric, u, v, samples=4).inner_value == value


def test_one_pair_cosine_at_design_optimum():
    problem, result, opt_model = shipped_legtail_optimum()
    metric = opt_model.metric_at(result.q_opt)
    u, v = opt_model.gap_gradients(result.q_opt)[:2]
    value = classify_pair(metric, u, v).inner_value
    assert verify_commutation(metric, u, v).inner_value == value
    assert problem.residuals(problem.pack(result.q_opt, result.params_opt))[2] == value
    assert abs(value) <= problem.tol_inner
