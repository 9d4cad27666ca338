"""Propagative resolution of simultaneous impacts.

A simultaneous impact across several contact manifolds is resolved as a
chain of single-contact metric reflections, applied until the momentum
is feasible with respect to every active normal. The module provides
the single reflection, the greedy cascade with a proven step bound for
two contacts, exhaustive enumeration of all minimal reflection
sequences, the perfectly plastic projection, and the restitution blend
between the plastic and elastic outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from . import metric as mt
from .errors import DegenerateNormalsError, DimensionError

#: Step cap for cascades over more than two normals, where termination
#: is not guaranteed. Cap overruns surface as a status.
MAX_CASCADE_STEPS = 64

#: Branches one enumeration may explore before it stops and reports the
#: search as truncated (at a few microseconds per branch, seconds).
MAX_BRANCHES = 1_000_000

#: Outcomes closer than this (relative to the incoming momentum norm)
#: are merged during enumeration.
DEDUP_RTOL = 1e-9


class CascadeStatus(Enum):
    CONVERGED = "converged"
    STEP_CAP_EXCEEDED = "step-cap-exceeded"


class ImpactKind(Enum):
    ELASTIC = "elastic"
    PLASTIC = "plastic"
    INELASTIC = "inelastic"


@dataclass(frozen=True)
class CascadePolicy:
    """Selection rule for the next normal to reflect across.

    ``most-violating`` picks the most negative inner product against the
    unit-normalized normals, ``least-violating`` the least negative one
    among those still infeasible, and ``fixed`` walks a caller-supplied
    priority order (a permutation of the normal indices). Cascades over
    more than two normals stop at :data:`MAX_CASCADE_STEPS` reflections.
    """

    variant: str = "most-violating"
    order: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.variant not in ("most-violating", "least-violating", "fixed"):
            raise ValueError(f"unknown cascade policy {self.variant!r}")
        if self.variant == "fixed":
            if not self.order:
                raise ValueError("fixed policy requires a priority order")
            object.__setattr__(self, "order", tuple(int(i) for i in self.order))

    @classmethod
    def most_violating(cls) -> "CascadePolicy":
        return cls("most-violating")

    @classmethod
    def least_violating(cls) -> "CascadePolicy":
        return cls("least-violating")

    @classmethod
    def fixed(cls, order: Iterable[int]) -> "CascadePolicy":
        return cls("fixed", tuple(order))

    @classmethod
    def parse(cls, text: str) -> "CascadePolicy":
        text = text.strip().lower()
        if text == "most-violating":
            return cls.most_violating()
        if text == "least-violating":
            return cls.least_violating()
        if text.startswith("fixed:"):
            order = tuple(int(tok) for tok in text[len("fixed:"):].split(",") if tok)
            return cls.fixed(order)
        raise ValueError(f"cannot parse cascade policy {text!r}")

    def validate_for(self, n_normals: int) -> None:
        if self.variant == "fixed":
            if sorted(self.order) != list(range(n_normals)):
                raise ValueError(
                    f"fixed order {self.order} is not a permutation of range({n_normals})"
                )

    def for_contacts(self, contacts: Sequence[int]) -> "CascadePolicy":
        """This policy for an impact on the given model contacts.

        A fixed order names model contacts. It keeps those in
        ``contacts``, renumbered to their positions there, and must
        name each of them once.
        """
        if self.variant != "fixed":
            return self
        named = [c for c in self.order if c in contacts]
        if sorted(named) != sorted(contacts):
            raise ValueError(
                f"fixed order {self.order} does not name contacts {tuple(contacts)} once each"
            )
        return replace(self, order=tuple(contacts.index(c) for c in named))


@dataclass(frozen=True)
class ImpactOutcome:
    """Result of resolving one impact event.

    ``sequence`` lists the indices of the normals in the order they were
    applied; for plastic and blended outcomes it lists each involved
    contact once and ``impulses`` holds the net per-contact impulse
    instead of per-reflection values.
    """

    p_plus: np.ndarray
    sequence: tuple[int, ...]
    impulses: tuple[float, ...]
    status: CascadeStatus
    kind: ImpactKind
    restitution: float | None = None

    @property
    def converged(self) -> bool:
        return self.status is CascadeStatus.CONVERGED


@dataclass(frozen=True)
class EnumerationResult:
    """All distinct minimal-sequence outcomes found by depth-first search.

    A result of :func:`enumerate_outcomes` keeps its outcomes as their
    per-contact impulse sums, sequences and impulses, and forms the
    :class:`ImpactOutcome` objects on the first read of ``outcomes``;
    a measure that needs only the sums (:meth:`impulse_sums`) forms
    none.
    """

    outcomes: tuple[ImpactOutcome, ...]
    truncated: bool
    branches_explored: int

    @classmethod
    def _of_leaves(cls, frame, sums, leaves, truncated, explored):
        """A search's result, its outcomes not yet formed.

        ``sums`` holds the kept leaves' impulse sums in ``frame``, one
        row each, and ``leaves`` their ``(sequence, impulses)`` pairs.
        """
        result = object.__new__(cls)
        object.__setattr__(result, "truncated", truncated)
        object.__setattr__(result, "branches_explored", explored)
        object.__setattr__(result, "_leaves", (frame, sums, leaves))
        return result

    def __getattr__(self, name):
        # Reached only for an attribute not set: a search's outcomes
        # before their first read.
        leaves = self.__dict__.get("_leaves")
        if name != "outcomes" or leaves is None:
            raise AttributeError(name)
        frame, sums, pairs = leaves
        outcomes = tuple(
            ImpactOutcome(
                p_plus=frame.momentum(lam),
                sequence=sequence,
                impulses=impulses,
                status=CascadeStatus.CONVERGED,
                kind=ImpactKind.ELASTIC,
            )
            for lam, (sequence, impulses) in zip(sums, pairs)
        )
        object.__setattr__(self, "outcomes", outcomes)
        return outcomes

    def __len__(self) -> int:
        leaves = self.__dict__.get("_leaves")
        return len(self.outcomes) if leaves is None else len(leaves[2])

    def impulse_sums(self, k: int) -> np.ndarray:
        """Per-contact impulse sums over ``k`` normals, one row per outcome.

        Outcome ``i`` is ``p + impulse_sums(k)[i] @ normals``. Each sum
        adds the outcome's impulses in ``sequence`` order, as the search
        does, so a search's sums and those of its formed outcomes are
        bitwise the same.
        """
        leaves = self.__dict__.get("_leaves")
        if leaves is not None:
            return leaves[1]
        sums = np.zeros((len(self.outcomes), k))
        for row, out in zip(sums, self.outcomes):
            for i, step in zip(out.sequence, out.impulses):
                row[i] += step
        return sums


def reflect(metric: mt.KineticMetric, p, u) -> tuple[np.ndarray, float]:
    """Reflect a momentum across the contact plane of one normal.

    Returns the reflected momentum and the impulse magnitude so that
    ``p_new = p + impulse * u``. The map flips the sign of the inner
    product with ``u``, preserves the metric norm, and is its own
    inverse; it does not depend on the magnitude of ``u``.
    """
    row_p = metric._check(p)
    row_u = metric._check(u)
    dual_u = metric.dual(row_u)
    uu = float(row_u @ dual_u)
    if uu <= 0.0:
        raise DimensionError("cannot reflect across a zero-norm normal")
    lam = -2.0 * float(row_p @ dual_u) / uu
    return row_p + lam * row_u, lam


def two_contact_reflection_bound(metric: mt.KineticMetric, u, v) -> int:
    """Guaranteed cascade length bound for exactly two contact normals.

    The bound is ``ceil(pi / gamma)`` where ``gamma`` is the half-angle
    of the feasible cone, computed from the unit normals via
    ``sin(gamma) = |u_hat + v_hat| / 2``.
    """
    return _pair_bound(metric.frame([u, v]).pair_cosine())


def _pair_bound(c: float) -> int:
    if abs(c) >= 1.0 - mt.GRAM_RCOND:
        raise DegenerateNormalsError(
            "contact normals are metric-parallel; the reflection bound "
            "is undefined",
            (0, 1),
        )
    sin_gamma = math.sqrt(max((1.0 + c) / 2.0, 0.0))
    gamma = math.asin(min(sin_gamma, 1.0))
    return int(math.ceil(math.pi / gamma))


def _check_normals(normals: Sequence, what: str) -> None:
    if len(normals) == 0:
        raise DimensionError(f"{what} requires at least one contact normal")


def elastic_cascade(
    metric: mt.KineticMetric,
    p_minus,
    normals: Sequence,
    policy: CascadePolicy | None = None,
) -> ImpactOutcome:
    """Run the propagative reflection cascade to a feasible momentum.

    Repeatedly selects an infeasible normal according to ``policy`` and
    reflects across it. For exactly two distinct normals the step cap is
    the proven reflection bound; for more normals termination is an open
    question and the cap is :data:`MAX_CASCADE_STEPS`, with overruns reported
    through the outcome status rather than raised.
    """
    policy = policy or CascadePolicy.most_violating()
    _check_normals(normals, "cascade")
    policy.validate_for(len(normals))
    return _cascade(metric.frame(normals, p_minus), policy)[0]


def _cascade(frame: mt.ContactFrame, policy: CascadePolicy):
    """Reflection cascade in contact coordinates.

    Returns the outcome of :func:`_walk` and its per-normal impulse
    sums; the momentum is formed once, from the sums.
    """
    converged, lam, sequence, impulses = _walk(frame, policy)
    outcome = ImpactOutcome(
        p_plus=frame.momentum(lam),
        sequence=tuple(sequence),
        impulses=tuple(impulses),
        status=CascadeStatus.CONVERGED if converged else CascadeStatus.STEP_CAP_EXCEEDED,
        kind=ImpactKind.ELASTIC,
    )
    return outcome, lam


def _walk(frame: mt.ContactFrame, policy: CascadePolicy):
    """The reflection walk of a cascade, in contact coordinates.

    Reflecting across normal ``k`` adds ``step * rows[k]`` to the
    momentum, so its inner products move by ``step * gram[:, k]``.
    Returns ``(converged, lam, sequence, impulses)``: whether the walk
    ended feasible before its step cap, the per-normal impulse sums as
    an array, and the reflected normals and their impulses as lists.
    The walk runs on Python floats, with the IEEE operations of the
    elementwise array update in the same order, so long wedges pay no
    per-reflection array overhead. Two normals, the only case with
    long walks, are walked on scalars, with no list built per
    reflection.
    """
    k_count = len(frame)
    if k_count == 2:
        return _walk_pair(frame, policy)
    cap = 1 if k_count == 1 else MAX_CASCADE_STEPS

    a = frame.a.tolist()
    columns = frame.gram.T.tolist()
    scales = frame.scales.tolist()
    norms2 = frame.norms2.tolist()
    lam = [0.0] * k_count
    sequence: list[int] = []
    impulses: list[float] = []
    converged = True
    while True:
        values = [ai * si for ai, si in zip(a, scales)]
        infeasible = [i for i in range(k_count) if values[i] < 0.0]
        if not infeasible:
            break
        if len(sequence) >= cap:
            converged = False
            break
        if sequence and sequence[-1] in infeasible:
            # A reflected normal flips to feasible, so this is reachable
            # only through round-off.
            infeasible.remove(sequence[-1])
            if not infeasible:
                break
        # min and max keep the first of tied values, as argmin and argmax do.
        if policy.variant == "most-violating":
            k = min(infeasible, key=values.__getitem__)
        elif policy.variant == "least-violating":
            k = max(infeasible, key=values.__getitem__)
        else:
            k = next(i for i in policy.order if i in infeasible)
        step = -2.0 * a[k] / norms2[k]
        a = [ai + step * gi for ai, gi in zip(a, columns[k])]
        lam[k] += step
        sequence.append(k)
        impulses.append(step)
    return converged, np.array(lam), sequence, impulses


def _walk_pair(frame: mt.ContactFrame, policy: CascadePolicy):
    """:func:`_walk` for two normals, capped at the proven reflection bound.

    The same decisions in the same order as the list walk: stop when
    both normals are feasible, then at the cap, then drop the normal
    just reflected, then choose. At a tie, most-violating takes normal
    0 when ``v0 <= v1`` and least-violating when ``v0 >= v1``, as
    ``min`` and ``max`` keep the first of tied values.
    """
    (g00, g10), (g01, g11) = frame.gram.T.tolist()
    s0, s1 = frame.scales.tolist()
    n0, n1 = frame.norms2.tolist()
    a0, a1 = frame.a.tolist()
    cap = _pair_bound(frame.pair_cosine())
    variant = policy.variant
    first = policy.order[0] if variant == "fixed" else 0
    l0 = l1 = 0.0
    last = -1
    sequence: list[int] = []
    impulses: list[float] = []
    converged = True
    while True:
        v0 = a0 * s0
        v1 = a1 * s1
        bad0 = v0 < 0.0
        bad1 = v1 < 0.0
        if not (bad0 or bad1):
            break
        if len(sequence) >= cap:
            converged = False
            break
        # A reflected normal flips to feasible, so dropping it matters
        # only after round-off.
        if last == 0:
            bad0 = False
        elif last == 1:
            bad1 = False
        if bad0 and bad1:
            if variant == "most-violating":
                k = 0 if v0 <= v1 else 1
            elif variant == "least-violating":
                k = 0 if v0 >= v1 else 1
            else:
                k = first
        elif bad0:
            k = 0
        elif bad1:
            k = 1
        else:
            break
        if k == 0:
            step = -2.0 * a0 / n0
            a0 = a0 + step * g00
            a1 = a1 + step * g10
            l0 += step
        else:
            step = -2.0 * a1 / n1
            a0 = a0 + step * g01
            a1 = a1 + step * g11
            l1 += step
        last = k
        sequence.append(k)
        impulses.append(step)
    return converged, np.array([l0, l1]), sequence, impulses


def enumerate_outcomes(
    metric: mt.KineticMetric,
    p_minus,
    normals: Sequence,
    depth_cap: int,
) -> EnumerationResult:
    """Enumerate every distinct minimal-sequence outcome.

    Depth-first search that branches on each currently infeasible
    normal, never repeats the immediately preceding one, and stops each
    branch at the first feasible momentum. Outcomes are deduplicated by
    metric distance, the first found outcome of a cluster kept; branches
    that exceed ``depth_cap``, or a search that reaches
    :data:`MAX_BRANCHES`, raise the ``truncated`` flag instead of being
    dropped silently. The search walks an explicit stack of branches in
    contact coordinates (inner products and impulse sums as Python
    floats), so it solves against the mass matrix once, up front, and
    its depth is not bounded by the interpreter's recursion limit.
    Deduplication runs once, after the walk, over the leaves sorted by
    their momentum's inner product with the first unit normal: no two
    leaves are closer in the metric than along that direction, so each
    leaf is compared only with the earlier kept leaves near it.
    """
    if depth_cap < 1:
        raise ValueError("depth_cap must be at least 1")
    _check_normals(normals, "enumeration")
    frame = metric.frame(normals, p_minus)
    dedup_tol = DEDUP_RTOL * max(math.sqrt(max(frame.p_norm2, 0.0)), 1e-300)
    k_count = len(frame)
    columns = frame.gram.T.tolist()
    scales = frame.scales.tolist()
    norms2 = frame.norms2.tolist()

    leaves = []  # (impulse sums, sequence, impulses) in search order
    truncated = False
    explored = 0
    stack = [(frame.a.tolist(), [0.0] * k_count, (), ())]
    while stack:
        if explored == MAX_BRANCHES:
            truncated = True
            break
        a, lam, sequence, impulses = stack.pop()
        explored += 1
        last = sequence[-1] if sequence else -1
        infeasible = [
            i for i in range(k_count) if a[i] * scales[i] < 0.0 and i != last
        ]
        if not infeasible:
            leaves.append((lam, sequence, impulses))
        elif len(sequence) >= depth_cap:
            truncated = True
        else:
            # Reversed, so that the first infeasible normal is popped first.
            for k in reversed(infeasible):
                step = -2.0 * a[k] / norms2[k]
                branch = lam.copy()
                branch[k] += step
                stack.append((
                    [ai + step * gi for ai, gi in zip(a, columns[k])],
                    branch,
                    sequence + (k,),
                    impulses + (step,),
                ))
    if not leaves:
        return EnumerationResult((), truncated, explored)

    lams = np.array([leaf[0] for leaf in leaves])
    kept = np.flatnonzero(_first_of_clusters(frame, lams, dedup_tol))
    pairs = [leaves[i][1:] for i in kept.tolist()]
    return EnumerationResult._of_leaves(frame, lams[kept], pairs, truncated, explored)


def _first_of_clusters(frame: mt.ContactFrame, lams: np.ndarray, dedup_tol: float) -> np.ndarray:
    """Which leaves are at least ``dedup_tol`` from every earlier kept leaf.

    Row ``i`` of ``lams`` holds the impulse sums of leaf ``i``. The
    inner product of the momentum with the first unit normal moves by
    at most the metric distance (Cauchy-Schwarz), so a leaf within
    ``dedup_tol`` of an earlier one lies within ``dedup_tol`` of it
    along that direction, give or take rounding. The difference-first
    distance, as in :meth:`ContactFrame.distance`, is taken only to the
    earlier kept leaves in that window.
    """
    key = lams @ frame.gram[:, 0] * frame.scales[0]
    # Slack for rounding: the keys carry it relative to their terms, and
    # a distance among near-parallel normals may read low by a fraction
    # of dedup_tol.
    key_scale = float((np.abs(lams) @ np.abs(frame.gram[:, 0])).max()) * frame.scales[0]
    window = 2.0 * dedup_tol + 1e-12 * key_scale
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    lo = np.searchsorted(ranked, key - window, side="left")
    hi = np.searchsorted(ranked, key + window, side="right")
    kept = np.ones(len(lams), dtype=bool)
    # A leaf alone in its window is the only member of its cluster.
    for i in np.flatnonzero(hi - lo > 1).tolist():
        near = order[lo[i]:hi[i]]
        near = near[(near < i) & kept[near]]
        if near.size:
            d = lams[near] - lams[i]
            dist2 = ((d @ frame.rows) * (d @ frame.duals)).sum(axis=1)
            if math.sqrt(max(float(dist2.min()), 0.0)) < dedup_tol:
                kept[i] = False
    return kept


def plastic_resolve(metric: mt.KineticMetric, p_minus, normals: Sequence) -> ImpactOutcome:
    """Perfectly plastic impact: project out every normal component.

    The post-impact momentum is tangent to all contact manifolds and the
    kinetic energy never increases. Requires the normals to be linearly
    independent under the metric.
    """
    _check_normals(normals, "plastic resolution")
    return _plastic(metric.frame(normals, p_minus))[0]


def _plastic(frame: mt.ContactFrame):
    mt._check_gram(frame.gram)
    lam = -np.linalg.solve(frame.gram, frame.a)
    outcome = ImpactOutcome(
        p_plus=frame.momentum(lam),
        sequence=tuple(range(len(frame))),
        impulses=tuple(lam),
        status=CascadeStatus.CONVERGED,
        kind=ImpactKind.PLASTIC,
    )
    return outcome, lam


def inelastic_resolve(
    metric: mt.KineticMetric,
    p_minus,
    normals: Sequence,
    restitution: float,
    policy: CascadePolicy | None = None,
) -> ImpactOutcome:
    """Blend the plastic and elastic outcomes for a restitution in [0, 1].

    The weight of the elastic outcome is the restitution coefficient,
    which reproduces the energy split
    ``|p+|^2 = R^2 |p_e|^2 + (1 - R^2) |p_p|^2`` exactly, so the energy
    lost is ``(1 - R^2)`` times the plastic loss.
    """
    if not 0.0 <= restitution <= 1.0:
        raise ValueError(f"restitution must lie in [0, 1], got {restitution}")
    policy = policy or CascadePolicy.most_violating()
    _check_normals(normals, "cascade")
    policy.validate_for(len(normals))
    frame = metric.frame(normals, p_minus)
    return _inelastic(frame, restitution, policy)[0]


def _inelastic(frame, restitution, policy):
    elastic, lam_e = _cascade(frame, policy)
    plastic, lam_p = _plastic(frame)
    # Net impulse per contact: the same blend of the two impulse sums.
    lam = restitution * lam_e + (1.0 - restitution) * lam_p
    outcome = ImpactOutcome(
        p_plus=restitution * elastic.p_plus + (1.0 - restitution) * plastic.p_plus,
        sequence=tuple(range(len(frame))),
        impulses=tuple(lam),
        status=elastic.status,
        kind=ImpactKind.INELASTIC,
        restitution=restitution,
    )
    return outcome, lam
