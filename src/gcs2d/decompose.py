"""Bottom-up cluster decomposition, reducibility classes, and plan extraction.

Every constraint edge seeds a two-entity cluster.  Two rewrite rules then run
to a fixpoint: a pair rule (R2) merges two clusters sharing at least two
entities, and a triangle rule (R1) merges three clusters that pairwise share
exactly one two-DOF entity each (three distinct entities in total).  The
triangle rule is restricted to two-DOF shared entities because a shared
free-radius circle would weld clusters into a non-rigid aggregate.

The rewrite is deterministic: each step applies the pair rule if any live
pair qualifies, else the triangle rule, and within a rule picks the
candidate whose sorted parent ids are lexicographically smallest.  The
merged cluster takes the next unused id.  The fixpoint is found
incrementally, with both rules' candidates on one min-heap keyed (2, i, j)
for a pair and (3, i, j, k) for a triangle, so the key states that order.
One pass over the constraints queues the seeds' candidates: constraints on
the same two entities pair up, and each graph triangle over two-DOF entities
gives a triple.  Then an index maps each entity to the handles of the live
clusters holding it.  A merged cluster takes over its heir's handle, the
heir being its first largest parent, so that parent's entities stay indexed,
and the other parents' handles are retired.  It also takes the heir's entity
and constraint sets and grows them in place by the smaller parents' sets;
once the fixpoint ends, a merged heir keeps none of its own, seeds stay
whole, and every other merged cluster's sets are frozen.  Only the entities
the smaller parents bring in (the merge's ``added``, found before the
growth) are visited, and the merged cluster is matched only against clusters
sharing one of them: a candidate using none of them was one with the heir
and is queued already.  So, as in union by size (Tarjan 1975), an entity is
visited and copied only when it is in a smaller parent, O(log n) times, and
a fully reducible graph decomposes in O(n log n) time and keeps O(n) set
entries.  A live cluster's entity set never changes, so a candidate stays
valid while its parents live.  One with a merged-away parent is re-keyed
when popped to the clusters now holding its parents' handles, for which its
rule still holds, and goes back on the heap; a retired handle drops it.
Because a fresh id is always the largest so far, a re-keyed candidate never
sorts before the key it replaces, and popping the smallest live key makes
the same choice as rescanning every live pair and triple.  Each merge
records its heir and ``added`` in the result's ``growth``.

From a fully reduced graph a construction plan is extracted: the merge tree is
replayed with a preference for sequential placements (any still-unplaced
entity holding two constraints into the placed set), falling back to
recombination of independently solved clusters through virtual distances and
rigid alignment.  One pass over the merges in id order records what each adds
to its base child's steps, or the refusal it holds if it cannot be
recombined; a refusal counts only if the root's plan reads that cluster.  A
merge's base child is its heir, and what it adds is read off its growth
record and its other children, never off the base child's sets.  A
plan, one flat tuple of steps, is then assembled only for the root and each
cluster a recombination step reads, from the records along its chain of base
children, so extraction is linear in the steps.  Plans are purely
structural: a recombination step references the sub-plans of the clusters it
reads and holds no number, so this module never solves anything and one plan
serves every re-valuation of the same graph.  :mod:`gcs2d.solve` carries
plans out.
"""

from __future__ import annotations

from enum import Enum
from heapq import heapify, heappop, heappush
from typing import NamedTuple, Union

from .errors import BadValueError, NotReducibleError, TooSmallError, UnsupportedStepError
from .graph import ConstraintGraph, EntityKind, dof
from .rigidity import Verdict, diagnose_pebble


# ------------------------------------------------------------------- clusters


class MergeRecord(NamedTuple):
    rule: str  # "R1" or "R2"
    new_cluster: int
    parents: tuple[int, ...]
    shared: tuple[str, ...]


class Cluster(NamedTuple):
    """A solvable sub-assembly: entity ids plus the constraints it owns, and
    the merge that made it (None for a seed, which owns one constraint).
    A merged cluster whose sets a later merge took over and grew, its heir
    there, carries None for both: they are its parents' unions."""

    id: int
    entity_ids: frozenset[str] | None
    owned_constraints: frozenset[int] | None
    merge: MergeRecord | None = None

    @property
    def is_seed(self) -> bool:
        return self.merge is None


class ReducibilityClass(Enum):
    FULLY_REDUCIBLE = "fully_reducible"
    PARTIALLY_REDUCIBLE = "partially_reducible"
    IRREDUCIBLE = "irreducible"


class DecompositionResult(NamedTuple):
    """The fixpoint's outcome.  ``all_clusters`` holds every cluster by id,
    ``growth`` per merge, in log order, the parent whose sets the merged
    cluster took (its heir, the first largest) and the entities the other
    parents add to them."""

    final_clusters: tuple[Cluster, ...]
    merge_log: tuple[MergeRecord, ...]
    reducibility: ReducibilityClass
    nontrivial_cluster_count: int
    all_clusters: tuple[Cluster, ...]
    growth: tuple[tuple[int, frozenset[str]], ...]


def seed_clusters(g: ConstraintGraph) -> list[Cluster]:
    """One elementary cluster per constraint: its two endpoints plus the edge."""
    # Seeds, merged clusters and merge records are built with
    # ``tuple.__new__``: a NamedTuple's own ``__new__`` is Python code, and
    # the fixpoint makes a cluster per constraint and two tuples per merge.
    return [tuple.__new__(Cluster, (i, frozenset(c.between), frozenset((i,)), None))
            for i, c in enumerate(g.constraints)]


def decompose(g: ConstraintGraph) -> DecompositionResult:
    """Run the merge rules to a fixpoint and classify the outcome.

    Pairs go before triangles, and within each rule the candidate with the
    lexicographically smallest sorted parent ids merges first; merged
    clusters take ids ``g.m``, ``g.m + 1``, ... in merge order.  The seeds
    and their candidates come from one pass over the constraints; a merged
    cluster's candidates from the entities its smaller parents bring in,
    through an entity -> handle index in which it takes over its heir's
    handle, the heir being its first largest parent.  Candidates of both
    rules wait on one heap and are re-keyed to their parents' heirs when
    popped, so no step rescans the live clusters or the whole of a growing
    one.  A merged cluster grows its heir's sets in place, so the heir, in
    ``all_clusters``, carries None for both sets; seeds, final clusters and
    clusters merged as a smaller parent keep theirs.  ``growth`` records,
    per merge, its heir and the entities the other parents add.

    The result is kept with ``g``'s structure, so a later call on ``g`` or
    on a re-valued copy runs no second fixpoint.
    """
    if g.n < 2:
        raise TooSmallError(f"decomposition needs at least 2 entities, got {g.n}")
    return g._kept("decompose", None, lambda: _fixpoint(g))


def _fixpoint(g: ConstraintGraph) -> DecompositionResult:
    two_dof = {e.id for e in g.entities if dof(e.kind) == 2}
    # ``holders`` maps an entity to the handles of the live clusters holding
    # it, ``owner`` a handle to its live cluster (None once retired) and
    # ``handle`` every cluster id, live or not, to its handle; a seed's
    # handle is its id, and cluster k is live while ``owner[handle[k]] == k``.
    handle = list(range(g.m))
    owner: list[int | None] = list(range(g.m))
    holders: dict[str, set[int]] = {e: set() for e in g.entity_ids}
    # One pass over the constraints queues the seeds' candidates, which
    # halves the fixpoint's time on small graphs against entering each seed
    # as a merged cluster: two seeds on one pair of entities, in either
    # order, and three spanning a triangle u < v < w of two-DOF entities.
    everything = seed_clusters(g)  # a cluster's id is its index
    joins: dict[str, dict[str, list[int]]] = {e: {} for e in g.entity_ids}  # seeds by ends
    heap: list[tuple[int, ...]] = []
    for i, (_, (a, b), _) in enumerate(g.constraints):
        holders[a].add(i)
        holders[b].add(i)
        ids = joins[a].get(b)
        if ids is None:
            joins[a][b] = joins[b][a] = [i]
        else:
            heap += [(2, j, i) for j in ids]
            ids.append(i)
    for u, near_u in joins.items():  # in entity order, as the dicts were made
        if u not in two_dof:
            continue
        for v, uv in near_u.items():
            if v > u and v in two_dof:
                near_v = joins[v]
                small, large = (near_u, near_v) if len(near_u) < len(near_v) else (near_v, near_u)
                for w in small:
                    if w > v and w in large and w in two_dof:
                        heap += [(3, *sorted((i, j, k)))
                                 for i in uv for j in near_v[w] for k in near_u[w]]
    heapify(heap)

    def enter(c: Cluster, heir: Cluster, others: tuple[Cluster, ...],
              added: frozenset[str]) -> None:
        """Index merged cluster ``c`` under its heir's handle, retire the
        other parents' handles and queue every candidate that uses an
        entity they bring in (``added``); ``c.id`` is the largest live id,
        so it goes last in each key.  A candidate using only the heir's
        entities was one with the heir and is queued already."""
        mine = handle[heir.id]
        handle.append(mine)
        owner[mine] = c.id
        for p in others:
            gone = handle[p.id]
            owner[gone] = None
            for e in p.entity_ids:
                holders[e].discard(gone)
        ours = c.entity_ids
        met = {owner[h] for e in added for h in holders[e]}  # a pass over what they bring
        for e in added:
            holders[e].add(mine)
        for k in met:
            near = everything[k].entity_ids
            shared = near & ours
            if len(shared) > 1:
                heappush(heap, (2, k, c.id))
                continue
            # Hinged to c at x: a cluster b holding one of k's other
            # two-DOF entities and sharing nothing else with k closes a
            # triangle if it is hinged to c at another entity.  If that
            # entity is added, b meets k from its side too: queue once.  The
            # hinges x and z are c's, and c brings in entities, so it holds
            # three or more, which makes them all two-DOF: a cluster holding
            # a free-radius circle never grows past its two entities.
            (x,) = shared
            for y in near:
                if y != x and y in two_dof:
                    for h in holders[y]:
                        b = owner[h]
                        far = everything[b].entity_ids
                        hinges = far & ours
                        if len(hinges) == 1 and len(far & near) == 1:
                            (z,) = hinges
                            if z != x and (z not in added or k < b):
                                heappush(heap, (3, k, b, c.id) if k < b else (3, b, k, c.id))

    def pop() -> tuple[int, ...] | None:
        """The parents of the smallest queued candidate whose parents are
        all live, or None.  A candidate with a merged-away parent goes back
        re-keyed to the clusters now holding its parents' handles, unless
        one was retired; an heir's id is larger, so the new key never sorts
        before the one it replaces.  Heirs hold their ancestors' entities,
        so a re-keyed pair still shares two.  A triangle pops only once no
        pair is queued, so no two live clusters share two entities: its
        parents' heirs are three distinct clusters, each two of which still
        share exactly the entity they shared before."""
        while heap:
            rule, *parents = heappop(heap)
            now = [owner[handle[i]] for i in parents]
            if now == parents:
                return tuple(parents)
            if None not in now:
                now.sort()
                heappush(heap, (rule, *now))
        return None

    growth: list[tuple[int, frozenset[str]]] = []
    while (parents := pop()) is not None:
        fresh = len(everything)
        # The heir is the first largest parent; the others bring ``brought``.
        if len(parents) == 2:
            p, q = everything[parents[0]], everything[parents[1]]
            a, b = p.entity_ids, q.entity_ids
            rule, shared = "R2", tuple(sorted(a & b))
            heir, others, brought = (p, (q,), b) if len(a) >= len(b) else (q, (p,), a)
        else:
            p, q, r = everything[parents[0]], everything[parents[1]], everything[parents[2]]
            a, b, c = p.entity_ids, q.entity_ids, r.entity_ids
            (x,), (y,), (z,) = a & b, b & c, c & a
            rule, shared = "R1", (x, y, z)
            if len(a) >= len(b) and len(a) >= len(c):
                heir, others, brought = p, (q, r), b | c
            elif len(b) >= len(c):
                heir, others, brought = q, (p, r), a | c
            else:
                heir, others, brought = r, (p, q), a | b
        added = frozenset(brought - heir.entity_ids)
        # The merged cluster grows its heir's sets in place, so each entity
        # is copied only when it is in a smaller parent (Tarjan 1975); a
        # seed's sets stay whole.
        entities, owned = heir.entity_ids, heir.owned_constraints
        if heir.merge is None:
            entities, owned = set(entities), set(owned)
        for p in others:
            entities |= p.entity_ids
            owned |= p.owned_constraints
        record = tuple.__new__(MergeRecord, (rule, fresh, parents, shared))
        merged = tuple.__new__(Cluster, (fresh, entities, owned, record))
        everything.append(merged)
        growth.append((heir.id, added))
        enter(merged, heir, others, added)

    # No merge reads a retired cluster, so each merged one is finished here:
    # an heir keeps no sets of its own, every other one keeps its sets frozen.
    heirs = {k for k, _ in growth}
    for c in everything[g.m:]:
        sets = (None, None) if c.id in heirs else (
            frozenset(c.entity_ids), frozenset(c.owned_constraints))
        everything[c.id] = tuple.__new__(Cluster, (c.id, *sets, c.merge))
    final = tuple([everything[k] for k in sorted(k for k in owner if k is not None)])
    log = tuple([c.merge for c in everything[g.m:]])
    nontrivial = sum(1 for c in final if not c.is_seed)
    if len(final) == 1 and len(final[0].entity_ids) == g.n:
        klass = ReducibilityClass.FULLY_REDUCIBLE
    elif not log and len(final) > 1:
        klass = ReducibilityClass.IRREDUCIBLE
    else:
        klass = ReducibilityClass.PARTIALLY_REDUCIBLE
    return DecompositionResult(final, log, klass, nontrivial, tuple(everything), tuple(growth))


def classify(g: ConstraintGraph) -> ReducibilityClass:
    """Reducibility class of a graph (projection of :func:`decompose`)."""
    return decompose(g).reducibility


# ------------------------------------------------------------------ plan model


class PlaceByTwoLoci(NamedTuple):
    """Place ``target`` at an intersection of the loci induced by two
    constraints whose other endpoints are already placed."""

    target: str
    constraints: tuple[int, int]


class TriangleMerge(NamedTuple):
    """Pin down three shared points through their pairwise virtual distances.

    ``points`` (p0, p1, p2) are the points the base, first and second
    clusters share pairwise; p0 and p1 belong to the already-placed base
    cluster.  ``clusters`` names those three clusters; ``plans`` holds the
    first and second cluster's own plans, the only ones read: the executor
    walks each in its own frame and reads |p1 p2| (second cluster) and
    |p2 p0| (first cluster) off each path through its steps."""

    points: tuple[str, str, str]
    clusters: tuple[int, int, int]
    plans: tuple[Plan, Plan]


class AlignCluster(NamedTuple):
    """Map a cluster solved in its own frame onto the shared pair.

    The executor walks ``plan`` in its own frame; the branch selector picks
    the path through its steps and the gluing side."""

    cluster: int
    shared: tuple[str, str]
    plan: Plan


PlanStep = Union[PlaceByTwoLoci, TriangleMerge, AlignCluster]


class Plan(NamedTuple):
    """Base seed placement plus ordered construction steps for a cluster
    that owns ``owned_constraints``."""

    base_cluster: int
    base_constraint: int
    steps: tuple[PlanStep, ...]
    owned_constraints: frozenset[int] = frozenset()


def extract_plan(result: DecompositionResult, g: ConstraintGraph) -> Plan:
    """Turn a full decomposition into a construction plan.

    Requires a fully reducible, structurally well-constrained graph.  Each
    merge node is replayed: if every entity introduced by the merge can be
    placed sequentially from two constraints into the already-placed set, the
    node becomes PlaceByTwoLoci steps; otherwise the non-base clusters are
    recombined through a TriangleMerge over virtual distances plus rigid
    alignments, which reference the clusters' own plans.  One pass in merge
    order records what each merge adds; plans are then assembled, once
    each, only for the root and the clusters a recombination reads.  A
    recombination over a shared entity that is not a point is refused with
    UnsupportedStepError, but only if the root's plan reads that cluster: a
    child that a sequential extension places need not be plannable itself.
    The plan holds no values of ``g``, so it serves every graph with the
    same structure: it is kept with ``g``'s structure under the ``result``
    object it was built from, so a later call with that same object returns
    it again.  Both NotReducibleError refusals run on every call.  Building
    refuses, with BadValueError, a ``result`` that cannot be ``g``'s: one
    whose first ``g.m`` clusters are not ``g``'s seeds, or whose next
    cluster is not a merge; and one whose root is a cluster merged into its
    heir, which carries no sets.
    """
    if result.reducibility is not ReducibilityClass.FULLY_REDUCIBLE:
        raise NotReducibleError(f"graph is {result.reducibility.value}")
    if diagnose_pebble(g).verdict is not Verdict.WELL_CONSTRAINED:
        raise NotReducibleError("plan extraction needs a well-constrained graph")
    return g._kept("plan", result, lambda: _build_plan(_checked(result, g), g))


def _checked(result: DecompositionResult, g: ConstraintGraph) -> DecompositionResult:
    """``result``, unless it cannot be a decomposition of ``g``.  The one
    :func:`decompose` keeps for ``g`` is ``g``'s, and is not compared again."""
    if result is decompose(g):
        return result
    clusters, m = result.all_clusters, g.m
    if clusters[:m] != tuple(seed_clusters(g)) or len(clusters) > m and clusters[m].is_seed:
        raise BadValueError("the decomposition is not one of this graph")
    root = result.final_clusters[0]
    if root.owned_constraints is None:
        raise BadValueError(f"cluster {root.id} was merged into its heir and has no sets to plan")
    return result


def _build_plan(result: DecompositionResult, g: ConstraintGraph) -> Plan:
    # A cluster's id is its index and every merge comes after its parents,
    # so one pass in id order finds each child's record made.  A merge
    # records its base child and what it adds to that child's steps, or its
    # refusal, which counts only where a plan reads it: a merge reads its
    # base child, then checks its own shared entities, then reads its first
    # and second child.  The base child is the merge's heir, which holds no
    # sets of its own once merged: what the merge adds is read off its
    # growth record and its other children, whose sets stopped growing
    # there.
    clusters = result.all_clusters
    root = result.final_clusters[0].id
    ends = [c.between for c in g.constraints]
    m = g.m
    made: list = [None] * (root + 1)  # a seed's stays None
    for k, (base, added) in enumerate(result.growth[: root + 1 - m], m):
        if isinstance(made[base], UnsupportedStepError):
            made[k] = made[base]
            continue
        others = [clusters[p] for p in clusters[k].merge.parents if p != base]
        pool: set[int] = set()
        for c in others:
            pool |= c.owned_constraints
        unplaced = set(added)
        # Each unplaced entity's constraints, in index order, and other ends.
        near: dict[str, list[tuple[int, str]]] = {e: [] for e in unplaced}
        for i in sorted(pool):
            a, b = ends[i]
            if a in near:
                near[a].append((i, b))
            if b in near:
                near[b].append((i, a))

        # Sequential extension: place entities one at a time from two
        # constraints whose other endpoints are already placed.
        steps: list[PlanStep] = []
        while unplaced:
            for target in sorted(unplaced):
                ready = [i for i, other in near[target] if other not in unplaced]
                if len(ready) >= 2:
                    steps.append(PlaceByTwoLoci(target, (ready[0], ready[1])))
                    unplaced.remove(target)
                    break
            else:
                break
        if not unplaced:
            made[k] = (base, steps, None)
            continue

        # Recombination of independently solved clusters.  Only a triangle
        # merge gets here: in a graph with no over-constrained subset, the
        # parents of a pair merge hold the same entities, so the base child
        # places them all.  Parents are in id order; each child meets the
        # base child in what it holds that the merge does not add.
        first, second = others
        (u,), (v,), (w,) = (first.entity_ids - added, second.entity_ids - added,
                            first.entity_ids & second.entity_ids)
        refusals = [UnsupportedStepError(
            f"triangle recombination needs shared points, got "
            f"{g.kind_of(e).value} {e!r}") for e in (u, v, w)
            if g.kind_of(e) is not EntityKind.POINT]
        refusals += [r for r in (made[first.id], made[second.id])
                     if isinstance(r, UnsupportedStepError)]
        if refusals:
            made[k] = refusals[0]
            continue
        # A child is aligned unless the base child and w place it already.
        aligned = [(child.id, tuple(sorted(pair)))
                   for child, pair in ((first, (u, w)), (second, (v, w)))
                   if not child.entity_ids & added <= {w}]
        made[k] = (base, (), ((u, v, w), (base, first.id, second.id), aligned))
    if isinstance(made[root], UnsupportedStepError):
        raise made[root]

    # Plans are assembled only for the root and the clusters a recombination
    # reads, each from the records along its chain of base children.  A
    # recombination reads its merge's first and second child, never a base
    # child, so no two of these chains share a cluster and the assembly is
    # linear in the steps.  Those children have smaller ids than the merge,
    # so in id order the plans a recombination reads are assembled first.
    chains: dict[int, tuple[int, list]] = {}  # by cluster: its seed, its chain
    tops = [root]
    for top in tops:
        chain, k = [], top
        while k >= m:
            chain.append(made[k])
            k, _, recombined = made[k]
            if recombined is not None:
                tops += recombined[1][1:]  # the first and second child
        chains[top] = k, chain
    plans: dict[int, Plan] = {}
    for top in sorted(chains):
        seed, chain = chains[top]
        steps = []
        for _, added, recombined in reversed(chain):
            steps += added
            if recombined is not None:
                points, ids, aligned = recombined
                steps.append(TriangleMerge(points, ids, (plans[ids[1]], plans[ids[2]])))
                steps += [AlignCluster(c, pair, plans[c]) for c, pair in aligned]
        (constraint,) = clusters[seed].owned_constraints
        plans[top] = Plan(seed, constraint, tuple(steps), clusters[top].owned_constraints)
    return plans[root]


# --------------------------------------------------------------- JSON mirrors


def cluster_to_dict(c: Cluster) -> dict:
    out: dict = {
        "id": c.id,
        "entities": sorted(c.entity_ids),
        "constraints": sorted(c.owned_constraints),
        "seed": c.is_seed,
    }
    return out


def decomposition_to_dict(result: DecompositionResult) -> dict:
    return {
        "class": result.reducibility.value,
        "nontrivial_cluster_count": result.nontrivial_cluster_count,
        "final_clusters": [cluster_to_dict(c) for c in result.final_clusters],
        "merge_log": [
            {
                "rule": r.rule,
                "new_cluster": r.new_cluster,
                "parents": list(r.parents),
                "shared": list(r.shared),
            }
            for r in result.merge_log
        ],
    }


def plan_to_dict(plan: Plan, g: ConstraintGraph) -> dict:
    steps: list[dict] = []
    for step in plan.steps:
        if isinstance(step, PlaceByTwoLoci):
            steps.append(
                {"type": "place_by_two_loci", "target": step.target,
                 "constraints": list(step.constraints)}
            )
        elif isinstance(step, TriangleMerge):
            steps.append(
                {"type": "triangle_merge", "points": list(step.points),
                 "clusters": list(step.clusters)}
            )
        else:
            steps.append(
                {"type": "align_cluster", "cluster": step.cluster,
                 "shared": list(step.shared), "plan": plan_to_dict(step.plan, g)}
            )
    return {
        "base": {
            "cluster": plan.base_cluster,
            "constraint": plan.base_constraint,
            "between": list(g.constraints[plan.base_constraint].between),
        },
        "steps": steps,
    }
