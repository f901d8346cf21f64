"""Covering-space certificates over glued polytope manifolds.

A coloured subdivision of an oriented closed complex induces, per
colour, an involution xi_i on its top cells: step across the facet
missing that colour.  Words in these involutions, closed under
conjugation tube by tube, label the sheets of a covering of the glued
manifold.  This module builds the closures and certifies the properties
that make the covering work: the steps are sign-swapping involutions,
they commute where the graph says they must, and faces act with full
orbits.

A sheet label is (sigma, mu, g): a top cell, one member of each tube's
family, and a group coordinate g < 2^m.  Every check over the labels
follows from two relations of the generators, which are read off the
generators alone, at a cost that does not depend on r: every xi_i is an
involution that swaps the cell signs, and xi_a xi_b = xi_b xi_a for
colours a and b that the graph does not join; see ``build_covering``.
The families are needed only for their sizes: r, the fibre histogram
and the degree are closed forms in them.  ``mode`` reads only r * 2^m
against the budget and does not say how a check ran.
"""

from dataclasses import dataclass
from math import prod
from operator import itemgetter

from .cellcomplex import pseudo_manifold_check
from .errors import CLOSURE_BUDGET, OMEGA_BUDGET, ValidationError, check_budget
from .graphs import graph_building_set, members
from .nestohedron import face_poset
from .subdivision import subdivide_pseudomanifold


@dataclass
class SigmaSystem:
    """Top cells of a coloured subdivision with their sign split and the
    per-colour crossing involutions."""
    y: object
    size: int
    n_colours: int
    plus: tuple   # True where orientation sign matches colour-order parity
    xi: tuple     # per colour, a permutation of the top cells


def build_sigma_system(y):
    c = y.complex
    n = c.n
    colours = y.colours
    if y.orientation is None or not pseudo_manifold_check(c).is_pseudo:
        raise ValidationError("need an oriented closed pseudo-manifold")
    size = c.n_cells(n)
    xi = [[None] * size for _ in range(n + 1)]
    # the colour of every top cell's vertex at each slot
    slot_colours = [list(map(colours.__getitem__, col))
                    for col in c.vertex_columns[n]]
    pairs = c.facet_pairs()
    for a, b in zip(pairs[::2], pairs[1::2]):
        (t1, s1), (t2, s2) = divmod(a, n + 1), divmod(b, n + 1)
        col = slot_colours[s1][t1]
        if slot_colours[s2][t2] != col:
            raise ValidationError("facet misses different colours on its sides")
        xi[col][t1] = t2
        xi[col][t2] = t1
    plus = []
    for t, seq in enumerate(zip(*slot_colours)):
        inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                  if seq[i] > seq[j])
        sign = -1 if inv & 1 else 1
        plus.append(sign * y.orientation[t] > 0)
    for col in range(n + 1):
        if any(x is None for x in xi[col]):
            raise ValidationError(f"colour {col} misses some top cell")
    if 2 * sum(plus) != size:
        raise ValidationError("sign split is not half and half")
    return SigmaSystem(y, size, n + 1, tuple(plus), tuple(map(tuple, xi)))


def involution_closure(sys, colour_set):
    """Conjugation closure of the smallest colour's involution: every
    permutation reached from it by mu -> xi_i mu xi_i, i in the colour
    set, in the order found.  Refuses as soon as the stored permutations
    would hold more than CLOSURE_BUDGET cell indexes.
    """
    cols = sorted(colour_set)
    seed = sys.xi[cols[0]]
    # xi_i mu xi_i is xi_i read at mu read at xi_i; the cells are two or
    # more (half of them plus), so each item getter gives a tuple
    steps = [(sys.xi[i], itemgetter(*sys.xi[i])) for i in cols]
    found = {seed: None}
    queue = [seed]
    while queue:
        mu = queue.pop()
        for xi, at_xi in steps:
            conj = itemgetter(*at_xi(mu))(xi)
            if conj not in found:
                check_budget("involution closure", (len(found) + 1) * sys.size,
                             "stored cell indexes", CLOSURE_BUDGET)
                found[conj] = None
                queue.append(conj)
    return tuple(found)


def enumerate_involution_sets(sys, b):
    """The conjugation closure of each proper tube's colours, by tube."""
    sets = {}
    total = 0
    for tube in b.proper_tubes:
        perms = involution_closure(sys, members(tube))
        total += len(perms) * sys.size
        check_budget("involution closures", total, "stored cell indexes",
                     CLOSURE_BUDGET)
        sets[tube] = perms
    return sets


@dataclass
class CoveringCertificate:
    r: int
    s: int
    m: int
    sigma_count: int
    i_sizes: dict
    fiber_histogram: dict
    checks: dict
    mode: str


def build_covering(b, sets, sys, budget=None):
    """Certify that the sheet labels assemble into a covering.

    Tube s's face involution sends (sigma, mu, g) to (a sigma, mu', g ^ e_s)
    with a = mu_s: mu'_t = a mu_t a for every tube t strictly containing
    s, and every other coordinate, mu_s included, stays.  A label's sign
    is its cell's sign times the parity of g.  Each member of the family
    I_s is xi_c, c the least colour of s, or xi_i mu xi_i for a member mu
    and a colour i of s: a word w xi_c w' in the generators of s, with w'
    the letters of w reversed.  So every check reads the generators only,
    in O(n^2 * size) steps, whatever r is:

    - ``xi_involutions``: every xi_i is an involution and moves each cell
      to one of the other sign.  ``xi_commutation``: xi_a xi_b = xi_b xi_a
      for every two colours that are not an edge (the four-cofacet
      condition).
    - ``phi_involutions`` is "every xi_i is an involution".  Then each
      member is a conjugate w xi_c w^-1 of one, so an involution, and so
      is conjugation by it: each step twice gives the label back.  If
      some xi_c is none, the step of the tube {c} at the member xi_c
      moves sigma by it.
    - ``epsilon_class_constant`` is "every xi_i swaps the cell signs".
      Then each member, a word of odd length 2|w| + 1, swaps them, and
      with the bit of g that flips, every step keeps the sign.  If xi_c
      keeps some cell's sign, the step of the tube {c} at xi_c changes
      the sign of that cell's labels.
    - ``phi_commutation``: on every 2-face {i, j}, the two steps commute.
      Connected graphs only reach here, so the polytope has a 2-face
      exactly when the graph has three or more vertices, and then the
      check is ``phi_involutions and xi_commutation``:
      - For nested i in j, with a = mu_i and c = mu_j, and a^2 = 1, both
        orders send sigma to a c sigma, mu_j to a c a, mu_t to
        (ac) mu_t (ac)^-1 for every t strictly containing j, and mu_t to
        a mu_t a for the other t strictly containing i.  Without a^2 = 1,
        i's step first sends mu_j to a c a and then sigma to a c a^2 sigma,
        so an xi_c that is no involution fails on the 2-face {c} in
        {c, d}, for a neighbour d of c, at a = xi_c.
      - For disjoint i and j whose union is no tube, no colour of i is a
        neighbour of one of j, so mu_i and mu_j are words in generators
        that commute pairwise, and so do the steps.  Two colours a and b
        that are not an edge form such a 2-face, {a} and {b}, whose steps
        at the members xi_a and xi_b move sigma by xi_a xi_b in one order
        and xi_b xi_a in the other.

    ``covering_fibers`` asks that a face F's walk over its group
    coordinates, from any label at g = 0, reach one label per g.  It is
    ``phi_involutions and phi_commutation``, by the relators of
    (Z/2)^F = <s_j | s_j^2, (s_i s_j)^2>:

    - Every 2-subset of a nested set is a nested set, so every pair of
      tubes of a face is a 2-face, and every tube a 1-face.
    - The walk is consistent exactly when s_j^2 and (s_i s_j)^2, for i, j
      in F, act trivially on every label it reaches: then the steps
      generate an action of (Z/2)^F there, and each g has one label; a
      relator that fails at a reached label x = at[g] gives two routes
      from g that end at different labels.
    - The walk fails at its start label when either relator fails there:
      the route j, j back to g = 0 for s_j^2 on the face {j}, and the
      routes i, j and j, i for (s_i s_j)^2 on the face {i, j}.
    - ``phi_involutions`` checks s_j^2 and ``phi_commutation`` checks
      s_i s_j = s_j s_i at every label, for every tube and every 2-face.
      With s_j^2 trivial, the second is (s_i s_j)^2 acting trivially;
      without it, both sides are false.  So every relator holds at every
      label, the labels any face's walk reaches among them, exactly when
      both checks hold.

    Two entries are closed forms, not counts: every face F splits the
    labels into classes of r * 2^|F|, so the fibre histogram is
    {r: sum over faces of 2^(m - |F|)}; and half of the 2^m group
    coordinates have each parity, so every probe cell carries
    s = 2^(m-1) * prod |I_t| positive labels and ``degree_independent``
    holds.  ``mode`` is "full" when the whole label space r * 2^m fits in
    the budget and "sampled" otherwise; every check is exact either way.
    """
    if budget is None:
        budget = OMEGA_BUDGET
    p = face_poset(b)
    tubes = b.proper_tubes
    m = len(tubes)
    size = sys.size
    prod_i = prod(len(sets[t]) for t in tubes)
    r = size * prod_i
    mode = "full" if r << m <= budget else "sampled"
    checks = {}

    # itemgetter(*q)(p) is the product p q, q applied first
    xi = sys.xi
    involutions = all(itemgetter(*x)(x) == tuple(range(size)) for x in xi)
    flips = all(sys.plus[y] != plus for x in xi
                for y, plus in zip(x, sys.plus))
    graph = sys.y.graph
    commute = all(
        itemgetter(*xi[j])(xi[i]) == itemgetter(*xi[i])(xi[j])
        for i in range(sys.n_colours) for j in range(i + 1, sys.n_colours)
        if not graph.has_edge(i, j))
    checks["xi_involutions"] = involutions and flips
    checks["xi_commutation"] = commute
    checks["phi_involutions"] = involutions
    checks["epsilon_class_constant"] = flips
    checks["phi_commutation"] = p.dim < 2 or (involutions and commute)
    # the relator argument in the docstring
    checks["covering_fibers"] = involutions and checks["phi_commutation"]
    checks["degree_independent"] = True

    faces = [face for level in p.faces_by_size for face in level]
    histogram = {r: sum(1 << (m - len(face)) for face in faces)}
    i_sizes = {",".join(str(v) for v in members(t)): len(sets[t])
               for t in tubes}
    return CoveringCertificate(r, (1 << (m - 1)) * prod_i, m, size,
                               i_sizes, histogram, checks, mode)


def realize(z, g, budget=None, apex=None):
    """Full pipeline from a closed oriented complex and a graph."""
    y = subdivide_pseudomanifold(z, g, apex=apex)
    sys = build_sigma_system(y)
    b = graph_building_set(g)
    sets = enumerate_involution_sets(sys, b)
    return build_covering(b, sets, sys, budget)


def certificate_to_json_dict(cert):
    return {
        "schema": "nestotope/1",
        "r": cert.r,
        "s": cert.s,
        "m": cert.m,
        "sigma_count": cert.sigma_count,
        "I_sizes": cert.i_sizes,
        "fiber_histogram": {str(k): v for k, v in sorted(cert.fiber_histogram.items())},
        "checks": dict(sorted(cert.checks.items())),
        "mode": cert.mode,
    }
