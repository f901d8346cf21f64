"""Covering-space certificates over glued polytope manifolds.

A coloured subdivision of an oriented closed complex induces, per
colour, an involution on its top cells: step across the facet missing
that colour.  Words in these involutions, closed under conjugation
tube by tube, label the sheets of a covering of the glued manifold.
This module builds that bookkeeping and certifies the properties that
make the covering work: the steps are sign-swapping involutions, they
commute where the graph says they must, and faces act with full orbits.

A sheet label is (sigma, mu, g): a top cell, one involution index per
tube, and a group coordinate g < 2^m.  The face involutions move g by
one bit and never read it, so every check is made on the fibre g = 0.
There a tube's face involution (``phi_action``) reads only that tube's
permutations and conjugation tables, and each output coordinate reads
only its own input and the tube's index, so every check over all labels
splits into checks on those per-tube tables: exact at any r, at a cost
that does not depend on r; see ``build_covering``.  The fibre histogram
and the degree are closed forms in r, m and the family sizes.  ``mode``
reads only r * 2^m against the budget and does not say how a check ran.
"""

from dataclasses import dataclass
from itertools import product
from math import prod
from operator import itemgetter

from .cellcomplex import pseudo_manifold_check
from .errors import CLOSURE_BUDGET, OMEGA_BUDGET, ValidationError, check_budget
from .graphs import graph_building_set, members
from .nestohedron import face_poset
from .subdivision import subdivide_pseudomanifold


def compose(p, q):
    """Permutation product, q applied first."""
    return tuple(p[x] for x in q)


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


@dataclass
class InvolutionSet:
    perms: tuple
    words: tuple
    conj: dict   # bigger tube t -> rows[i_s][i_t], the index of mu_s.mu_t.mu_s

    def __len__(self):
        return len(self.perms)


def involution_closure(sys, colour_set):
    """Conjugation closure of the smallest colour's involution.

    Returns (perms, words): each permutation with one witness word over
    the given colours.  Refuses as soon as the stored permutations would
    hold more than CLOSURE_BUDGET cell indexes.
    """
    cols = sorted(colour_set)
    seed = sys.xi[cols[0]]
    words = {seed: (cols[0],)}
    queue = [seed]
    while queue:
        mu = queue.pop()
        for i in cols:
            conj = compose(sys.xi[i], compose(mu, sys.xi[i]))
            if conj not in words:
                check_budget("involution closure", (len(words) + 1) * sys.size,
                             "stored cell indexes", CLOSURE_BUDGET)
                words[conj] = (i,) + words[mu] + (i,)
                queue.append(conj)
    perms = tuple(words)
    return perms, tuple(words[p] for p in perms)


def enumerate_involution_sets(sys, b):
    """One conjugation-closed involution family per facet tube, with the
    action of each family on the indexes of every bigger tube's family."""
    sets = {}
    total = 0
    for tube in b.proper_tubes:
        perms, words = involution_closure(sys, members(tube))
        total += len(perms) * sys.size
        check_budget("involution closures", total, "stored cell indexes",
                     CLOSURE_BUDGET)
        for mu in perms:
            for x in range(sys.size):
                if mu[mu[x]] != x:
                    raise ValidationError("closure member is not an involution")
                if sys.plus[mu[x]] == sys.plus[x]:
                    raise ValidationError("closure member keeps a sign fixed")
        sets[tube] = InvolutionSet(perms, words, {})
    for t in b.proper_tubes:
        index = {p: i for i, p in enumerate(sets[t].perms)}
        for s in b.proper_tubes:
            if s == t or (t & s) != s:
                continue
            total += len(sets[s]) * len(sets[t])
            check_budget("involution closures and their tables", total,
                         "stored cell indexes", CLOSURE_BUDGET)
            rows = []
            for mu_s in sets[s].perms:
                row = [index.get(compose(mu_s, compose(mu_t, mu_s)))
                       for mu_t in sets[t].perms]
                if None in row:
                    raise ValidationError("conjugation leaves the involution set")
                rows.append(tuple(row))
            sets[s].conj[t] = tuple(rows)
    return sets


def phi_action(b, sets, s, omega):
    """The face involution of one tube on a sheet label (sigma, mu, g).

    The tube's own involution moves the cell; families at larger tubes
    are conjugated; the group coordinate flips the tube's bit.  ``sigma``
    indexes the tube's permutation, so a slice there returns that part of
    the permutation instead of one cell.
    """
    sigma, mu, g = omega
    j = b.proper_index[s]
    tube_set = sets[s]
    i_s = mu[j]
    new_mu = list(mu)
    for t, rows in tube_set.conj.items():
        k = b.proper_index[t]
        new_mu[k] = rows[i_s][mu[k]]
    return tube_set.perms[i_s][sigma], tuple(new_mu), g ^ (1 << j)


def epsilon(sys, omega):
    """Sign of a sheet label: cell sign times group-coordinate parity."""
    sigma, _, g = omega
    sign = 1 if sys.plus[sigma] else -1
    if g.bit_count() & 1:
        sign = -sign
    return sign


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

    The checks run on the fibre g = 0 only.  ``phi_action`` sends
    (sigma, mu, g) to (f_s(sigma, mu), g ^ e_s) with f_s blind to g, and
    ``epsilon`` flips with the parity of g, so each check on (sigma, mu, g)
    is the same check as on (sigma, mu, 0).

    On that fibre f_s moves sigma by the permutation pi^s_a, where
    a = mu_s, and moves mu_t by the row ``sets[s].conj[t][a]`` for each
    tube t strictly containing s; every other coordinate, mu_s included,
    stays.  The fibre labels are all of {sigma} x prod I_t, so a check
    over every label splits into one check per output coordinate, over
    the inputs that coordinate reads:

    - ``phi_involutions``: every pi^s_a and every conjugation row is an
      involution;
    - ``epsilon_class_constant``: every pi^s_a moves each cell to one of
      the other sign;
    - ``phi_commutation``: on each 2-face {i, j}, for every (a, c) in
      I_i x I_j, both orders give the same sigma permutation and the
      same (mu_i, mu_j), and the same mu_t for every index of every tube
      t strictly containing i or j.

    Each check runs on states of rows: the cells, one row per tube it
    steps holding that tube's index, and one row per tube above them
    holding every index of that tube's family.  A step maps whole rows,
    so one state stands for every label with those indexes.  The cost is
    a sum over tubes and 2-faces of their index choices times
    (size + sum |I_t|) table reads, whatever r is, and nothing is stored
    beyond the tables that ``enumerate_involution_sets`` bounds.

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
      s_i s_j = s_j s_i at every fibre label, for every tube and every
      2-face.  With s_j^2 trivial, the second is (s_i s_j)^2 acting
      trivially; without it, both sides are false.  So every relator
      holds at every fibre label, the labels any face's walk reaches
      among them, exactly when both checks hold.

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

    ident = tuple(range(size))
    checks["xi_involutions"] = all(
        compose(x, x) == ident
        and all(sys.plus[x[t]] != sys.plus[t] for t in range(size))
        for x in sys.xi)
    graph = sys.y.graph
    checks["xi_commutation"] = all(
        compose(sys.xi[i], sys.xi[j]) == compose(sys.xi[j], sys.xi[i])
        for i in range(sys.n_colours) for j in range(i + 1, sys.n_colours)
        if not graph.has_edge(i, j))

    def states(own):
        """Row positions, by tube, and the start states for the steps of
        the ``own`` tubes: one state per choice of their indexes, holding
        every cell and every index of each tube strictly above them."""
        above = {t for s in own for t in sets[s].conj}.difference(own)
        at = {t: q for q, t in enumerate((*own, *above), 1)}
        rows = [tuple(range(len(sets[t]))) for t in above]
        return at, ([ident, *((k,) for k in ks), *rows]
                    for ks in product(*(range(len(sets[s])) for s in own)))

    def step(s, state, at):
        """Tube s's face involution on every label a state stands for.  The
        cells are two or more (half of them plus), so the item getter
        gives a tuple."""
        a = state[at[s]][0]
        new = list(state)
        new[0] = itemgetter(*state[0])(sets[s].perms[a])
        for t, rows in sets[s].conj.items():
            new[at[t]] = tuple(map(rows[a].__getitem__, state[at[t]]))
        return new

    # epsilon reads sigma and the parity of g only: each cell's sign at
    # g = 0, and at the odd g = e_s where every tube's step lands
    at_zero = tuple(epsilon(sys, (c, None, 0)) for c in range(size))
    landed = tuple(epsilon(sys, (c, None, 1)) for c in range(size))
    involutions = class_constant = True
    for s in tubes:
        at, starts = states((s,))
        for w in starts:
            image = step(s, w, at)
            involutions = involutions and step(s, image, at) == w
            class_constant = class_constant and (
                tuple(map(landed.__getitem__, image[0])) == at_zero)
    checks["phi_involutions"] = involutions
    checks["epsilon_class_constant"] = class_constant

    pairs = p.faces_by_size[2] if p.dim >= 2 else ()
    commutation = True
    for i, j in pairs:
        at, starts = states((tubes[i], tubes[j]))
        commutation = commutation and all(
            step(tubes[i], step(tubes[j], w, at), at)
            == step(tubes[j], step(tubes[i], w, at), at) for w in starts)
    checks["phi_commutation"] = commutation
    # the relator argument in the docstring
    checks["covering_fibers"] = involutions and commutation
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
