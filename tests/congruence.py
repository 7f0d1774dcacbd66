"""A congruence oracle for the character groups of Gamma^0(11): Hsu's test
on their coset permutation representations.

PSL_2(Z) is the free product <S> * <U>, S = (0 -1; 1 0) of order 2 and
U = (0 -1; 1 1) of order 3.  A subgroup G of finite index is given by the
right action of S and U on its right cosets, two permutations; then
L = SU = (1 1; 0 1) and R = SU^2 = (1 0; 1 1) up to sign, and the level N of
G (Wohlfahrt's, the lcm of its cusp widths) is the order of L.  For odd N,
G is congruence iff (R^2 L^(-1/2))^3 = 1, with 1/2 the inverse of 2 mod N
(Hsu, "Identifying congruence subgroups of the modular group", Proc. AMS 124
(1996); Kurth and Long, "Computations with finite index subgroups of
PSL_2(Z) using Farey symbols", 2008).

A character group is the kernel of Gamma^0(11) -> H_1(X_0(11), Z) = Z^2 ->
Z/n, for n prime one group per line of Hom(H_1, Z/n) = (Z/n)^2, n + 1 of
them.  Gamma^0(11) acts on its 12 right cosets by their top rows in
P^1(F_11).  Reidemeister-Schreier on a BFS tree of that action gives 13 free
edges, whose abelianised relations are S^2 and U^3 at every coset and the two
cusp cycles of L, of widths 11 and 1; the characters mod n are the nullspace
of those relations mod n.  The cover of a character chi acts on 12n points by
(i, k)*x = (i*x, k + chi(i, x)).  The covers are unramified, so the cusps
keep their widths and every character group has level 11.
"""

import math

LEVEL = 11

S = ((0, -1), (1, 0))
U = ((0, -1), (1, 1))


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


def _inverse(g):
    """The inverse of g in SL_2(Z)."""
    (a, b), (c, d) = g
    return ((d, -b), (-c, a))


def _row_times(x, g):
    """The row vector x times the matrix g, mod LEVEL."""
    return tuple((x[0] * g[0][j] + x[1] * g[1][j]) % LEVEL for j in range(2))


def _projective(x):
    """The point (x0 : x1) of P^1(F_11), as (t, 1) or (1, 0)."""
    if x[1]:
        return (x[0] * pow(x[1], -1, LEVEL) % LEVEL, 1)
    return (1, 0)


def _up_to_sign(x):
    return min(x, tuple(-c % LEVEL for c in x))


def top_row_projective(x, g):
    """Right action on the cosets of Gamma^0(11): b = 0 mod 11 fixes (1:0)."""
    return _projective(_row_times(x, g))


def top_row_up_to_sign(x, g):
    """Right action on the cosets of Gamma^1(11): b = 0 and a = +-1 mod 11
    fix +-(1, 0)."""
    return _up_to_sign(_row_times(x, g))


def matrix_up_to_sign(x, g):
    """Right action on the cosets of Gamma(11), the group PSL_2(F_11)."""
    rows = (_row_times(x[0:2], g), _row_times(x[2:4], g))
    return _up_to_sign(rows[0] + rows[1])


def coset_action(start, act):
    """(S, U) as permutations of the orbit of start under act(x, g), the
    right action of a matrix g; start, the point fixed by a group G, is
    point 0, and the orbit is the set of right cosets of G."""
    points, index = [start], {start: 0}
    for x in points:  # the list grows while it is read
        for g in (S, U):
            y = act(x, g)
            if y not in index:
                index[y] = len(points)
                points.append(y)
    return tuple(tuple(index[act(x, g)] for x in points) for g in (S, U))


GAMMA0 = coset_action((1, 0), top_row_projective)
GAMMA1 = coset_action((1, 0), top_row_up_to_sign)
GAMMA = coset_action((1, 0, 0, 1), matrix_up_to_sign)


def compose(*perms):
    """The permutation that applies perms from left to right."""
    out = tuple(range(len(perms[0])))
    for p in perms:
        out = tuple(p[i] for i in out)
    return out


def perm_power(p, k):
    return compose(*[p] * k) if k else tuple(range(len(p)))


def order(p):
    """The lcm of the cycle lengths of p."""
    seen, out = set(), 1
    for i in range(len(p)):
        length, j = 0, i
        while j not in seen:
            seen.add(j)
            j, length = p[j], length + 1
        if length:
            out = math.lcm(out, length)
    return out


def is_transitive(s, u):
    reached = {0}
    todo = [0]
    while todo:
        i = todo.pop()
        for j in (s[i], u[i]):
            if j not in reached:
                reached.add(j)
                todo.append(j)
    return len(reached) == len(s)


def is_congruence(s, u, half=None):
    """Hsu's test at odd level N: (R^2 L^(-1/2))^3 = 1, where half is 1/2
    mod N unless given."""
    l, r = compose(s, u), compose(s, u, u)
    level = order(l)
    if level % 2 == 0:
        raise ValueError(f"level {level} is even; this test is for odd levels")
    if half is None:
        half = pow(2, -1, level)
    x = compose(r, r, perm_power(l, -half % level))
    return perm_power(x, 3) == tuple(range(len(s)))


def schreier_tree(s, u):
    """(reps, free): reps[i], the matrix of the BFS tree path from coset 0
    to coset i, and free, the non-tree edges (i, g), g = 0 for S and 1 for
    U, in order; each gives the generator reps[i] * g * reps[i*g]^-1 of G."""
    perms, gens = (s, u), (S, U)
    reps = {0: ((1, 0), (0, 1))}
    order_seen, tree = [0], set()
    for i in order_seen:
        for g in (0, 1):
            j = perms[g][i]
            if j not in reps:
                reps[j] = _mat_mul(reps[i], gens[g])
                tree.add((i, g))
                order_seen.append(j)
    free = [(i, g) for i in range(len(s)) for g in (0, 1)
            if (i, g) not in tree]
    return [reps[i] for i in range(len(s))], free


def relations(s, u):
    """The abelianised relations among the free edges: S^2 and U^3 at every
    coset, then the cycle of L = SU through every cusp."""
    _, free = schreier_tree(s, u)
    column = {edge: k for k, edge in enumerate(free)}

    def vector(edges):
        v = [0] * len(free)
        for e in edges:
            if e in column:
                v[column[e]] += 1
        return v

    def cycles(p):
        seen = set()
        for i in range(len(p)):
            if i not in seen:
                cycle = [i]
                while p[cycle[-1]] != i:
                    cycle.append(p[cycle[-1]])
                seen.update(cycle)
                yield cycle

    out = [vector((i, 0) for i in c) for c in cycles(s)]
    out += [vector((i, 1) for i in c) for c in cycles(u)]
    return out + [vector(e for i in c for e in ((i, 0), (s[i], 1)))
                  for c in cycles(compose(s, u))]


def nullspace_mod(rows, n):
    """A basis of the vectors v mod the prime n with rows . v = 0."""
    width = len(rows[0])
    rows = [[x % n for x in r] for r in rows]
    pivots, rank = [], 0
    for col in range(width):
        k = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if k is None:
            continue
        rows[rank], rows[k] = rows[k], rows[rank]
        inv = pow(rows[rank][col], -1, n)
        rows[rank] = [x * inv % n for x in rows[rank]]
        for k in range(len(rows)):
            if k != rank and rows[k][col]:
                c = rows[k][col]
                rows[k] = [(x - c * y) % n for x, y in zip(rows[k], rows[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    for col in (c for c in range(width) if c not in pivots):
        v = [0] * width
        v[col] = 1
        for r, p in enumerate(pivots):
            v[p] = -rows[r][col] % n
        basis.append(tuple(v))
    return basis


def characters(n):
    """A basis of the characters of Gamma^0(11) mod n that kill its cusps,
    as values on the free edges of schreier_tree(*GAMMA0)."""
    return nullspace_mod(relations(*GAMMA0), n)


def lines(n):
    """One character per line of the plane of characters mod n."""
    c1, c2 = characters(n)
    return [c2] + [tuple((a + t * b) % n for a, b in zip(c1, c2))
                   for t in range(n)]


def cover(chi, n):
    """(S, U) on the 12n cosets of the kernel of chi, point i + 12k for
    (i, k)."""
    _, free = schreier_tree(*GAMMA0)
    value = dict(zip(free, chi))
    size = len(GAMMA0[0])
    return tuple(tuple(p[i] + size * ((k + value.get((i, g), 0)) % n)
                       for k in range(n) for i in range(size))
                 for g, p in enumerate(GAMMA0))


def gamma1_character():
    """The character of Gamma^0(11) with kernel Gamma^1(11): gamma to the
    discrete log of its a mod 11, base 2, reduced mod 5 (a and -a give the
    same value, 2^5 = -1 mod 11)."""
    reps, free = schreier_tree(*GAMMA0)
    log = {pow(2, k, LEVEL): k for k in range(LEVEL - 1)}
    out = []
    for i, g in free:
        gamma = _mat_mul(_mat_mul(reps[i], (S, U)[g]),
                         _inverse(reps[GAMMA0[g][i]]))
        if gamma[0][1] % LEVEL:
            raise AssertionError(f"edge {(i, g)} is not in Gamma^0(11)")
        out.append(log[gamma[0][0] % LEVEL] % 5)
    return tuple(out)
