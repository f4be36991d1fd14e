"""Shared fixture builders for the test suite.

Names used throughout:
  F1 datum: Q = I = Z2 with one binary operation that is zero on both.
  F2: Z2 x Z2 over m = 2 with f(e2, e2) = e1.
  S3: Z2^3 with f(e3, e3) = e2 and f(e2, e2) = e1 (3-step solvable).
"""

import itertools

from mlex.modcore import ZmModule, mod_elements
from mlex.algebra import Algebra, MultilinearOp, ideal_generated
from mlex.termlang import Signature, Variety, parse_identity
from mlex.cocycle import Action, Cocycle, mlf_variety
from mlex.cocycle import _action_from_generator_tables


def z2(m=2):
    return ZmModule(m, (2,))


def zero_binary_algebra(module, name="f"):
    return Algebra(module, {name: MultilinearOp(name, 2, module, {})})


def f1_datum(m=2):
    Q = zero_binary_algebra(z2(m))
    I = zero_binary_algebra(z2(m))
    return Q, I


def f2_algebra():
    M = ZmModule(2, (2, 2))
    return Algebra(M, {"f": MultilinearOp("f", 2, M, {(1, 1): M.element((1, 0))})})


def f2_kernel_ideal(F2):
    return ideal_generated(F2, [F2.module.element((1, 0))])


def s3_algebra():
    M = ZmModule(2, (2, 2, 2))
    op = MultilinearOp(
        "f", 2, M, {(2, 2): M.generator(1), (1, 1): M.generator(0)}
    )
    return Algebra(M, {"f": op})


def nonabelian_kernel():
    """Kernel algebra Z2 with f(e, e) = e."""
    Z = z2()
    return Algebra(Z, {"f": MultilinearOp("f", 2, Z, {(0, 0): Z.element((1,))})})


def pure_datum_m4():
    Z = ZmModule(4, (2,))
    return Algebra(Z, {}), Algebra(Z, {})


def sig_f(m=2):
    return Signature(m, (("f", 2),), bracket="f")


def leibniz_variety(m=2):
    sig = sig_f(m)
    return Variety(
        "leibniz", sig, (parse_identity("[x,[y,z]] = [[x,y],z] + [y,[x,z]]", sig),)
    )


def f2_cocycle():
    """Datum cocycle reconstructing F2: trivial action, T_f(1,1) = 1."""
    Q, I = f1_datum()
    one = Q.module.element((1,))
    return Cocycle.from_cells(Action.trivial(Q, I), tf_cells={("f", (one, one)): one})


def side_action(slot=1):
    """Nontrivial unary action on the F1 datum: the distinguished entry is
    multiplied by the other quotient coordinate."""
    Q, I = f1_datum()
    one = Q.module.element((1,))
    tables = {("f", (slot,)): {((one,), (0,)): one}}
    return _action_from_generator_tables(Q, I, tables)


def all_f1_cocycles():
    """Raw enumeration over the F1 datum: all actions, free factor sets,
    free scalar factor sets (64 + scalar variants)."""
    Q, I = f1_datum()
    one = Q.module.element((1,))
    zero = Q.module.zero()

    def el(bit):
        return one if bit else zero

    out = []
    for a1 in range(2):
        for a2 in range(2):
            tables = {}
            if a1:
                tables[("f", (0,))] = {((one,), (0,)): one}
            if a2:
                tables[("f", (1,))] = {((one,), (0,)): one}
            act = _action_from_generator_tables(Q, I, tables)
            for tp, tfv, t0, t1 in itertools.product(range(2), repeat=4):
                T = Cocycle(
                    act,
                    {(one, one): el(tp)},
                    {(0, one): el(t0), (1, one): el(t1)},
                    {("f", (one, one)): el(tfv)},
                )
                out.append(T)
    return out


def hs_fixture_a():
    """F2 with Z2 coefficients and the trivial action."""
    F2 = f2_algebra()
    ideal = f2_kernel_ideal(F2)
    A = zero_binary_algebra(z2())
    return F2, ideal, A, Action.trivial(F2, A), mlf_variety(sig_f())


def hs_fixture_b():
    """F2 with Z2 x Z2 coefficients; the kernel generator acts through a
    projection with a proper null submodule."""
    F2 = f2_algebra()
    ideal = f2_kernel_ideal(F2)
    Am = ZmModule(2, (2, 2))
    A = Algebra(Am, {"f": MultilinearOp("f", 2, Am, {})})

    def phi(a):
        return Am.element((a.coords[1], 0))

    table = {}
    for mel in mod_elements(F2.module):
        for a in mod_elements(Am):
            v = phi(a) if mel.coords[0] == 1 else Am.zero()
            table[((mel,), (a,))] = v
    action = Action(F2, A, {("f", (1,)): table})
    return F2, ideal, A, action, mlf_variety(sig_f())


def hs_fixture_c():
    """Z4 with zero multiplication over m = 4; the group factor set of the
    extension is nontrivial."""
    Z4 = ZmModule(4, (4,))
    M = Algebra(Z4, {"f": MultilinearOp("f", 2, Z4, {})})
    ideal = ideal_generated(M, [Z4.element((2,))])
    A = Algebra(ZmModule(4, (2,)), {"f": MultilinearOp("f", 2, ZmModule(4, (2,)), {})})
    return M, ideal, A, Action.trivial(M, A), mlf_variety(sig_f(4))


def hs_fixture_d():
    """Z3 x Z3 with f(e2, e1) = e1 over m = 3, ideal <e1>, coefficients
    Z3 x Z3.  A lift of q acts in the second slot as 2q, and the ideal
    acts in the first slot by a -> b(a1 + a2)(1, 2), so the null
    submodule is {(0,0), (1,2), (2,1)}.  For linear d the box condition
    needs helper maps with h(q)1 + h(q)2 = -q t where d(1) = t(1, 2): a
    coset in which the lexicographic minimum decides."""
    Mm = ZmModule(3, (3, 3))
    M = Algebra(Mm, {"f": MultilinearOp("f", 2, Mm, {(1, 0): Mm.element((1, 0))})})
    ideal = ideal_generated(M, [Mm.element((1, 0))])
    Am = ZmModule(3, (3, 3))
    A = Algebra(Am, {"f": MultilinearOp("f", 2, Am, {})})
    second, first = {}, {}
    for x in mod_elements(Mm):
        for a in mod_elements(Am):
            second[((x,), (a,))] = Am.scalar(2 * x.coords[1], a)
            c = x.coords[0] * (a.coords[0] + a.coords[1])
            first[((x,), (a,))] = Am.element((c, 2 * c))
    action = Action(M, A, {("f", (1,)): second, ("f", (0,)): first})
    return M, ideal, A, action, mlf_variety(sig_f(3))


def hs_fixture_unary():
    """Z2 x Z2 with one unary operation p(e2) = e1, ideal <e1>, Z2
    coefficients and the trivial action: no action tables at all, so the
    box condition has no cells."""
    Mm = ZmModule(2, (2, 2))
    M = Algebra(Mm, {"p": MultilinearOp("p", 1, Mm, {(1,): Mm.element((1, 0))})})
    ideal = ideal_generated(M, [Mm.element((1, 0))])
    A = Algebra(ZmModule(2, (2,)), {"p": MultilinearOp("p", 1, ZmModule(2, (2,)), {})})
    return M, ideal, A, Action.trivial(M, A), mlf_variety(Signature(2, (("p", 1),)))


F2_FILE = """\
[ring] modulus = 2
[module M2] factors = 2,2
[module Z] factors = 2
[algebra M] module = M2; op f/2: (2,2) -> (1,0)
[algebra Q] module = Z; op f/2
[algebra I] module = Z; op f/2
[ideal K] algebra = M; generators = (1,0)
[variety leibniz] signature = f/2; bracket = f; identity "[x,[y,z]] = [[x,y],z] + [y,[x,z]]"
[action t0] Q = Q; I = I
[cocycle T] action = t0; Tf: ((1),(1)) -> (1)
[cocycle Z0] action = t0
"""

HS_FILE = """\
[ring] modulus = 2
[module M2] factors = 2,2
[module Z] factors = 2
[algebra M] module = M2; op f/2: (2,2) -> (1,0)
[algebra A] module = Z; op f/2
[ideal I] algebra = M; generators = (1,0)
[action act] Q = M; I = A
"""

# hs_fixture_b as a workspace file: a nontrivial action with a proper null
# submodule {(0,0),(1,0)}, on which the action and the induced action of
# the quotient vanish.
HS_B_FILE = """\
[ring] modulus = 2
[module M2] factors = 2,2
[algebra M] module = M2; op f/2: (2,2) -> (1,0)
[algebra A] module = M2; op f/2
[ideal I] algebra = M; generators = (1,0)
[action act] Q = M; I = A
a(f,2): ((1,0),(0,0)|(0,0),(0,1)) -> (1,0)
a(f,2): ((1,0),(0,0)|(0,0),(1,1)) -> (1,0)
a(f,2): ((1,1),(0,0)|(0,0),(0,1)) -> (1,0)
a(f,2): ((1,1),(0,0)|(0,0),(1,1)) -> (1,0)
"""

# The same module pair with a quotient element acting nontrivially on the
# null submodule {(0,0),(1,0)}: the induced action of Q is nontrivial.
HS_TWIST_FILE = """\
[ring] modulus = 2
[module M2] factors = 2,2
[algebra M] module = M2; op f/2: (2,2) -> (1,0)
[algebra A] module = M2; op f/2
[ideal I] algebra = M; generators = (1,0)
[action act] Q = M; I = A
a(f,2): ((1,0),(0,0)|(0,0),(0,1)) -> (1,0)
a(f,2): ((1,0),(0,0)|(0,0),(1,1)) -> (1,0)
a(f,2): ((0,1),(0,0)|(0,0),(1,0)) -> (1,0)
a(f,2): ((0,1),(0,0)|(0,0),(1,1)) -> (1,0)
a(f,2): ((1,1),(0,0)|(0,0),(0,1)) -> (1,0)
a(f,2): ((1,1),(0,0)|(0,0),(1,0)) -> (1,0)
"""

# Q = I = Z2^2 with zero operations and the trivial action.  B is the zero
# cocycle read through the non-additive lifting change h(1,0) = (1,0), h = 0
# elsewhere, so every map of the coset h + Hom(Q, I) is a witness of Z ~ B.
COSET_FILE = """\
[ring] modulus = 2
[module V] factors = 2,2
[algebra Q] module = V; op f/2
[algebra I] module = V; op f/2
[action t0] Q = Q; I = I
[cocycle Z] action = t0
[cocycle B] action = t0
Tplus: ((0,1),(1,0)) -> (1,0)
Tplus: ((1,0),(0,1)) -> (1,0)
Tplus: ((0,1),(1,1)) -> (1,0)
Tplus: ((1,1),(0,1)) -> (1,0)
Tplus: ((1,0),(1,1)) -> (1,0)
Tplus: ((1,1),(1,0)) -> (1,0)
"""

# Over Z3 with zero operations: the group factor set of C is the nonzero
# coboundary of h(1) = 1, h(2) = 0.
COBOUNDARY_FILE = """\
[ring] modulus = 3
[module Z] factors = 3
[algebra Q] module = Z; op f/2
[algebra I] module = Z; op f/2
[action t0] Q = Q; I = I
[cocycle C] action = t0
Tplus: ((1),(1)) -> (2)
Tplus: ((1),(2)) -> (1)
Tplus: ((2),(1)) -> (1)
Tplus: ((2),(2)) -> (2)
"""

LEIBNIZ_FILE = """\
[ring] modulus = 2
[variety leibniz] signature = br/2; bracket = br; identity "[x,[y,z]] = [[x,y],z] + [y,[x,z]]"
"""

ROTA_FILE = """\
[ring] modulus = 6
[variety rotabaxter] signature = br/2,P/1; bracket = br; identity "[P(x), P(y)] = P([P(x), y]) + P([x, P(y)]) + 2*P([x, y])"
"""

S3_FILE = """\
[ring] modulus = 2
[module M3] factors = 2,2,2
[algebra S3] module = M3; op f/2: (3,3) -> (0,1,0); op f/2: (2,2) -> (1,0,0)
"""

# Z4 x Z2 over m = 4 with f(e1, e1) = (2,1) and f(e2, e1) = (2,0).  A map
# may send e2 only to elements killed by 2, such as (2,0): its derivations
# need that step, and they do not form a coordinate subgroup of End.
GCD_FILE = """\
[ring] modulus = 4
[module W] factors = 4,2
[algebra D] module = W; op f/2: (1,1) -> (2,1); op f/2: (2,1) -> (2,0)
"""

# Q = Z2 and I = Z2^2 with zero operations; a lift of 1 acts in the second
# slot by the projection a -> (a1, 0).  Every map of I and of Q is a
# derivation, but only 4 of the 16 * 2 pairs are compatible: alpha must
# commute with the projection and beta must vanish.
PAIR_CUT_FILE = """\
[ring] modulus = 2
[module Z] factors = 2
[module V] factors = 2,2
[algebra Q] module = Z; op f/2
[algebra I] module = V; op f/2
[action t] Q = Q; I = I
a(f,2): ((1),(0)|(0,0),(1,0)) -> (1,0)
a(f,2): ((1),(0)|(0,0),(1,1)) -> (1,0)
[cocycle C] action = t
"""

# Q = Z4 and I = Z2^2 over m = 4 with zero operations.  An odd quotient
# element acts in the first slot by a -> (a2, 0) and in the second by the
# swap a -> (a2, a1).  Every multilinear operation satisfies the identity
# of sc; its strict identity has action summands over a scalar factor set
# (from 2*x) and over a group factor set (from -y).
AFFINE_M4_FILE = """\
[ring] modulus = 4
[module C4] factors = 4
[module V] factors = 2,2
[algebra Q] module = C4; op f/2
[algebra I] module = V; op f/2
[variety sc] signature = f/2; identity "f(2*x, y) + f(x, -y) = f(x, y)"
[action t] Q = Q; I = I
a(f,1): ((0),(1)|(0,1),(0,0)) -> (1,0)
a(f,1): ((0),(1)|(1,1),(0,0)) -> (1,0)
a(f,1): ((0),(3)|(0,1),(0,0)) -> (1,0)
a(f,1): ((0),(3)|(1,1),(0,0)) -> (1,0)
a(f,2): ((1),(0)|(0,0),(1,0)) -> (0,1)
a(f,2): ((1),(0)|(0,0),(0,1)) -> (1,0)
a(f,2): ((1),(0)|(0,0),(1,1)) -> (1,1)
a(f,2): ((3),(0)|(0,0),(1,0)) -> (0,1)
a(f,2): ((3),(0)|(0,0),(0,1)) -> (1,0)
a(f,2): ((3),(0)|(0,0),(1,1)) -> (1,1)
"""

# Extensions and a datum whose reports print nonzero factor-set and action
# cells: M = Z4 x Z2 over m = 4 by K = <(2,0)> has nonzero Tplus, Tr and Tf
# cells, N = Z2^2 by L = <(1,0)> nonzero a(f,1) and a(f,2) cells, and h2
# over Q = I = Z2 has classes with a nonzero T+.
TABLE_ORDER_FILE = """\
[ring] modulus = 4
[module W] factors = 4,2
[module Z] factors = 2
[module V] factors = 2,2
[algebra M] module = W; op f/2: (1,2) -> (2,0); op f/2: (2,2) -> (0,1)
[ideal K] algebra = M; generators = (2,0)
[algebra N] module = V; op f/2: (1,2) -> (1,0); op f/2: (2,1) -> (1,0); op f/2: (2,2) -> (1,0)
[ideal L] algebra = N; generators = (1,0)
[algebra Q] module = Z; op f/2
[algebra I] module = Z; op f/2
[action t0] Q = Q; I = I
"""


# The hs datum of the verify seed-1 draw r0_v3_ext: M = Z2^3 with four
# nonzero cells of f, its ideal K of order 4 and the trivial action on
# A = Z2.  Its affine H2 solves a congruence system of several hundred rows.
HS_M_FILE = """\
[ring] modulus = 2
[module ME] factors = 2,2,2
[module MA] factors = 2
[algebra M] module = ME; op f/2: (2,3) -> (1,0,0); op f/2: (3,1) -> (1,0,0); op f/2: (3,2) -> (1,1,0); op f/2: (3,3) -> (1,0,0)
[algebra A] module = MA; op f/2
[ideal K] algebra = M; generators = (1,0,0),(0,1,0)
[action act] Q = M; I = A
"""
