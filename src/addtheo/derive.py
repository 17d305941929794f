"""Derivation of the canonical irreducible addition theorem.

The pipeline builds the class base law (the functional equation of the
uniformizer at u, v, u+v), adjoins the value relations x*D - N at the three
slots, and eliminates the uniformizer symbols by iterated resultants in a
fixed, documented order.  The raw eliminant usually carries extraneous
factors; pruning keeps the unique irreducible factor that vanishes exactly at
graph points mod a large prime (docs/decisions.md section 7), exact division
having already certified that it divides the eliminant.  Its degree is
checked against the m*nu^2/lambda0 law, formed before elimination, and
numeric.certify then checks it on complex graph samples and gives the
reported residual.

Elimination order (part of the contract, chosen to keep intermediate degrees
low): rational u3, u2, u1; exponential t3, t2, t1; elliptic q3, q2, q1, p3,
p2, p1.  At each step the pivot is the involved relation of least degree in
the eliminated symbol (ties: fewer terms, then canonical order); every other
involved relation is first reduced modulo the pivot when that is degree-safe,
then replaced by its resultant with the pivot.  Both operations stay inside
the ideal of the relations, so every intermediate still vanishes on the graph.
On the last symbol only the pivot's cheapest partner (same key) is eliminated,
and that one result is the raw eliminant: the graph ideal in Q[x, y, z] is
principal, generated by the irreducible G, so G divides any nonzero eliminant.
On the symbol before the last, the partners' results are built one at a time,
and only until the last step finds a usable pair (docs/decisions.md section 3).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from . import factor, numeric
from .errors import (
    AddTheoError,
    DegenerateEliminationError,
    DegreeLawError,
    PruningError,
)
from .funcspec import FuncSpec, FunctionClass, curve_polynomial
from .poly import MPoly, divide_exact, rem_monic
from .resultants import content_and_primitive, resultant, squarefree_part

if TYPE_CHECKING:  # laws builds on derive, never the reverse
    from .laws import DegreeReport

Q = Fraction

_SLOT_VARS = {
    FunctionClass.RATIONAL_OF_U: ("u1", "u2", "u3"),
    FunctionClass.RATIONAL_OF_EXP: ("t1", "t2", "t3"),
    FunctionClass.ELLIPTIC: ("p1", "q1", "p2", "q2", "p3", "q3"),
}

_ELIM_ORDER = {
    FunctionClass.RATIONAL_OF_U: ("u3", "u2", "u1"),
    FunctionClass.RATIONAL_OF_EXP: ("t3", "t2", "t1"),
    FunctionClass.ELLIPTIC: ("q3", "q2", "q1", "p3", "p2", "p1"),
}


class AdditionTheorem(NamedTuple):
    """A derived G with its evidence and the degree law prune checked it against."""

    G: MPoly
    law: DegreeReport  # the law checked, with actual filled in by prune
    spec: FuncSpec
    max_residual: float
    samples: int
    seed: int


def base_law(cls: FunctionClass, g2=None, g3=None) -> tuple:
    """The functional relations tying the uniformizer at u, v, and u+v, over
    the slot variables of cls."""
    slots = _SLOT_VARS[cls]
    if cls is FunctionClass.RATIONAL_OF_U:
        u1, u2, u3 = (MPoly.var(slots, s) for s in slots)
        return (u3 - u1 - u2,)
    if cls is FunctionClass.RATIONAL_OF_EXP:
        t1, t2, t3 = (MPoly.var(slots, s) for s in slots)
        return (t3 - t1 * t2,)
    if g2 is None or g3 is None:
        raise AddTheoError("elliptic base law needs g2 and g3")
    if g2**3 - 27 * g3**2 == 0:
        raise AddTheoError("zero discriminant")
    p1, q1, p2, q2, p3, q3 = (MPoly.var(slots, s) for s in slots)
    # chord relation: the x-coordinates of three collinear curve points sum
    # to the squared slope / 4; sign convention puts (p3, -q3) on the chord
    chord_sum = 4 * (p1 + p2 + p3) * (p2 - p1) ** 2 - (q2 - q1) ** 2
    collinear = q3 * (p2 - p1) + q1 * (p2 - p3) + q2 * (p3 - p1)
    relations = [chord_sum, collinear]
    for p, q in ((p1, q1), (p2, q2), (p3, q3)):
        relations.append(q**2 - (4 * p**3 - g2 * p - g3))
    return tuple(relations)


def _pivot_key(sym):
    return lambda r: (r.degree_in(sym), len(r), r.sort_key())


def _pivot_eliminant(r, pivot, monic_pivot, sym, content_first=False):
    """r with sym eliminated against the pivot, or None for a multiple of it.
    content_first takes r's content in sym out of the resultant and
    multiplies its deg(pivot)-th power back in (docs/decisions.md section 3)."""
    if monic_pivot is not None:
        r = rem_monic(r, monic_pivot, sym)
    if not r.uses(sym):
        res = r
    elif content_first:
        cont, prim = content_and_primitive(r, sym)
        # res(c*A, B) = c^deg(B) * res(A, B) for c free of sym
        res = resultant(prim, pivot, sym) * cont ** pivot.degree_in(sym)
    else:
        res = resultant(r, pivot, sym)
    if res.is_zero():
        if divide_exact(r, pivot) is not None:
            return None  # a multiple of the pivot adds no constraint
        raise DegenerateEliminationError(
            f"degenerate elimination: common factor eliminating {sym} "
            f"between relations of {len(r)} and {len(pivot)} terms"
        )
    # content normalization only: square-free reduction of intermediates costs
    # more (multivariate gcd) than factoring the final eliminant ever does
    res = res.canonicalize()
    if res.is_constant():
        raise DegenerateEliminationError(
            f"elimination of {sym} produced a nonzero constant"
        )
    return res


def _monic(pivot, sym):
    """The monic multiple of the pivot in sym, or None when its leading
    coefficient is not constant (relations are then not reduced first)."""
    lc = pivot.coeffs_in(sym)[-1]
    return pivot * (1 / lc.constant_value()) if lc.is_constant() else None


def _eliminate_step(rels, sym):
    """The relations free of sym, and an iterator that eliminates sym from the
    pivot's partners one at a time, in pivot-key order."""
    involved = sorted((r for r in rels if r.uses(sym)), key=_pivot_key(sym))
    rest = [r for r in rels if not r.uses(sym)]
    if not involved:
        return rest, iter(())
    pivot, monic_pivot = involved[0], _monic(involved[0], sym)
    results = (_pivot_eliminant(r, pivot, monic_pivot, sym) for r in involved[1:])
    return rest, (res for res in results if res is not None)


def _last_step(rels, sym) -> MPoly:
    """The eliminant of the last symbol: a relation already free of it, else
    the cheapest pair's result; DegenerateEliminationError when neither."""
    rels = sorted((r for r in rels if not r.is_constant()), key=_pivot_key(sym))
    if rels and not rels[0].uses(sym):
        return rels[0]
    if len(rels) > 1:
        pivot, monic_pivot = rels[0], _monic(rels[0], sym)
        for r in rels[1:]:
            res = _pivot_eliminant(r, pivot, monic_pivot, sym, content_first=True)
            if res is not None:
                return res
    raise DegenerateEliminationError("elimination consumed every relation")


def fold_eliminate(relations, elim_order) -> MPoly:
    """Eliminate the listed symbols by iterated resultants with pivoting.

    Returns one eliminant: a non-constant relation free of all eliminated
    symbols.  Every input must vanish identically on the parametrized graph,
    which makes each resultant, being in the ideal of its two arguments,
    vanish there too.  When the pivot's leading coefficient in the symbol is
    constant, relations are first reduced modulo the pivot, which keeps
    degrees in the remaining symbols from compounding.  A partner that the
    pivot divides is dropped, whatever the pivot's leading coefficient.

    Every symbol but the last two is eliminated from every relation.  On the
    symbol before the last the partners' results are built one at a time, in
    pivot-key order, and only while the last step finds no usable pair.  The
    last step takes the non-constant relations in pivot-key order: a relation
    already free of the symbol is returned as it is; otherwise the first
    partner of the pivot that is not a multiple of it is eliminated against
    the pivot and that one result is returned.  No partner, or a zero or
    constant result, means one more result is built and the last step runs
    again; once every result is built it raises DegenerateEliminationError
    instead.  A symbol that only one relation uses drops that relation: it is
    the pivot, with no partner.
    """
    *steps, last = elim_order
    rels, pending = list(relations), iter(())
    for sym in steps:
        # drop duplicates (MPoly equality is structural), keep the order
        rels, pending = _eliminate_step(list(dict.fromkeys(rels + list(pending))), sym)
    built = []
    while True:
        try:
            return _last_step(list(dict.fromkeys(rels + built)), last)
        except DegenerateEliminationError:
            res = next(pending, None)
            if res is None:
                raise
            built.append(res)


def _value_relations(spec: FuncSpec, ring):
    """x*D - N at the three argument slots."""
    slots = _SLOT_VARS[spec.cls]
    uni = spec.uniformizer
    out = []
    for i, value_name in enumerate(("x", "y", "z")):
        if spec.cls is FunctionClass.ELLIPTIC:
            mapping = {"p": slots[2 * i], "q": slots[2 * i + 1]}
        else:
            mapping = {uni[0]: slots[i]}
        n_i = spec.numerator.rename(mapping).embed(ring)
        d_i = spec.denominator.rename(mapping).embed(ring)
        out.append(MPoly.var(ring, value_name) * d_i - n_i)
    return out


def eliminate(spec: FuncSpec) -> MPoly:
    """The raw eliminant: a nonzero polynomial in (x, y, z) vanishing on the
    graph, before spurious factors are removed."""
    ring = ("x", "y", "z") + _SLOT_VARS[spec.cls]
    relations = _value_relations(spec, ring)
    relations.extend(r.embed(ring) for r in base_law(spec.cls, spec.g2, spec.g3))
    final = fold_eliminate(relations, _ELIM_ORDER[spec.cls])
    return final.restrict(("x", "y", "z")).canonicalize()


def graph_factor(eliminant: MPoly, names, pairs, what: str) -> MPoly:
    """The unique irreducible factor of eliminant vanishing on the graph.

    pairs yields (prime, points), the points exact mod prime as value tuples
    in `names` order (numeric.exact_points).  A factor survives a prime when
    it vanishes mod prime at every point; the pairs are taken in turn until
    exactly one factor survives.  Only the primitive part in the last used
    variable, the one squarefree splits on, is factored: the relation sought
    involves that variable, so no factor of the content is it.
    """
    primitive = content_and_primitive(eliminant, eliminant.used_variables()[-1])[1]
    candidates = [f for f, _ in factor.factor(primitive)]
    survivors = []
    for prime, pts in pairs:
        pts = [dict(zip(names, pt)) for pt in pts]
        survivors = [f for f in candidates if not any(f.evaluate_mod(pt, prime) for pt in pts)]
        if len(survivors) == 1:
            return survivors[0]
    if not survivors:
        raise PruningError(f"no {what} found")
    texts = "; ".join(s.to_text() for s in survivors)
    raise PruningError(f"ambiguous pruning of the {what}: surviving factors [{texts}]")


def prune(eliminant: MPoly, spec: FuncSpec, cfg: numeric.EvalConfig, law: DegreeReport,
          verify_samples: int = 200) -> AdditionTheorem:
    """Select the unique irreducible factor vanishing on the graph, check its
    z-degree against the degree law `law` (a DegreeReport of spec) and its x
    and y degrees against z's, then certify it on complex graph samples."""
    pairs = numeric.exact_points(spec, cfg, 101, 2, numeric.graph_point)
    g = graph_factor(eliminant, ("x", "y", "z"), pairs, "graph component")
    actual = tuple(g.degree_in(v) for v in ("x", "y", "z"))
    if actual[2] != law.predicted:
        raise DegreeLawError(
            f"derived degree {actual[2]} does not match the degree law "
            f"m*nu^2/lambda0 = {law.predicted} (nu={law.nu}, lambda0={law.lambda0})"
        )
    if len(set(actual)) != 1:
        raise DegreeLawError(f"addition theorem degrees differ: {actual}")
    samples = numeric.sample_graph(spec, verify_samples, cfg, salt=103)
    max_res = numeric.certify(g, samples, cfg.tol)[0]
    return AdditionTheorem(G=g, law=law._replace(actual=actual), spec=spec,
                           max_residual=max_res, samples=verify_samples, seed=cfg.seed)


# ----------------------------------------------------------------------
# reduction of a mixed relation F to an addition theorem
# ----------------------------------------------------------------------


def reduce_f_to_g(F: MPoly, x0, y0) -> MPoly:
    """From F(phi(u), psi(v), chi(u+v)) = 0 to a relation among chi alone.

    x0 and y0 are base values phi(a), psi(b) supplied by the caller; the
    specialization can degenerate for unlucky choices, in which case the
    caller should retry with perturbed values.  With z1 = chi(u+b),
    z2 = chi(a+v) and z3 = chi(u+v), fold_eliminate takes Y out of
    F(x0, Y, z2) and F(X, Y, z3), then X against F(X, y0, z1).
    """
    for name in ("X", "Y", "Z"):
        if name not in F.variables or F.degree_in(name) < 1:
            raise AddTheoError(f"F must be non-constant in {name}")
    ring = ("z3", "z2", "z1", "X", "Y")
    a_spec = F.substitute({"X": Q(x0)})
    b_spec = F.substitute({"Y": Q(y0)})
    if a_spec.is_zero() or a_spec.degree_in("Y") < 1:
        raise DegenerateEliminationError(
            "degenerate specialization: F(x0, Y, Z) carries no Y dependence"
        )
    if b_spec.is_zero() or b_spec.degree_in("X") < 1:
        raise DegenerateEliminationError(
            "degenerate specialization: F(X, y0, Z) carries no X dependence"
        )
    relations = [a_spec.rename({"Z": "z2"}).embed(ring), F.rename({"Z": "z3"}).embed(ring),
                 b_spec.rename({"Z": "z1"}).embed(ring)]
    final = fold_eliminate(relations, ("Y", "X"))
    return squarefree_part(final).restrict(("z3", "z2", "z1")).canonicalize()


# ----------------------------------------------------------------------
# derivative relation
# ----------------------------------------------------------------------


def phi_prime(spec: FuncSpec):
    """phi' = W/D^2 as the pair (W, D^2) over the uniformizer ring, by the
    chain rule with ' meaning d/du, t*d/dt (exp, the mu = 1 normalization),
    or p' = q, q' = 6p^2 - g2/2 (elliptic)."""
    ring = spec.uniformizer
    first = MPoly.var(ring, ring[0])  # u, t or p
    if spec.cls is FunctionClass.ELLIPTIC:
        chain = {"p": MPoly.var(ring, "q"), "q": 6 * first**2 - MPoly.const(ring, spec.g2 / 2)}
    else:
        chain = {ring[0]: first if spec.cls is FunctionClass.RATIONAL_OF_EXP else MPoly.const(ring, 1)}

    def d(f):
        return sum((f.derivative(v) * dv for v, dv in chain.items()), MPoly.zero(ring))

    num, den = spec.numerator, spec.denominator
    return d(num) * den - num * d(den), den * den


def derivative_relation(spec: FuncSpec, cfg: numeric.EvalConfig | None = None) -> MPoly:
    """The algebraic relation between phi and its derivative.

    The derivative is phi_prime's: for the exponential class it is taken
    along the normalized generator t d/dt (the relation for mu = 1; for
    general mu substitute d -> mu*d).  The factor is selected on exact points
    (phi, phi') mod p; cfg supplies only the seed.
    """
    if cfg is None:
        cfg = numeric.EvalConfig()
    ring = ("x", "d") + spec.uniformizer
    w, d2 = phi_prime(spec)
    relations = [
        MPoly.var(ring, "x") * spec.denominator.embed(ring) - spec.numerator.embed(ring),
        MPoly.var(ring, "d") * d2.embed(ring) - w.embed(ring),
    ]
    if spec.cls is FunctionClass.ELLIPTIC:
        relations.append(curve_polynomial(spec.g2, spec.g3).embed(ring))
    # elliptic: q first, then p
    best = fold_eliminate(relations, spec.uniformizer[::-1]).restrict(("x", "d"))

    def point(f, a):
        return f.phi(a), f.ratio(w, d2, a)

    # the image of u -> (phi, phi') is one irreducible curve
    pairs = numeric.exact_points(spec, cfg, 201, 1, point)
    return graph_factor(best, ("x", "d"), pairs, "derivative-relation factor")
