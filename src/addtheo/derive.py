"""Derivation of the canonical irreducible addition theorem.

The pipeline builds the class base law (the functional equation of the
uniformizer at u, v, u+v), adjoins the value relations x*D - N at the three
slots, and eliminates the uniformizer symbols by iterated resultants in a
fixed, documented order.  The raw eliminant usually carries extraneous
factors; numeric pruning on fresh graph samples selects the unique irreducible
factor that vanishes on the graph, exact division having already certified it
divides the eliminant.  A final degree cross-check against the m*nu^2/lambda0
law guards the selection.

Elimination order (part of the contract, chosen to keep intermediate degrees
low): rational u3, u2, u1; exponential t3, t2, t1; elliptic q3, q2, q1, p3,
p2, p1.  At each step the pivot is the involved relation of least degree in
the eliminated symbol (ties: fewer terms, then canonical order); every other
involved relation is first reduced modulo the pivot when that is degree-safe,
then replaced by its resultant with the pivot.  Both operations stay inside
the ideal of the relations, so every intermediate still vanishes on the graph.
"""

from __future__ import annotations

import cmath
import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AddTheoError,
    DegenerateEliminationError,
    DegenerateSpecializationError,
    DegreeLawError,
    PruningError,
    VerificationError,
)
from .funcspec import FuncSpec, FunctionClass, curve_polynomial, order
from .numeric import (
    EvalConfig,
    class_tolerance,
    guarded,
    phi_eval,
    relative_residual,
    sample,
    sample_graph,
    wp_eval,
    wp_prime_eval,
)
from .poly import MPoly, rem_monic
from .resultants import resultant, squarefree_part
from .factor import factor

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


@dataclass(frozen=True)
class BaseLaw:
    cls: FunctionClass
    variables: tuple
    relations: tuple


@dataclass(frozen=True)
class AdditionTheorem:
    G: MPoly
    deg_x: int
    deg_y: int
    deg_z: int
    spec: FuncSpec
    max_residual: float
    samples: int
    seed: int
    nu: int | None = None
    lambda0: int | None = None
    predicted_degree: int | None = None

    def __post_init__(self):
        if not (self.deg_x == self.deg_y == self.deg_z):
            raise DegreeLawError(
                f"addition theorem degrees differ: "
                f"({self.deg_x}, {self.deg_y}, {self.deg_z})"
            )

    def to_json_dict(self):
        return {
            "class": self.spec.cls.value,
            "spec": self.spec.serialize(),
            "G": self.G.to_text(),
            "degrees": [self.deg_x, self.deg_y, self.deg_z],
            "nu": self.nu,
            "lambda0": self.lambda0,
            "predicted_degree": self.predicted_degree,
            "max_residual": self.max_residual,
            "samples": self.samples,
            "seed": self.seed,
        }


def base_law(cls: FunctionClass, g2=None, g3=None) -> BaseLaw:
    """The functional relations tying the uniformizer at u, v, and u+v."""
    slots = _SLOT_VARS[cls]
    if cls is FunctionClass.RATIONAL_OF_U:
        u1, u2, u3 = (MPoly.var(slots, s) for s in slots)
        return BaseLaw(cls, slots, (u3 - u1 - u2,))
    if cls is FunctionClass.RATIONAL_OF_EXP:
        t1, t2, t3 = (MPoly.var(slots, s) for s in slots)
        return BaseLaw(cls, slots, (t3 - t1 * t2,))
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
    return BaseLaw(cls, slots, tuple(relations))


def _tidy(p: MPoly) -> MPoly:
    # content normalization only: square-free reduction of intermediates costs
    # more (multivariate gcd) than factoring the final eliminant ever does
    return p.canonicalize()


def fold_eliminate(relations, elim_order):
    """Eliminate the listed symbols by iterated resultants with pivoting.

    Returns the surviving relations (free of all eliminated symbols).  Every
    input must vanish identically on the parametrized graph, which makes each
    resultant, being in the ideal of its two arguments, vanish there too.
    When the pivot's leading coefficient in the symbol is constant, relations
    are first reduced modulo the pivot, which keeps degrees in the remaining
    symbols from compounding.
    """
    rels = list(relations)
    for sym in elim_order:
        involved = [r for r in rels if r.uses(sym)]
        rest = [r for r in rels if not r.uses(sym)]
        if not involved:
            continue
        if len(involved) == 1:
            # a lone constraint projects away without trace
            rels = rest
            continue
        pivot = min(
            involved,
            key=lambda r: (r.degree_in(sym), len(r.terms), r.sort_key()),
        )
        piv_lc = pivot.coeffs_in(sym)[-1]
        monic_pivot = None
        if piv_lc.is_constant():
            monic_pivot = pivot * (1 / piv_lc.constant_value())
        new = []
        for r in involved:
            if r is pivot:
                continue
            if monic_pivot is not None:
                r = rem_monic(r, monic_pivot, sym)
                if r.is_zero():
                    continue  # a multiple of the pivot adds no constraint
                res = r if not r.uses(sym) else resultant(r, pivot, sym)
            else:
                res = resultant(r, pivot, sym)
            if res.is_zero():
                raise DegenerateEliminationError(
                    f"degenerate elimination: common factor eliminating {sym} "
                    f"between [{r.to_text()}] and [{pivot.to_text()}]"
                )
            res = _tidy(res)
            if res.is_constant():
                raise DegenerateEliminationError(
                    f"elimination of {sym} produced a nonzero constant"
                )
            new.append(res)
        # drop duplicates, keep deterministic order
        merged = rest + new
        seen = set()
        rels = []
        for r in merged:
            key = r.sort_key()
            if key not in seen:
                seen.add(key)
                rels.append(r)
    return rels


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
    law = base_law(spec.cls, spec.g2, spec.g3)
    ring = ("x", "y", "z") + _SLOT_VARS[spec.cls]
    relations = _value_relations(spec, ring)
    relations.extend(r.embed(ring) for r in law.relations)
    final = fold_eliminate(relations, _ELIM_ORDER[spec.cls])
    final = [r for r in final if not r.is_constant()]
    if not final:
        raise DegenerateEliminationError("elimination consumed every relation")
    best = min(final, key=lambda r: r.sort_key())
    return best.restrict(("x", "y", "z")).canonicalize()


def graph_factor(eliminant: MPoly, draw, tol: float, what: str) -> MPoly:
    """The unique irreducible factor of eliminant vanishing on sampled points.

    draw(n, k) returns n evaluation points from the caller's k-th sampling
    stream.  Factors whose relative residual stays below tol on 120 points
    survive; a tie is broken at tol*1e-2 on 240 points from a second stream.
    """

    def vanishing(candidates, points, bound):
        return [f for f in candidates if all(relative_residual(f, pt) < bound for pt in points)]

    survivors = vanishing([f for f, _ in factor(eliminant)], draw(120, 1), tol)
    if len(survivors) > 1:
        survivors = vanishing(survivors, draw(240, 2), tol * 1e-2)
        if len(survivors) != 1:
            texts = "; ".join(s.to_text() for s in survivors)
            raise PruningError(f"ambiguous pruning of the {what}: surviving factors [{texts}]")
    if not survivors:
        raise PruningError(f"no {what} found (tolerance or sampling window too tight)")
    return survivors[0]


def certify(g: MPoly, points, tol: float, what: str) -> float:
    """The largest relative residual of g on fresh points; it must stay below tol."""
    max_res = max(relative_residual(g, pt) for pt in points)
    if max_res >= tol:
        raise VerificationError(
            f"{what} residual {max_res:.3e} exceeds tolerance {tol:.1e}"
        )
    return max_res


def prune(eliminant: MPoly, spec: FuncSpec, cfg: EvalConfig, verify_samples: int = 200) -> AdditionTheorem:
    """Select the unique irreducible factor vanishing on the graph."""
    if eliminant.is_zero():
        raise PruningError("eliminant is zero")

    def draw(n, k):
        return [{"x": s.x, "y": s.y, "z": s.z} for s in sample_graph(spec, n, cfg, salt=100 + k)]

    g = graph_factor(eliminant, draw, cfg.tol, "graph component")
    xy = (MPoly.var(g.variables, "x") - MPoly.var(g.variables, "y")).canonicalize()
    if g == xy:
        raise PruningError("graph factor collapsed to x - y")
    max_res = certify(g, draw(verify_samples, 3), cfg.tol, "derived theorem")
    return AdditionTheorem(
        G=g,
        deg_x=g.degree_in("x"),
        deg_y=g.degree_in("y"),
        deg_z=g.degree_in("z"),
        spec=spec,
        max_residual=max_res,
        samples=verify_samples,
        seed=cfg.seed,
    )


def derive_addition_theorem(spec: FuncSpec, cfg: EvalConfig | None = None, verify_samples: int = 200) -> AdditionTheorem:
    """Derive, prune, verify, and degree-check the addition theorem."""
    if cfg is None:
        cfg = EvalConfig(tol=class_tolerance(spec))
    eliminant = eliminate(spec)
    theorem = prune(eliminant, spec, cfg, verify_samples)
    from .laws import multiplier_group, predicted_degree

    nu = order(spec).nu
    lambda0 = multiplier_group(spec).lambda0
    predicted = predicted_degree(1, nu, lambda0)
    if theorem.deg_z != predicted:
        raise DegreeLawError(
            f"derived degree {theorem.deg_z} does not match the degree law "
            f"m*nu^2/lambda0 = {predicted} (nu={nu}, lambda0={lambda0})"
        )
    return dataclasses.replace(
        theorem, nu=nu, lambda0=lambda0, predicted_degree=predicted
    )


# ----------------------------------------------------------------------
# reduction of a mixed relation F to an addition theorem
# ----------------------------------------------------------------------


def reduce_f_to_g(F: MPoly, x0, y0) -> MPoly:
    """From F(phi(u), psi(v), chi(u+v)) = 0 to a relation among chi alone.

    x0 and y0 are base values phi(a), psi(b) supplied by the caller; the
    specialization can degenerate for unlucky choices, in which case the
    caller should retry with perturbed values.
    """
    for name in ("X", "Y", "Z"):
        if name not in F.variables or F.degree_in(name) < 1:
            raise AddTheoError(f"F must be non-constant in {name}")
    x0 = Q(x0)
    y0 = Q(y0)
    ring = ("z3", "z2", "z1", "X", "Y")
    a_spec = F.substitute({"X": x0})
    b_spec = F.substitute({"Y": y0})
    if a_spec.is_zero() or a_spec.degree_in("Y") < 1:
        raise DegenerateSpecializationError(
            "degenerate specialization: F(x0, Y, Z) carries no Y dependence"
        )
    if b_spec.is_zero() or b_spec.degree_in("X") < 1:
        raise DegenerateSpecializationError(
            "degenerate specialization: F(X, y0, Z) carries no X dependence"
        )
    a_emb = a_spec.rename({"Z": "z2"}).embed(ring)
    f_emb = F.rename({"Z": "z3"}).embed(ring)
    b_emb = b_spec.rename({"Z": "z1"}).embed(ring)
    inner = resultant(a_emb, f_emb, "Y")
    if inner.is_zero():
        raise DegenerateSpecializationError("inner resultant vanished identically")
    if inner.degree_in("X") < 1:
        raise DegenerateSpecializationError(
            "degenerate specialization: inner eliminant lost its X dependence"
        )
    outer = resultant(b_emb, inner, "X")
    if outer.is_zero() or outer.is_constant():
        raise DegenerateSpecializationError("final eliminant degenerated")
    return squarefree_part(outer).restrict(("z3", "z2", "z1")).canonicalize()


# ----------------------------------------------------------------------
# derivative relation
# ----------------------------------------------------------------------


def derivative_relation(spec: FuncSpec, cfg: EvalConfig | None = None) -> MPoly:
    """The algebraic relation between phi and its derivative.

    For the exponential class the derivative is taken along the normalized
    generator t d/dt (the relation for mu = 1; for general mu substitute
    d -> mu*d).  For the elliptic class it uses p' = q, q' = 6p^2 - g2/2.
    """
    if cfg is None:
        cfg = EvalConfig(tol=class_tolerance(spec))
    num, den = spec.numerator, spec.denominator
    if spec.cls is FunctionClass.RATIONAL_OF_U:
        ring = ("x", "d", "u")
        elim = ("u",)
        n = num.embed(ring)
        dpoly = den.embed(ring)
        w_num = n.derivative("u") * dpoly - n * dpoly.derivative("u")
        extra = []
    elif spec.cls is FunctionClass.RATIONAL_OF_EXP:
        ring = ("x", "d", "t")
        elim = ("t",)
        n = num.embed(ring)
        dpoly = den.embed(ring)
        t = MPoly.var(ring, "t")
        w_num = t * (n.derivative("t") * dpoly - n * dpoly.derivative("t"))
        extra = []
    else:
        ring = ("x", "d", "p", "q")
        elim = ("q", "p")
        n = num.embed(ring)
        dpoly = den.embed(ring)
        qv = MPoly.var(ring, "q")
        qprime = 6 * MPoly.var(ring, "p") ** 2 - MPoly.const(ring, spec.g2 / 2)
        dn = n.derivative("p") * qv + n.derivative("q") * qprime
        dd = dpoly.derivative("p") * qv + dpoly.derivative("q") * qprime
        w_num = dn * dpoly - n * dd
        extra = [curve_polynomial(spec.g2, spec.g3).embed(ring)]
    w_den = dpoly * dpoly
    relations = [
        MPoly.var(ring, "x") * dpoly - n,
        MPoly.var(ring, "d") * w_den - w_num,
    ] + extra
    final = fold_eliminate(relations, elim)
    final = [r for r in final if not r.is_constant()]
    if not final:
        raise DegenerateEliminationError("derivative elimination consumed all relations")
    best = min(final, key=lambda r: r.sort_key()).restrict(("x", "d"))

    def draw(n, k):
        def point(u):
            xval = phi_eval(spec, u, cfg)
            dval = _phi_derivative_exact(spec, u, cfg)
            return {"x": xval, "d": dval} if guarded(cfg, xval, dval) else None

        return sample(n, cfg, 200 + k, 1, point)

    # the image of u -> (phi, phi') is one irreducible curve
    return graph_factor(best, draw, cfg.tol, "derivative-relation factor")


def _phi_derivative_exact(spec: FuncSpec, u: complex, cfg: EvalConfig) -> complex:
    """Evaluate the class-wise derivative formula (exp: normalized, mu = 1)."""
    num, den = spec.numerator, spec.denominator
    if spec.cls is FunctionClass.RATIONAL_OF_U:
        point = {"u": u}
        dn = num.derivative("u").evaluate(point)
        dd = den.derivative("u").evaluate(point)
    elif spec.cls is FunctionClass.RATIONAL_OF_EXP:
        tval = cmath.exp(spec.mu_value * u)
        point = {"t": tval}
        dn = tval * num.derivative("t").evaluate(point)
        dd = tval * den.derivative("t").evaluate(point)
    else:
        pval = wp_eval(spec.g2, spec.g3, u, cfg)
        qval = wp_prime_eval(spec.g2, spec.g3, u, cfg)
        point = {"p": pval, "q": qval}
        qprime = 6 * pval * pval - complex(spec.g2) / 2
        dn = num.derivative("p").evaluate(point) * qval + num.derivative("q").evaluate(point) * qprime
        dd = den.derivative("p").evaluate(point) * qval + den.derivative("q").evaluate(point) * qprime
    nval = num.evaluate(point)
    dval = den.evaluate(point)
    if abs(dval) < 1e-12:
        raise AddTheoError("derivative evaluated too close to a pole")
    return (dn * dval - nval * dd) / (dval * dval)
