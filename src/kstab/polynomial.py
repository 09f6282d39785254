"""Exact sparse multivariate polynomials over the rationals.

These are the universal value carriers for every closed-form computation in
the package: weight polynomials, their homogeneous parts, pulled-back
integrands. Coefficients are ``fractions.Fraction`` throughout; floats are
rejected at construction so no rounding can sneak into an exact pipeline.
The exact kernels work in Python ints over one common denominator:
``evaluate`` clears the point's denominators and builds one Fraction per
value, and ``substitute_affine`` expands the pullback in integers. The
module imports no numpy: ``evaluate_float``, the one float method, builds
its evaluator with ``kstab.graded`` on its first call.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

Exponent = tuple[int, ...]


def as_fraction(x) -> Fraction:
    """Convert ints, Fractions and 'p/q' strings; refuse floats."""
    if isinstance(x, float):
        raise TypeError("refusing to convert float %r to an exact rational" % (x,))
    return Fraction(x)


def format_fraction(x: Fraction) -> str:
    """Render a rational as 'p' or 'p/q' (lossless, parseable)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


class MultivariatePolynomial:
    """Sparse polynomial in a fixed number of variables.

    Terms map exponent tuples to nonzero rational coefficients. Zero
    coefficients are never stored, so equality is structural. Instances are
    immutable and hashable.
    """

    __slots__ = ("nvars", "_terms", "_canonical", "_floats", "_ints")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        object.__setattr__(self, "nvars", int(nvars))
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coef in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != nvars or any(e < 0 for e in exp):
                    raise ValueError("bad exponent %r for %d variables" % (exp, nvars))
                c = as_fraction(coef)
                if c != 0:
                    c = clean.get(exp, Fraction(0)) + c
                    if c:
                        clean[exp] = c
                    else:
                        clean.pop(exp, None)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_canonical", None)
        object.__setattr__(self, "_floats", None)
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MultivariatePolynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, c) -> "MultivariatePolynomial":
        return cls(nvars, {(0,) * nvars: as_fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultivariatePolynomial":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exp: Fraction(1)})

    @classmethod
    def affine(cls, coeffs: Sequence, const=0) -> "MultivariatePolynomial":
        """The polynomial sum_j coeffs[j] * x_j + const."""
        n = len(coeffs)
        terms: dict[Exponent, Fraction] = {}
        for j, c in enumerate(coeffs):
            c = as_fraction(c)
            if c:
                terms[tuple(1 if i == j else 0 for i in range(n))] = c
        c0 = as_fraction(const)
        if c0:
            terms[(0,) * n] = c0
        return cls(n, terms)

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Canonical term order: graded, then lexicographic (cached)."""
        if self._canonical is None:
            ordered = sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]))
            object.__setattr__(self, "_canonical", tuple(ordered))
        return list(self._canonical)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._terms), default=-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultivariatePolynomial)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(self.sorted_terms())))

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exp, coef in self.sorted_terms():
            mono = "*".join(
                "x%d" % i if e == 1 else "x%d^%d" % (i, e)
                for i, e in enumerate(exp)
                if e
            )
            c = format_fraction(coef)
            parts.append(c if not mono else ("%s*%s" % (c, mono) if coef != 1 else mono))
        return " + ".join(parts)

    # -- arithmetic ---------------------------------------------------------

    def _check_same(self, other: "MultivariatePolynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultivariatePolynomial.constant(self.nvars, other)
        self._check_same(other)
        terms = dict(self._terms)
        for exp, coef in other._terms.items():
            c = terms.get(exp, Fraction(0)) + coef
            if c:
                terms[exp] = c
            else:
                terms.pop(exp, None)
        return MultivariatePolynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultivariatePolynomial(
            self.nvars, {e: -c for e, c in self._terms.items()}
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultivariatePolynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            return MultivariatePolynomial(
                self.nvars, {e: c * v for e, v in self._terms.items()}
            )
        self._check_same(other)
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = terms.get(exp, Fraction(0)) + c1 * c2
                if c:
                    terms[exp] = c
                else:
                    terms.pop(exp, None)
        return MultivariatePolynomial(self.nvars, terms)

    __rmul__ = __mul__

    # -- calculus and structure --------------------------------------------

    def partial(self, i: int) -> "MultivariatePolynomial":
        """Exact partial derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise ValueError("variable index out of range")
        terms: dict[Exponent, Fraction] = {}
        for exp, coef in self._terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            terms[tuple(new)] = coef * exp[i]
        return MultivariatePolynomial(self.nvars, terms)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point, in integer arithmetic.

        Coordinates are ints, Fractions or 'p/q' strings; a float raises
        TypeError. With D the lcm of the point's denominators, x = lam / D for
        an integer vector lam, and the value is
        sum(c_e lam^e D^(deg - |e|)) / (den D^deg) over the integer
        coefficients c_e / den of this polynomial (a table built on the first
        call, once per polynomial). Only the result is a Fraction.
        """
        pt = [x if isinstance(x, (int, Fraction)) else as_fraction(x) for x in point]
        if len(pt) != self.nvars:
            raise ValueError("point dimension mismatch")
        if self._ints is None:
            object.__setattr__(self, "_ints", _int_table(self))
        deg, den, table = self._ints
        D = math.lcm(*(x.denominator for x in pt))
        lam = [x.numerator * (D // x.denominator) for x in pt]
        scale = [D**j for j in range(deg + 1)]
        total = 0
        for c, gap, mono in table:
            v = c * scale[gap]
            for i, e in mono:
                v *= lam[i] ** e
            total += v
        return Fraction(total, den * scale[deg])

    def evaluate_float(self, point) -> float | np.ndarray:
        """Float value at one point, or at every row of an (m, n) array.

        The first call loads numpy and builds the float evaluator
        (graded.float_evaluator), once per polynomial.
        """
        if self._floats is None:
            from .graded import float_evaluator

            object.__setattr__(self, "_floats", float_evaluator(self))
        return self._floats(point)

    def substitute_affine(self, matrix: Sequence[Sequence], shift: Sequence) -> "MultivariatePolynomial":
        """Substitute x_i = shift[i] + sum_j matrix[i][j] * y_j, exactly.

        ``matrix`` has one row per old variable; the result lives in
        ``len(matrix[0])`` variables (0 columns give a constant).
        """
        if len(matrix) != self.nvars or len(shift) != self.nvars:
            raise ValueError("substitution shape mismatch")
        m = len(matrix[0]) if self.nvars else 0
        for row in matrix:
            if len(row) != m:
                raise ValueError("ragged substitution matrix")
        coeffs, base, den = _pullback(self, matrix, shift)
        return MultivariatePolynomial(
            m, {_unpack(k, base, m): Fraction(c, den) for k, c in coeffs.items()}
        )


# -- integer kernels ----------------------------------------------------------

def _int_table(h: MultivariatePolynomial) -> tuple[int, int, list[tuple[int, int, tuple]]]:
    """h as (deg, den, [(c, deg - |e|, ((i, e_i) for e_i > 0)), ...]) over ints.

    den is the lcm of the coefficient denominators, so h = sum(c x^e) / den;
    the zero polynomial gives (0, 1, []).
    """
    deg = max(h.degree(), 0)
    den = math.lcm(*(c.denominator for c in h._terms.values()))
    table = [
        (c.numerator * (den // c.denominator), deg - sum(e),
         tuple((i, a) for i, a in enumerate(e) if a))
        for e, c in h._terms.items()
    ]
    return deg, den, table


def _times_line(p: dict[int, int], line: list[tuple[int, int]]) -> dict[int, int]:
    out: dict[int, int] = {}
    get = out.get
    for k2, c2 in line:
        for k1, c1 in p.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def _unpack(key: int, base: int, m: int) -> Exponent:
    return tuple(key // base**j % base for j in range(m))


def _pullback(h: MultivariatePolynomial, matrix, shift) -> tuple[dict[int, int], int, int]:
    """h(shift + matrix y) = sum(c * y^e) / den over ints; returns (coeffs, base, den).

    The key of y^e in ``coeffs`` is sum(e_j base^j) with base = deg h + 1, so no
    exponent carries and multiplying monomials adds keys. One denominator L makes every
    line integral; a term of degree |a| is scaled by L^(deg h - |a|), so all share den.
    Terms are grouped by leading exponent (nested Horner), so each group's sum is
    formed once; the last variable multiplies into cached powers of its line.
    """
    if not h._terms:
        return {}, 1, 1
    deg = max(map(sum, h._terms))
    base = deg + 1
    matrix = [[as_fraction(a) for a in row] for row in matrix]
    shift = [as_fraction(s) for s in shift]
    L = math.lcm(*(a.denominator for row in matrix for a in row), *(s.denominator for s in shift))
    lines = []
    for row, s in zip(matrix, shift):
        line = [(base**j, a.numerator * (L // a.denominator)) for j, a in enumerate(row) if a]
        lines.append(line + [(0, s.numerator * (L // s.denominator))] if s else line)
    cden = math.lcm(*(c.denominator for c in h._terms.values()))
    terms = [(e, c.numerator * (cden // c.denominator) * L ** (deg - sum(e)))
             for e, c in h._terms.items()]
    if not lines:
        return {0: terms[0][1]}, base, cden * L**deg
    *upper, last = lines
    powers = [{0: 1}]

    def expand(group: list[tuple[Exponent, int]], i: int) -> dict[int, int]:
        out: dict[int, int] = {}
        get = out.get
        if i == len(upper):
            for exp, c in group:
                while len(powers) <= exp[i]:
                    powers.append(_times_line(powers[-1], last))
                for k, v in powers[exp[i]].items():
                    out[k] = get(k, 0) + c * v
            return out
        by_exp: dict[int, list[tuple[Exponent, int]]] = {}
        for term in group:
            by_exp.setdefault(term[0][i], []).append(term)
        for e in range(max(by_exp), -1, -1):
            out = _times_line(out, upper[i])
            get = out.get
            if e in by_exp:
                for k, c in expand(by_exp[e], i + 1).items():
                    out[k] = get(k, 0) + c
        return out

    return expand(terms, 0), base, cden * L**deg
