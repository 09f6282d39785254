"""Exact energies F_A(u) on boxes, with no quadrature.

On a box P = prod_i [a_i, b_i] every facet is x_i = a_i or x_i = b_i, with
primitive normal +-e_i: l_F is x_i - a_i or b_i - x_i, and the boundary
measure is Lebesgue on each facet (a point of a 1D box has measure 1). The
potential u = u_sigma + sum_i c_i x_i^2 then splits by axis,

    u(x) = sum_i U_i(x_i) + c_i x_i^2,  U_i(t) = 1/2 ((t - a_i) log(t - a_i) + (b_i - t) log(b_i - t)),

its Hessian is diagonal, and with L_i = b_i - a_i

    log det Hess u = sum_i log(L_i / (2 (x_i - a_i)(b_i - x_i)) + 2 c_i).

The weight p = prod_a <M^a, x>, q_{N-1} = sum_i d_i p and A p for the
presets (zero: 0; paper and csc: s (a p - 2 q_{N-1}), s = 1/2 and 2) are
polynomials, expanded here exactly. So each term of

    F_A(u) = -int_P log det(u_jk) p dx + 2 int_bd u p dsigma - int_P A u p dx

is a sum over monomials of products of 1D integrals, at most one of which
has a logarithm. With every c_i = 0 those are Fractions and Fraction
multiples of log L_i (LogSum). For c_i > 0,

    log(L + 4 c (t - a)(b - t)) = log(4 c) + log(t - r_1) + log(r_2 - t),

with the real roots r_1 < a < b < r_2 of the quadratic, and those integrals
are taken in closed form with mpmath at DPS digits. Nothing here calls
kstab.quadrature or kstab.graded.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

import mpmath

DPS = 40


class LogSum:
    """rational + sum_x coef_x log x + extra: Fractions, and an mpf extra that
    stays 0 while the value is exact."""

    def __init__(self, rational=Fraction(0), logs=None, extra=0):
        self.rational, self.logs, self.extra = Fraction(rational), dict(logs or {}), extra

    def __add__(self, other: LogSum) -> LogSum:
        logs = dict(self.logs)
        for x, c in other.logs.items():
            logs[x] = logs.get(x, 0) + c
        return LogSum(self.rational + other.rational, logs, self.extra + other.extra)

    def scale(self, f: Fraction) -> LogSum:
        return LogSum(self.rational * f, {x: c * f for x, c in self.logs.items()}, self.extra * f)

    def value(self):
        with mpmath.workdps(DPS):
            return _mpf(self.rational) + self.extra + sum(_mpf(c) * mpmath.log(_mpf(x)) for x, c in self.logs.items())


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


# -- exact polynomials: {exponent tuple: Fraction} ------------------------------

def _mul(f: dict, g: dict) -> dict:
    out = {}
    for e, c in f.items():
        for d, k in g.items():
            s = tuple(x + y for x, y in zip(e, d))
            out[s] = out.get(s, 0) + c * k
    return {e: c for e, c in out.items() if c}


def _add(f: dict, g: dict, scale=1) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def _partial(f: dict, i: int) -> dict:
    out = {}
    for e, c in f.items():
        if e[i]:
            d = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[d] = out.get(d, 0) + c * e[i]
    return out


def _restrict(f: dict, i: int, t: Fraction) -> dict:
    """f with x_i = t; the exponent of x_i becomes 0."""
    out = {}
    for e, c in f.items():
        d = e[:i] + (0,) + e[i + 1:]
        out[d] = out.get(d, 0) + c * t ** e[i]
    return {e: c for e, c in out.items() if c}


def weight(positive_roots, n: int) -> dict:
    """p = prod_a <M^a, x>, expanded."""
    p = {(0,) * n: Fraction(1)}
    for m in positive_roots:
        p = _mul(p, {tuple(int(j == i) for j in range(n)): Fraction(m[i]) for i in range(n) if m[i]})
    return p


# -- 1D integrals on [a, b] ----------------------------------------------------

def _shifted(coefs, x0, sign):
    """Coefficients in s of sum_k coefs[k] (x0 + sign s)^k."""
    out = [0] * len(coefs)
    for k, c in enumerate(coefs):
        for m in range(k + 1):
            out[m] += c * comb(k, m) * x0 ** (k - m) * sign**m
    return out


def _log_integral(coefs, a, b, r, sign) -> LogSum:
    """int_a^b poly(t) log(sign (t - r)) dt, with sign (t - r) >= 0 on [a, b].

    With s = sign (t - r) it is int s^m log s over [sign (a - r), sign (b - r)]
    (ends ordered), whose antiderivative is s^(m+1)/(m+1) (log s - 1/(m+1));
    s log s -> 0 at s = 0. Exact for a rational r, an mpf at the working
    precision otherwise."""
    if not isinstance(r, Fraction):
        a, b = _mpf(a), _mpf(b)
    lo, hi = sorted((sign * (a - r), sign * (b - r)))
    d = _shifted(coefs, r, sign)
    out = LogSum()
    for end, side in ((hi, 1), (lo, -1)):
        for m, c in enumerate(d):
            w = side * c * end ** (m + 1) / (m + 1)
            if isinstance(r, Fraction):
                out = out + (LogSum(-w / (m + 1), {end: w}) if end else LogSum())
            else:
                out.extra += w * (mpmath.log(end) - mpmath.mpf(1) / (m + 1))
    return out


def _monomial(k: int) -> list:
    return [0] * k + [Fraction(1)]


class Axis:
    """The 1D integrals of one side [a, b] of the box with u's part U(t) + c t^2."""

    def __init__(self, a, b, c=Fraction(0)):
        self.a, self.b, self.c, self.L = Fraction(a), Fraction(b), Fraction(c), Fraction(b) - Fraction(a)
        if self.c < 0:
            raise ValueError("c_i >= 0 only")
        # each moment is asked for once per monomial of p; the memo dies with the axis
        self.moment, self.u_moment, self.log_det_moment = (
            cache(self.moment), cache(self.u_moment), cache(self.log_det_moment)
        )

    def moment(self, k: int) -> Fraction:
        return (self.b ** (k + 1) - self.a ** (k + 1)) / (k + 1)

    def u_at_end(self, t: Fraction) -> LogSum:
        """U(a) = U(b) = L log L / 2, plus c t^2."""
        return LogSum(self.c * t * t, {self.L: self.L / 2})

    def u_moment(self, k: int) -> LogSum:
        """int t^k (U(t) + c t^2) dt."""
        a, b = self.a, self.b
        up = [0] * k + [-a, Fraction(1)]  # t^k (t - a)
        down = [0] * k + [b, Fraction(-1)]  # t^k (b - t)
        log_part = _log_integral(up, a, b, a, 1) + _log_integral(down, a, b, b, -1)
        return log_part.scale(Fraction(1, 2)) + LogSum(self.c * self.moment(k + 2))

    def log_det_moment(self, k: int) -> LogSum:
        """int t^k log(L / (2 (t - a)(b - t)) + 2 c) dt."""
        a, b, L, c = self.a, self.b, self.L, self.c
        t_k = _monomial(k)
        singular = _log_integral(t_k, a, b, a, 1) + _log_integral(t_k, a, b, b, -1)
        if c == 0:
            return LogSum(0, {L / 2: self.moment(k)}) + singular.scale(Fraction(-1))
        # log(L + 4c(t - a)(b - t)) - log 2 - log(t - a) - log(b - t)
        half = mpmath.sqrt(_mpf(L * L / 4 + L / (4 * c)))
        r1, r2 = _mpf((a + b) / 2) - half, _mpf((a + b) / 2) + half
        smooth = _log_integral(t_k, a, b, r1, 1) + _log_integral(t_k, a, b, r2, -1)
        m = self.moment(k)  # 4c may equal 2: two LogSums, not one dict
        return smooth + LogSum(0, {4 * c: m}) + LogSum(0, {Fraction(2): -m}) + singular.scale(Fraction(-1))


def _box_integral(f: dict, axes, free, axis=None, moment=None) -> LogSum:
    """int of f over the free axes of the box, times the integrand of
    moment (an Axis method) on one of them, axis, when given."""
    out = LogSum()
    for e, coef in f.items():
        rest = coef
        for i in free:
            if i != axis:
                rest *= axes[i].moment(e[i])
        out = out + (LogSum(rest) if axis is None else moment(e[axis]).scale(rest))
    return out


def _u_integral(f: dict, axes, free) -> LogSum:
    """int of u f over the free axes; the fixed axes hold an end, and f is restricted there."""
    return sum((_box_integral(f, axes, free, i, axes[i].u_moment) for i in free), LogSum())


def box_energy(positive_roots, box, c=None, preset: str = "zero") -> dict[str, LogSum]:
    """The terms log_det, boundary and linear of F_A(u) on box = [(a_i, b_i)],
    for u = u_sigma + sum_i c_i x_i^2 (c_i >= 0) and A a preset name."""
    with mpmath.workdps(DPS):
        return _box_energy(positive_roots, box, c, preset)


def _box_energy(positive_roots, box, c, preset):
    n = len(box)
    axes = [Axis(a, b, ci) for (a, b), ci in zip(box, c or [0] * n)]
    everything = list(range(n))
    p = weight(positive_roots, n)
    vol = _box_integral(p, axes, everything).rational
    faces = [(i, t, [j for j in everything if j != i]) for i in everything for t in (axes[i].a, axes[i].b)]
    # int_bd u p dsigma: on x_i = t, u = U_i(t) + c_i t^2 + the free axes' parts
    boundary = LogSum()
    boundary_p = Fraction(0)
    for i, t, free in faces:
        on_face = _restrict(p, i, t)
        mass = _box_integral(on_face, axes, free)
        boundary_p += mass.rational
        boundary = boundary + _u_integral(on_face, axes, free) + axes[i].u_at_end(t).scale(mass.rational)
    log_det = sum((_box_integral(p, axes, everything, i, axes[i].log_det_moment) for i in everything), LogSum())
    terms = {"log_det": log_det.scale(Fraction(-1)), "boundary": boundary.scale(Fraction(2))}
    if preset == "zero":
        terms["linear"] = LogSum()
        return terms
    q = {}
    for i in everything:
        q = _add(q, _partial(p, i))
    a = (2 * _box_integral(q, axes, everything).rational + boundary_p) / vol
    s = {"paper": Fraction(1, 2), "csc": Fraction(2)}[preset]
    ap = _add({e: s * a * k for e, k in p.items()}, q, -2 * s)  # A p = s (a p - 2 q)
    terms["linear"] = _u_integral(ap, axes, everything).scale(Fraction(-1))
    return terms
