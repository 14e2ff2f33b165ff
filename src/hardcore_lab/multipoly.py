"""Sparse multivariate polynomials over the rationals with named variables."""

from __future__ import annotations

from fractions import Fraction

from .verdict import format_rational


class MultiPoly:
    """Polynomial in a declared, ordered tuple of variables.

    Terms map exponent vectors to nonzero rational coefficients.  Arithmetic
    requires both operands to declare the same variable tuple.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: dict | None = None):
        vars = tuple(vars)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            exps = tuple(exps)
            if len(exps) != len(vars):
                raise ValueError("exponent vector length does not match variables")
            clean[exps] = coeff
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def constant(cls, vars, c) -> "MultiPoly":
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): Fraction(c)})

    @classmethod
    def variable(cls, vars, name: str) -> "MultiPoly":
        vars = tuple(vars)
        if name not in vars:
            raise ValueError(f"undeclared variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {exps: Fraction(1)})

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant: {self}")
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.vars, other)
        return NotImplemented

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.vars, out)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- evaluation and calculus ---------------------------------------------

    def evaluate(self, assignments: dict) -> Fraction:
        """The exact value at the assigned point.  Every variable that some
        term uses must be assigned; one that no term uses may stay unset.  An
        undeclared name, or an unset variable that a term uses, raises
        ValueError."""
        for name in assignments:
            if name not in self.vars:
                raise ValueError(f"undeclared variable {name!r}")
        values = [Fraction(assignments[v]) if v in assignments else None for v in self.vars]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            for name, value, e in zip(self.vars, values, exps):
                if e:
                    if value is None:
                        raise ValueError(f"variable {name!r} is unset")
                    coeff *= value ** e
            total += coeff
        return total

    def partial_derivative(self, name: str) -> "MultiPoly":
        if name not in self.vars:
            raise ValueError(f"undeclared variable {name!r}")
        i = self.vars.index(name)
        out = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            e = list(exps)
            e[i] -= 1
            out[tuple(e)] = coeff * exps[i]
        return MultiPoly(self.vars, out)

    # -- formatting --------------------------------------------------------------

    def __str__(self):
        """Canonical rendering in graded lexicographic monomial order."""
        if not self.terms:
            return "0"
        def order(item):
            exps, _ = item
            return (-sum(exps), tuple(-e for e in exps))
        chunks = []
        for exps, coeff in sorted(self.terms.items(), key=order):
            factors = []
            if coeff != 1 or not any(exps):
                factors.append(format_rational(coeff))
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            chunks.append("*".join(factors))
        return " + ".join(chunks)
