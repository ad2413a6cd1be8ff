"""Inner functions on the unit disk and their divisibility lattice.

An inner function is represented exactly by three ingredients: a unimodular
constant, a finite Blaschke part (zeros with multiplicities), and a purely
atomic singular part (boundary angles with positive weights).  Divisibility,
gcd and lcm are computed componentwise on multiplicities and weights; the
unimodular constant never participates in the order.

Bounded analytic symbols for the functional calculus live here too:
polynomials, rational functions with poles outside the closed disk, inner
functions, and finite products of those.

The lattice runs on the standard library; numpy is imported by the methods
that evaluate a function, so divisibility work never loads it.  The value
types of the package are slotted classes on :class:`_Frozen`, whose
definition generates no code and loads neither ``inspect`` nor ``ast``.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterable, Union

from .errors import (
    ConditioningError,
    EvaluationDomainError,
    InvalidZeroError,
    NotADivisorError,
)

if TYPE_CHECKING:
    import numpy as np

# Atoms closer than this (zero positions, boundary angles) are identified.
ATOM_MERGE_TOL = 1e-10
# Singular weights differing by less than this are considered equal.
WEIGHT_TOL = 1e-12
# Unimodular constants must satisfy ||gamma| - 1| <= this.
UNIMODULAR_TOL = 1e-12
# Evaluation points may overshoot the closed disk by this much.
BOUNDARY_SLACK = 1e-12
# A polynomial or rational numerator with no coefficient above this in
# modulus is the zero function.
NEGLIGIBLE_TOL = 1e-14
# Largest divisor count enumerated: the most a symbol of the model degree
# cap, 16, can have (16 distinct zeros).
MAX_DIVISORS = 2**16

TWO_PI = 2.0 * math.pi


class _Frozen:
    """Base of the immutable value types: the fields are the subclass's
    ``__slots__``, set once by its ``__init__`` through ``_set``.  Equality
    (same type, fields in order), hash and repr go by the fields; a type
    equal only to itself restores ``object.__eq__`` and ``object.__hash__``."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError("field %r is read-only" % name)

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join("%s=%r" % item for item in zip(self.__slots__, self._fields()))
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __reduce__(self):
        # copies and pickles rebuild through __init__, which keeps canonical fields
        return type(self), self._fields()


def _clean_float(x: float) -> float:
    # canonicalize -0.0 so sorting and serialization are reproducible
    x = float(x)
    return 0.0 if x == 0.0 else x


def _clean_complex(z: complex) -> complex:
    z = complex(z)
    return complex(_clean_float(z.real), _clean_float(z.imag))


def _value(out):
    return complex(out) if out.ndim == 0 else out


def eval_blaschke_factor(alpha: complex, z) -> np.ndarray | complex:
    """Evaluate the normalized degree-one Blaschke factor with zero alpha.

    The factor is (|alpha|/alpha) (alpha - z) / (1 - conj(alpha) z), with
    the convention that a zero at the origin gives the identity map z.
    """
    import numpy as np

    alpha = complex(alpha)
    if not math.isfinite(alpha.real) or not math.isfinite(alpha.imag):
        raise InvalidZeroError("Blaschke zero must be finite, got %r" % (alpha,))
    if abs(alpha) >= 1.0:
        raise InvalidZeroError(
            "Blaschke zero must lie strictly inside the unit disk, got |alpha|=%g"
            % abs(alpha)
        )
    z = np.asarray(z, dtype=complex)
    if alpha == 0:
        out = z
    else:
        out = (abs(alpha) / alpha) * (alpha - z) / (1.0 - np.conj(alpha) * z)
    return _value(out)


# The atom rule.  Zeros and boundary angles are the two kinds of atom; each
# kind has a period (inf for zeros, 2*pi for angles), and the distance of
# two atoms is d = |x - y|, or period - d where that is shorter.


def _merged(raw, period):
    """Sorted (position, mass) pairs with each atom within ATOM_MERGE_TOL of
    an earlier kept one added to the first such; the first position wins."""
    tol = ATOM_MERGE_TOL
    merged = []
    for x, m in raw:
        for slot in merged:
            d = abs(x - slot[0])
            if d <= tol or period - d <= tol:
                slot[1] += m
                break
        else:
            merged.append([x, m])
    return tuple(map(tuple, merged))


def _match_atom(target, atoms, tol, period):
    """Index of the closest atom within tol of target (the first of equals),
    or None."""
    best = None
    for i, (x, _) in enumerate(atoms):
        d = abs(target - x)
        if period - d < d:
            d = period - d
        if d <= tol and (best is None or d < best_d):
            best, best_d = i, d
    return best


class BlaschkeFunction(_Frozen):
    """Finite Blaschke part: zeros in the open disk with multiplicities.

    Atoms are kept as a tuple of (zero, multiplicity) pairs, sorted by
    (real, imaginary) part.  Zeros closer than ATOM_MERGE_TOL are merged
    at construction time (the first canonical position wins).
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: tuple = ()):
        raw = []
        for alpha, mult in atoms:
            alpha = _clean_complex(alpha)
            # a fractional, infinite or NaN multiplicity leaves a remainder
            if mult % 1:
                raise InvalidZeroError("multiplicity must be an integer, got %r" % (mult,))
            mult = int(mult)
            # one test for the usual case; a NaN modulus fails it too
            if not abs(alpha) < 1.0:
                if not math.isfinite(alpha.real) or not math.isfinite(alpha.imag):
                    raise InvalidZeroError("zero must be finite, got %r" % (alpha,))
                raise InvalidZeroError(
                    "zero must satisfy |alpha| < 1, got |alpha|=%.17g" % abs(alpha)
                )
            if mult <= 0:
                raise InvalidZeroError("multiplicity must be positive, got %d" % mult)
            raw.append((alpha, mult))
        raw.sort(key=lambda am: (am[0].real, am[0].imag))
        merged = _merged(raw, math.inf)
        try:
            finite = math.isfinite(sum(m * (1.0 - abs(a)) for a, m in merged))
        except OverflowError:  # a multiplicity past the float range
            finite = False
        if not finite:
            raise InvalidZeroError("zero data does not sum to a finite Blaschke condition")
        self._set(merged)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.atoms)

    def zeros_with_multiplicity(self) -> list:
        """Zeros repeated by multiplicity, in canonical order."""
        out = []
        for alpha, mult in self.atoms:
            out.extend([alpha] * mult)
        return out

    def __call__(self, z):
        import numpy as np

        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        for alpha, mult in self.atoms:
            out = out * eval_blaschke_factor(alpha, z) ** mult
        return _value(out)


class AtomicSingularMeasure(_Frozen):
    """Purely atomic measure on the circle: (angle, weight) pairs.

    Angles are normalized to [0, 2*pi) and sorted; weights are positive.
    Atoms closer than ATOM_MERGE_TOL (including across the 2*pi wrap)
    are merged with summed weights.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: tuple = ()):
        raw = []
        for angle, weight in atoms:
            angle = _clean_float(angle) % TWO_PI
            if angle == TWO_PI:
                # a tiny negative angle rounds up to 2*pi, which is angle 0
                angle = 0.0
            weight = _clean_float(weight)
            if not math.isfinite(angle) or not math.isfinite(weight):
                raise InvalidZeroError("singular atom must be finite")
            if weight <= 0.0:
                raise InvalidZeroError("singular weight must be positive, got %g" % weight)
            raw.append((angle, weight))
        raw.sort()
        self._set(_merged(raw, TWO_PI))

    def __call__(self, z):
        """Evaluate the singular inner factor exp(-sum w (xi+z)/(xi-z))."""
        import numpy as np

        z = np.asarray(z, dtype=complex)
        expo = np.zeros_like(z)
        for angle, weight in self.atoms:
            xi = np.exp(1j * angle)
            expo = expo + weight * (xi + z) / (xi - z)
        return _value(np.exp(-expo))


class InnerFunction(_Frozen):
    """Unimodular constant times a finite Blaschke part times a singular part."""

    __slots__ = ("gamma", "blaschke", "singular")

    def __init__(self, gamma: complex = 1.0 + 0.0j,
                 blaschke: BlaschkeFunction = BlaschkeFunction(),
                 singular: AtomicSingularMeasure = AtomicSingularMeasure()):
        gamma = _clean_complex(gamma)
        # written so that a NaN constant fails too
        if not abs(abs(gamma) - 1.0) <= UNIMODULAR_TOL:
            raise InvalidZeroError(
                "leading constant must be unimodular, got |gamma|=%.17g" % abs(gamma)
            )
        if not isinstance(blaschke, BlaschkeFunction):
            blaschke = BlaschkeFunction(tuple(blaschke))
        if not isinstance(singular, AtomicSingularMeasure):
            singular = AtomicSingularMeasure(tuple(singular))
        self._set(gamma, blaschke, singular)

    @property
    def blaschke_degree(self) -> int:
        return self.blaschke.degree

    @property
    def is_constant(self) -> bool:
        return not self.blaschke.atoms and not self.singular.atoms

    def __call__(self, z):
        import numpy as np

        z_arr = np.asarray(z, dtype=complex)
        radius = float(np.max(np.abs(z_arr))) if z_arr.size else 0.0
        if self.singular.atoms:
            if radius >= 1.0 - BOUNDARY_SLACK:
                raise EvaluationDomainError(
                    "singular factor requires |z| < 1, got max |z|=%.17g" % radius
                )
        elif radius > 1.0 + BOUNDARY_SLACK:
            raise EvaluationDomainError(
                "finite Blaschke product requires |z| <= 1, got max |z|=%.17g" % radius
            )
        out = self.gamma * np.ones_like(z_arr)
        if self.blaschke.atoms:
            out = out * self.blaschke(z_arr)
        if self.singular.atoms:
            out = out * self.singular(z_arr)
        return _value(out)


def inner_one() -> InnerFunction:
    """The constant inner function 1."""
    return InnerFunction()


def blaschke_factor(alpha: complex, power: int = 1) -> InnerFunction:
    """Single normalized Blaschke factor at alpha, optionally raised to power."""
    return InnerFunction(blaschke=BlaschkeFunction(((alpha, power),)))


def blaschke_product(zeros: Iterable[complex], gamma: complex = 1.0) -> InnerFunction:
    """Finite Blaschke product with the given zeros (repeats = multiplicity)."""
    return InnerFunction(
        gamma=gamma, blaschke=BlaschkeFunction(tuple((z, 1) for z in zeros))
    )


def singular_inner(atoms: Iterable, gamma: complex = 1.0) -> InnerFunction:
    """Singular inner function for atoms given as (angle, weight) pairs."""
    return InnerFunction(gamma=gamma, singular=AtomicSingularMeasure(tuple(atoms)))


def _parts(a: InnerFunction, b: InnerFunction, zero_tol: float = ATOM_MERGE_TOL):
    """Rows (a's atoms, b's atoms, match tolerance, period, mass slack) for
    the Blaschke and the singular part.  Multiplicities take no slack, so
    their order stays exact at any size."""
    return (
        (a.blaschke.atoms, b.blaschke.atoms, zero_tol, math.inf, 0),
        (a.singular.atoms, b.singular.atoms, ATOM_MERGE_TOL, TWO_PI, WEIGHT_TOL),
    )


def _combine(a: InnerFunction, b: InnerFunction, op, gamma: complex = 1.0) -> InnerFunction:
    """a's atoms, each with mass op(mass, matched mass in b or 0), kept where
    that exceeds the part's slack."""
    parts = []
    for mine, theirs, tol, period, slack in _parts(a, b):
        kept = []
        for x, m in mine:
            j = _match_atom(x, theirs, tol, period)
            rest = op(m, theirs[j][1] if j is not None else 0)
            if rest > slack:
                kept.append((x, rest))
        parts.append(tuple(kept))
    return InnerFunction(gamma, *parts)


def divides(a: InnerFunction, b: InnerFunction, zero_tol: float = ATOM_MERGE_TOL) -> bool:
    """Whether a divides b: componentwise order on multiplicities and weights.

    The unimodular constants are ignored.  Zeros are matched within
    zero_tol; singular atoms within ATOM_MERGE_TOL in angle, and the weight
    order is read with slack WEIGHT_TOL.
    """
    for mine, theirs, tol, period, slack in _parts(a, b, zero_tol):
        for x, m in mine:
            j = _match_atom(x, theirs, tol, period)
            if m > (theirs[j][1] if j is not None else 0) + slack:
                return False
    return True


def equiv(a: InnerFunction, b: InnerFunction, zero_tol: float = ATOM_MERGE_TOL) -> bool:
    """Equality up to a unimodular constant: mutual divisibility."""
    return divides(a, b, zero_tol=zero_tol) and divides(b, a, zero_tol=zero_tol)


def multiply(a: InnerFunction, b: InnerFunction) -> InnerFunction:
    """Product of two inner functions (constants multiply, atoms add)."""
    return InnerFunction(
        gamma=a.gamma * b.gamma,
        blaschke=BlaschkeFunction(a.blaschke.atoms + b.blaschke.atoms),
        singular=AtomicSingularMeasure(a.singular.atoms + b.singular.atoms),
    )


def gcd(a: InnerFunction, b: InnerFunction) -> InnerFunction:
    """Greatest common inner divisor: pointwise minimum of the parts.

    The result carries constant 1; matched atoms keep the position from a.
    """
    return _combine(a, b, min)


def lcm(a: InnerFunction, b: InnerFunction) -> InnerFunction:
    """Least common inner multiple: pointwise maximum of the parts.

    Each atom of b, in order, raises the closest atom of the result so far
    or else joins it at the end."""
    parts = []
    for mine, theirs, tol, period, _ in _parts(a, b):
        out = list(mine)
        for x, m in theirs:
            j = _match_atom(x, out, tol, period)
            if j is None:
                out.append((x, m))
            elif out[j][1] < m:
                out[j] = (out[j][0], m)
        parts.append(tuple(out))
    return InnerFunction(1.0, *parts)


def exact_divide(numerator: InnerFunction, denominator: InnerFunction) -> InnerFunction:
    """Quotient numerator / denominator, defined only when it is again inner.

    Raises NotADivisorError when the denominator does not divide the
    numerator.  The quotient's constant is the quotient of constants.
    """
    if not divides(denominator, numerator):
        raise NotADivisorError("denominator does not divide numerator")
    return _combine(
        numerator, denominator, lambda m, have: m - have, numerator.gamma / denominator.gamma
    )


def enumerate_blaschke_divisors(theta: InnerFunction) -> list:
    """All inner divisors of a finite Blaschke product, constants set to 1.

    The count is the product of (multiplicity + 1) over the zeros; above
    ``MAX_DIVISORS`` it raises :class:`ConditioningError` before building
    any divisor.  A nontrivial singular part has a continuum of divisors,
    so it is rejected.
    """
    if theta.singular.atoms:
        raise NotADivisorError(
            "divisor enumeration needs a finite Blaschke product; "
            "a singular part has uncountably many divisors"
        )
    count = math.prod(mult + 1 for _, mult in theta.blaschke.atoms)
    if count > MAX_DIVISORS:
        raise ConditioningError(
            "%d divisors exceed the enumeration cap %d" % (count, MAX_DIVISORS)
        )
    positions = [alpha for alpha, _ in theta.blaschke.atoms]
    ranges = [range(mult + 1) for _, mult in theta.blaschke.atoms]
    out = []
    for choice in itertools.product(*ranges):
        atoms = tuple(
            (positions[i], m) for i, m in enumerate(choice) if m > 0
        )
        out.append(InnerFunction(blaschke=BlaschkeFunction(atoms)))
    return out


class Polynomial(_Frozen):
    """Polynomial with ascending coefficients c0 + c1 z + ...."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple = (0.0 + 0.0j,)):
        import numpy as np

        coeffs = tuple(_clean_complex(c) for c in coefficients)
        if not coeffs:
            coeffs = (0.0 + 0.0j,)
        if not np.all(np.isfinite(np.asarray(coeffs))):
            raise ValueError("polynomial coefficients must be finite")
        self._set(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z):
        import numpy as np

        z = np.asarray(z, dtype=complex)
        return _value(np.polynomial.polynomial.polyval(z, np.asarray(self.coefficients)))


class RationalFunction(_Frozen):
    """Ratio of polynomials whose denominator has no roots in |z| <= 1.

    Coefficients ascend.  Poles must satisfy |pole| > 1 + 1e-9 so the
    function is bounded and analytic on the closed disk.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(
        self, numerator: tuple = (0.0 + 0.0j,), denominator: tuple = (1.0 + 0.0j,)
    ):
        import numpy as np

        num = tuple(_clean_complex(c) for c in numerator) or (0.0 + 0.0j,)
        den = tuple(_clean_complex(c) for c in denominator) or (1.0 + 0.0j,)
        if not np.all(np.isfinite(np.asarray(num))) or not np.all(
            np.isfinite(np.asarray(den))
        ):
            raise ValueError("rational coefficients must be finite")
        if max(abs(c) for c in den) == 0.0:
            raise ValueError("denominator must be nonzero")
        roots = np.roots(np.asarray(den)[::-1]) if len(den) > 1 else np.array([])
        if roots.size and np.min(np.abs(roots)) <= 1.0 + 1e-9:
            raise ValueError(
                "denominator root of modulus %.17g inside the closed disk"
                % float(np.min(np.abs(roots)))
            )
        self._set(num, den)

    def __call__(self, z):
        import numpy as np

        z = np.asarray(z, dtype=complex)
        p = np.polynomial.polynomial.polyval(z, np.asarray(self.numerator))
        q = np.polynomial.polynomial.polyval(z, np.asarray(self.denominator))
        return _value(p / q)


class ProductFunction(_Frozen):
    """Finite product of bounded analytic factors."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple = ()):
        factors = tuple(factors)
        for f in factors:
            if not isinstance(f, (Polynomial, RationalFunction, InnerFunction, ProductFunction)):
                raise TypeError("unsupported factor type %r" % type(f).__name__)
        self._set(factors)

    def __call__(self, z):
        import numpy as np

        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        for f in self.factors:
            out = out * np.asarray(f(z), dtype=complex)
        return _value(out)


BoundedAnalyticFunction = Union[Polynomial, RationalFunction, InnerFunction, ProductFunction]


def is_negligible(u: BoundedAnalyticFunction) -> bool:
    """Whether u is numerically the zero function: every coefficient of a
    polynomial, or of a rational numerator, is at most NEGLIGIBLE_TOL."""
    if isinstance(u, Polynomial):
        return max(abs(c) for c in u.coefficients) <= NEGLIGIBLE_TOL
    if isinstance(u, RationalFunction):
        return max(abs(c) for c in u.numerator) <= NEGLIGIBLE_TOL
    if isinstance(u, InnerFunction):
        return False
    if isinstance(u, ProductFunction):
        if not u.factors:
            return False
        return any(is_negligible(f) for f in u.factors)
    raise TypeError("unsupported function type %r" % type(u).__name__)
