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
that evaluate a function, so divisibility work never loads it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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
# Largest divisor count enumerated: the most a symbol of the model degree
# cap, 16, can have (16 distinct zeros).
MAX_DIVISORS = 2**16

TWO_PI = 2.0 * math.pi


def _clean_float(x: float) -> float:
    # canonicalize -0.0 so sorting and serialization are reproducible
    x = float(x)
    return 0.0 if x == 0.0 else x


def _clean_complex(z: complex) -> complex:
    z = complex(z)
    return complex(_clean_float(z.real), _clean_float(z.imag))


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
    if out.ndim == 0:
        return complex(out)
    return out


@dataclass(frozen=True)
class BlaschkeFunction:
    """Finite Blaschke part: zeros in the open disk with multiplicities.

    Atoms are kept as a tuple of (zero, multiplicity) pairs, sorted by
    (real, imaginary) part.  Zeros closer than ATOM_MERGE_TOL are merged
    at construction time (the first canonical position wins).
    """

    atoms: tuple = ()

    def __post_init__(self):
        merged: list[list] = []
        raw = []
        for alpha, mult in self.atoms:
            alpha = _clean_complex(alpha)
            mult = int(mult)
            if not math.isfinite(alpha.real) or not math.isfinite(alpha.imag):
                raise InvalidZeroError("zero must be finite, got %r" % (alpha,))
            if abs(alpha) >= 1.0:
                raise InvalidZeroError(
                    "zero must satisfy |alpha| < 1, got |alpha|=%.17g" % abs(alpha)
                )
            if mult <= 0:
                raise InvalidZeroError("multiplicity must be positive, got %d" % mult)
            raw.append((alpha, mult))
        raw.sort(key=lambda am: (am[0].real, am[0].imag))
        for alpha, mult in raw:
            for slot in merged:
                if abs(alpha - slot[0]) <= ATOM_MERGE_TOL:
                    slot[1] += mult
                    break
            else:
                merged.append([alpha, mult])
        total = sum(m * (1.0 - abs(a)) for a, m in merged)
        if not math.isfinite(total):
            raise InvalidZeroError("zero data does not sum to a finite Blaschke condition")
        object.__setattr__(self, "atoms", tuple((a, m) for a, m in merged))

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
        if out.ndim == 0:
            return complex(out)
        return out


@dataclass(frozen=True)
class AtomicSingularMeasure:
    """Purely atomic measure on the circle: (angle, weight) pairs.

    Angles are normalized to [0, 2*pi) and sorted; weights are positive.
    Atoms closer than ATOM_MERGE_TOL (including across the 2*pi wrap)
    are merged with summed weights.
    """

    atoms: tuple = ()

    def __post_init__(self):
        raw = []
        for angle, weight in self.atoms:
            angle = _clean_float(angle) % TWO_PI
            weight = _clean_float(weight)
            if not math.isfinite(angle) or not math.isfinite(weight):
                raise InvalidZeroError("singular atom must be finite")
            if weight <= 0.0:
                raise InvalidZeroError("singular weight must be positive, got %g" % weight)
            raw.append((angle, weight))
        raw.sort()
        merged: list[list] = []
        for angle, weight in raw:
            for slot in merged:
                gap = abs(angle - slot[0])
                if min(gap, TWO_PI - gap) <= ATOM_MERGE_TOL:
                    slot[1] += weight
                    break
            else:
                merged.append([angle, weight])
        object.__setattr__(self, "atoms", tuple((a, w) for a, w in merged))

    @property
    def total_mass(self) -> float:
        return sum(w for _, w in self.atoms)

    def __call__(self, z):
        """Evaluate the singular inner factor exp(-sum w (xi+z)/(xi-z))."""
        import numpy as np

        z = np.asarray(z, dtype=complex)
        expo = np.zeros_like(z)
        for angle, weight in self.atoms:
            xi = np.exp(1j * angle)
            expo = expo + weight * (xi + z) / (xi - z)
        out = np.exp(-expo)
        if out.ndim == 0:
            return complex(out)
        return out


def _match_atom(target, atoms, tol, dist):
    """Index of the closest atom within tol of target, or None."""
    best = None
    best_d = None
    for i, atom in enumerate(atoms):
        d = dist(target, atom[0])
        if d <= tol and (best_d is None or d < best_d):
            best, best_d = i, d
    return best


def _zero_dist(a, b):
    return abs(a - b)


def _angle_dist(a, b):
    gap = abs(a - b) % TWO_PI
    return min(gap, TWO_PI - gap)


@dataclass(frozen=True)
class InnerFunction:
    """Unimodular constant times a finite Blaschke part times a singular part."""

    gamma: complex = 1.0 + 0.0j
    blaschke: BlaschkeFunction = field(default_factory=BlaschkeFunction)
    singular: AtomicSingularMeasure = field(default_factory=AtomicSingularMeasure)

    def __post_init__(self):
        gamma = _clean_complex(self.gamma)
        if abs(abs(gamma) - 1.0) > UNIMODULAR_TOL:
            raise InvalidZeroError(
                "leading constant must be unimodular, got |gamma|=%.17g" % abs(gamma)
            )
        object.__setattr__(self, "gamma", gamma)
        if not isinstance(self.blaschke, BlaschkeFunction):
            object.__setattr__(self, "blaschke", BlaschkeFunction(tuple(self.blaschke)))
        if not isinstance(self.singular, AtomicSingularMeasure):
            object.__setattr__(
                self, "singular", AtomicSingularMeasure(tuple(self.singular))
            )

    @property
    def blaschke_degree(self) -> int:
        return self.blaschke.degree

    @property
    def is_finite_blaschke(self) -> bool:
        return not self.singular.atoms

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
        if out.ndim == 0:
            return complex(out)
        return out


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


def divides(a: InnerFunction, b: InnerFunction, zero_tol: float = ATOM_MERGE_TOL,
            weight_tol: float = WEIGHT_TOL) -> bool:
    """Whether a divides b: componentwise order on multiplicities and weights.

    The unimodular constants are ignored.  Zeros are matched within
    zero_tol; singular atoms within ATOM_MERGE_TOL in angle, and the weight
    order is read with slack weight_tol.
    """
    for alpha, mult in a.blaschke.atoms:
        j = _match_atom(alpha, b.blaschke.atoms, zero_tol, _zero_dist)
        if j is None or b.blaschke.atoms[j][1] < mult:
            return False
    for angle, weight in a.singular.atoms:
        j = _match_atom(angle, b.singular.atoms, ATOM_MERGE_TOL, _angle_dist)
        have = b.singular.atoms[j][1] if j is not None else 0.0
        if weight > have + weight_tol:
            return False
    return True


def equiv(a: InnerFunction, b: InnerFunction, zero_tol: float = ATOM_MERGE_TOL,
          weight_tol: float = WEIGHT_TOL) -> bool:
    """Equality up to a unimodular constant: mutual divisibility."""
    return (
        divides(a, b, zero_tol=zero_tol, weight_tol=weight_tol)
        and divides(b, a, zero_tol=zero_tol, weight_tol=weight_tol)
    )


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
    bl = []
    for alpha, mult in a.blaschke.atoms:
        j = _match_atom(alpha, b.blaschke.atoms, ATOM_MERGE_TOL, _zero_dist)
        if j is not None:
            bl.append((alpha, min(mult, b.blaschke.atoms[j][1])))
    sg = []
    for angle, weight in a.singular.atoms:
        j = _match_atom(angle, b.singular.atoms, ATOM_MERGE_TOL, _angle_dist)
        if j is not None:
            w = min(weight, b.singular.atoms[j][1])
            if w > WEIGHT_TOL:
                sg.append((angle, w))
    return InnerFunction(
        blaschke=BlaschkeFunction(tuple(bl)), singular=AtomicSingularMeasure(tuple(sg))
    )


def lcm(a: InnerFunction, b: InnerFunction) -> InnerFunction:
    """Least common inner multiple: pointwise maximum of the parts."""
    bl = list(a.blaschke.atoms)
    for alpha, mult in b.blaschke.atoms:
        j = _match_atom(alpha, tuple(bl), ATOM_MERGE_TOL, _zero_dist)
        if j is None:
            bl.append((alpha, mult))
        elif bl[j][1] < mult:
            bl[j] = (bl[j][0], mult)
    sg = list(a.singular.atoms)
    for angle, weight in b.singular.atoms:
        j = _match_atom(angle, tuple(sg), ATOM_MERGE_TOL, _angle_dist)
        if j is None:
            sg.append((angle, weight))
        elif sg[j][1] < weight:
            sg[j] = (sg[j][0], weight)
    return InnerFunction(
        blaschke=BlaschkeFunction(tuple(bl)), singular=AtomicSingularMeasure(tuple(sg))
    )


def exact_divide(numerator: InnerFunction, denominator: InnerFunction) -> InnerFunction:
    """Quotient numerator / denominator, defined only when it is again inner.

    Raises NotADivisorError when the denominator does not divide the
    numerator.  The quotient's constant is the quotient of constants.
    """
    if not divides(denominator, numerator):
        raise NotADivisorError("denominator does not divide numerator")
    bl = []
    for alpha, mult in numerator.blaschke.atoms:
        j = _match_atom(alpha, denominator.blaschke.atoms, ATOM_MERGE_TOL, _zero_dist)
        rest = mult - (denominator.blaschke.atoms[j][1] if j is not None else 0)
        if rest > 0:
            bl.append((alpha, rest))
    sg = []
    for angle, weight in numerator.singular.atoms:
        j = _match_atom(angle, denominator.singular.atoms, ATOM_MERGE_TOL, _angle_dist)
        rest = weight - (denominator.singular.atoms[j][1] if j is not None else 0.0)
        if rest > WEIGHT_TOL:
            sg.append((angle, rest))
    return InnerFunction(
        gamma=numerator.gamma / denominator.gamma,
        blaschke=BlaschkeFunction(tuple(bl)),
        singular=AtomicSingularMeasure(tuple(sg)),
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


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with ascending coefficients c0 + c1 z + ...."""

    coefficients: tuple = (0.0 + 0.0j,)

    def __post_init__(self):
        import numpy as np

        coeffs = tuple(_clean_complex(c) for c in self.coefficients)
        if not coeffs:
            coeffs = (0.0 + 0.0j,)
        if not np.all(np.isfinite(np.asarray(coeffs))):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z):
        import numpy as np

        z = np.asarray(z, dtype=complex)
        out = np.polynomial.polynomial.polyval(z, np.asarray(self.coefficients))
        if out.ndim == 0:
            return complex(out)
        return out


@dataclass(frozen=True)
class RationalFunction:
    """Ratio of polynomials whose denominator has no roots in |z| <= 1.

    Coefficients ascend.  Poles must satisfy |pole| > 1 + 1e-9 so the
    function is bounded and analytic on the closed disk.
    """

    numerator: tuple = (0.0 + 0.0j,)
    denominator: tuple = (1.0 + 0.0j,)

    def __post_init__(self):
        import numpy as np

        num = tuple(_clean_complex(c) for c in self.numerator) or (0.0 + 0.0j,)
        den = tuple(_clean_complex(c) for c in self.denominator) or (1.0 + 0.0j,)
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
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def __call__(self, z):
        import numpy as np

        z = np.asarray(z, dtype=complex)
        p = np.polynomial.polynomial.polyval(z, np.asarray(self.numerator))
        q = np.polynomial.polynomial.polyval(z, np.asarray(self.denominator))
        out = p / q
        if out.ndim == 0:
            return complex(out)
        return out


@dataclass(frozen=True)
class ProductFunction:
    """Finite product of bounded analytic factors."""

    factors: tuple = ()

    def __post_init__(self):
        factors = tuple(self.factors)
        for f in factors:
            if not isinstance(f, (Polynomial, RationalFunction, InnerFunction, ProductFunction)):
                raise TypeError("unsupported factor type %r" % type(f).__name__)
        object.__setattr__(self, "factors", factors)

    def __call__(self, z):
        import numpy as np

        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        for f in self.factors:
            out = out * np.asarray(f(z), dtype=complex)
        if out.ndim == 0:
            return complex(out)
        return out


BoundedAnalyticFunction = Union[Polynomial, RationalFunction, InnerFunction, ProductFunction]


def is_negligible(u: BoundedAnalyticFunction, tol: float = 1e-14) -> bool:
    """Whether u is numerically the zero function."""
    if isinstance(u, Polynomial):
        return max(abs(c) for c in u.coefficients) <= tol
    if isinstance(u, RationalFunction):
        return max(abs(c) for c in u.numerator) <= tol
    if isinstance(u, InnerFunction):
        return False
    if isinstance(u, ProductFunction):
        if not u.factors:
            return False
        return any(is_negligible(f, tol) for f in u.factors)
    raise TypeError("unsupported function type %r" % type(u).__name__)
