"""Exception types shared across the package."""


class WeylError(Exception):
    """Base class for every error raised by this package."""


class EmptyGenerators(WeylError):
    """A lattice was requested from an empty generator list."""


class NondegenerateViolation(WeylError):
    """Generators span a proper subspace of the ambient rational space."""


class DimensionMismatch(WeylError):
    """Vector or matrix sizes do not match the ambient dimension."""


class NotMember(WeylError):
    """A vector is not a point of the lattice."""


class SingularBasis(WeylError):
    """The chosen lattice points are linearly dependent."""


class SingularMatrix(WeylError):
    """A matrix required to be invertible is singular."""


class BlockShapeViolation(WeylError):
    """A matrix violates the required lower block-triangular shape."""


class SignatureMismatch(WeylError):
    """Two elements live in different algebras."""


class NotInA(WeylError):
    """An element required to have no derivation part has one."""


class NotInFD(WeylError):
    """An element required to be a pure derivation polynomial is not."""


class ZeroElement(WeylError):
    """The zero element was passed where a nonzero one is required."""


class NotAnAutomorphism(WeylError):
    """Extensional data is inconsistent with any automorphism normal form."""


class LatticeNotMapped(WeylError):
    """The candidate matrix does not carry the source lattice onto the target."""


class InvariantViolation(WeylError):
    """An internal consistency check failed: a defect of the package, not of
    the input."""


class HomomorphismCounterexample(WeylError):
    """A check found inputs on which the map fails: for a random product
    check the trial number and the factors a, b; always the two sides."""

    def __init__(self, message, a=None, b=None, lhs=None, rhs=None, trial=None):
        super().__init__(message)
        self.trial = trial
        self.a = a
        self.b = b
        self.lhs = lhs
        self.rhs = rhs


class ExprSyntaxError(WeylError):
    """Surface-syntax parse failure with position and expected-token set."""

    def __init__(self, position, expected, found):
        self.position = position
        self.expected = frozenset(expected)
        self.found = found
        self.line = 1
        self.column = position + 1
        exp = ", ".join(sorted(self.expected))
        super().__init__(f"expected {exp}, found {found}")

    def __str__(self):
        return f"line {self.line}, column {self.column}: {self.args[0]}"

    def locate(self, src: str) -> "ExprSyntaxError":
        self.line = src.count("\n", 0, self.position) + 1
        self.column = self.position - src.rfind("\n", 0, self.position)
        return self


class DimensionError(WeylError):
    """A vector literal in the surface syntax has the wrong length."""

    def __init__(self, position, message):
        self.position = position
        self.line = 1
        self.column = position + 1
        super().__init__(message)

    def __str__(self):
        return f"line {self.line}, column {self.column}: {self.args[0]}"

    def locate(self, src: str) -> "DimensionError":
        self.line = src.count("\n", 0, self.position) + 1
        self.column = self.position - src.rfind("\n", 0, self.position)
        return self
