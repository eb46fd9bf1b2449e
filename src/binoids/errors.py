"""Exception hierarchy shared by all modules.

Three families matter to callers: ParseError (bad input text),
PreconditionError (mathematically meaningless request), and everything
else, which indicates a bug.  The CLI maps the first two to exit codes
2 and 3 respectively.
"""


class BinoidsError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BinoidsError):
    """Input text does not conform to one of the file formats."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class PreconditionError(BinoidsError):
    """An operation was asked about an object outside its domain."""


# exactalg

class CompositionNonzero(PreconditionError):
    """Two consecutive differentials of a cochain complex do not compose to zero."""


# simplicial

class VoidComplex(PreconditionError):
    """The void complex (no faces at all) has no cochain complex."""


class NotAFace(PreconditionError):
    """A vertex set was used as a face of a complex it does not belong to."""


class UnknownVertex(PreconditionError):
    """A vertex label does not belong to the complex."""


# binoid

class NotSimplicialPresentation(PreconditionError):
    """A relation is element = element, or a left-hand side is not squarefree."""


class NotMonomialPresentation(PreconditionError):
    """A relation is not of the form monomial = infinity."""


class NotIntegral(PreconditionError):
    """The presentation has an infinity-relation, so no difference group exists."""


class Torsion(PreconditionError):
    """The difference group has torsion, outside this package's scope."""


class NotPositive(PreconditionError):
    """A relation side has empty support, so some generator would be a unit."""


# spectrum

class NotInSpec(PreconditionError):
    """The prime ideal does not belong to the given spectrum."""


class NotOpen(PreconditionError):
    """The given set of primes is not Zariski open (not subset-closed)."""


# cech

class NotCancellative(PreconditionError):
    """The units of the localizations are not what the cell complex of a
    general integral binoid carries.

    Two exact checks decide it, and a cancellative presentation passes
    both: each prime's complement is the set of generators on a face of
    the cone, and at each punctured prime p ≠ ∅, Z^(generators off p)
    modulo the relations with both sides off p is free of the rank of the
    lattice those generators span in the difference group.
    """


# divisors

class NotFullDimensional(PreconditionError):
    """The generator images do not span the difference group."""


class NotPointed(PreconditionError):
    """The cone of generator images contains a line."""


class FacetPrimeMismatch(PreconditionError):
    """Cone facets and height-one primes do not match bijectively.

    This is the detector for inputs outside the toric hypotheses
    (integral, torsion-free, cancellative, positive, regular in
    codimension one); it is reported, never silently patched.
    """
