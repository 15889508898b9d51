"""Exception types shared across the package."""


class HomforgeError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(HomforgeError):
    """A command-line argument or environment setting is invalid."""


class InvalidStructureError(HomforgeError):
    """A structure, signature, query, or file violates a format invariant."""


class SignatureMismatchError(HomforgeError):
    """Structures that must share a signature do not."""


class GuardExceededError(HomforgeError):
    """A size guard was hit; carries the would-be cardinality."""

    def __init__(self, message, cardinality):
        super().__init__(message)
        self.cardinality = cardinality


class CertificateError(HomforgeError):
    """A certificate of an answer fails its independent check."""


class NotAHomomorphismError(CertificateError):
    """A witness map, or a map handed to restrict_hom_digraph, fails validation."""


class UnsafeQueryError(HomforgeError):
    """A synthesized query would have a free variable in no atom."""


class CyclicStructureError(HomforgeError):
    """A digraph expected to be acyclic contains a cycle."""
