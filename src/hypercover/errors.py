"""Exception hierarchy shared by all hypercover modules.

Every exception carries a stable ``code`` string; the command line layer
prints that code on standard error and exits with status 1, so the class
names here are part of the external contract.
"""

from __future__ import annotations


class HypercoverError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"


class FormatError(HypercoverError):
    """A line of an input file does not match the expected grammar."""

    code = "SyntaxError"


class EmptyEdgeError(HypercoverError):
    """An edge with no vertices was supplied."""

    code = "EmptyEdge"


class VertexOutOfRangeError(HypercoverError):
    """A vertex id falls outside the declared vertex range."""

    code = "VertexOutOfRange"


class DuplicateEdgeError(HypercoverError):
    """The same edge appears twice and strict mode is in effect."""

    code = "DuplicateEdge"


class EmptySubsetError(HypercoverError):
    """A restriction to the empty vertex set was requested."""

    code = "EmptySubset"


class IdOutOfRangeError(HypercoverError):
    """A vertex or edge id passed to a checker does not exist."""

    code = "IdOutOfRange"


class IsolatedVertexError(HypercoverError):
    """A vertex lies in no edge, so the requested operation is undefined."""

    code = "IsolatedVertex"


class IsolatedVertexForOpenError(IsolatedVertexError):
    """An open neighborhood hypergraph was requested for a graph with an
    isolated vertex, whose open neighborhood would be an empty edge."""

    code = "IsolatedVertexForOpen"


class TooLargeError(HypercoverError):
    """The instance exceeds the configured brute-force size cap."""

    code = "TooLarge"


class InfeasibleError(HypercoverError):
    """The optimization problem has no feasible solution at any size."""

    code = "Infeasible"


class CertificateError(HypercoverError):
    """A solver's self-check rejected its own certificate or witness."""

    code = "CertificateFailed"


class NotATreeError(HypercoverError):
    """The graph handed to the tree solver is not a tree."""

    code = "NotATree"


class SingleVertexOpenError(HypercoverError):
    """Open-kind domination was requested for a one-vertex tree, which has
    no open neighborhoods at all."""

    code = "SingleVertexOpen"


class NTooSmallError(HypercoverError):
    """A generator parameter is below the smallest supported size."""

    code = "NTooSmall"


class ParameterError(HypercoverError):
    """A generator or solver parameter is malformed."""

    code = "ParameterError"


class InfeasibleEdgeCountError(HypercoverError):
    """The requested number of random edges cannot be realized."""

    code = "InfeasibleEdgeCount"


class FormatWarning(UserWarning):
    """Recoverable irregularity in an input file (lenient mode only)."""
