"""Exception hierarchy shared by all hypercover modules.

Every exception carries a stable ``code`` string; the command line layer
prints that code on standard error and exits with status 1, so the class
names here are part of the external contract.  Errors that name vertex or
edge ids keep those ids apart from the text, so the command line can state
them 1-based while the API states them 0-based.
"""

from __future__ import annotations


class HypercoverError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"

    def render(self, base: int) -> str:
        """The message with every vertex or edge id ``base``-based."""
        return str(self)


class _IdError(HypercoverError):
    """An error naming ids, built from a ``str.format`` template and the
    0-based ids that fill it; ``id`` is the offending one."""

    def __init__(self, template: str, *ids: int):
        super().__init__(template, *ids)
        self.template = template
        self.ids = ids

    @property
    def id(self) -> int:
        return self.ids[0]

    def render(self, base: int) -> str:
        return self.template.format(*(i + base for i in self.ids))

    def __str__(self) -> str:
        return self.render(0)


class FormatError(HypercoverError):
    """A line of an input file does not match the expected grammar."""

    code = "SyntaxError"


class EmptyEdgeError(HypercoverError):
    """An edge with no vertices was supplied."""

    code = "EmptyEdge"


class VertexOutOfRangeError(HypercoverError):
    """A vertex id falls outside the declared vertex range."""

    code = "VertexOutOfRange"


class DuplicateEdgeError(_IdError):
    """The same edge appears twice and strict mode is in effect."""

    code = "DuplicateEdge"


class EmptySubsetError(HypercoverError):
    """A restriction to the empty vertex set was requested."""

    code = "EmptySubset"


class IdOutOfRangeError(_IdError):
    """A vertex or edge id passed to a checker does not exist."""

    code = "IdOutOfRange"


class IsolatedVertexError(_IdError):
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
