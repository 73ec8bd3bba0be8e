"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` (used by the CLI's
JSON error output) and the process exit code the CLI maps it to.
"""


class BarypolyError(Exception):
    code = "Error"
    exit_code = 1


class ParseError(BarypolyError):
    code = "ParseError"


class EmptyInputError(BarypolyError):
    code = "EmptyInput"


class SingularMatrixError(BarypolyError):
    code = "SingularMatrix"


class DimensionMismatchError(BarypolyError):
    code = "DimensionMismatch"


class TooFewVerticesError(BarypolyError):
    code = "TooFewVertices"


class RankDeficientError(BarypolyError):
    code = "RankDeficient"


class DuplicateVertexError(BarypolyError):
    code = "DuplicateVertex"


class NonExtremeVertexError(BarypolyError):
    """Raised with the 1-based index of the offending vertex."""

    code = "NonExtremeVertex"

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"vertex {index} is not an extreme point")


class InfeasibleError(BarypolyError):
    """The point is outside the polytope; ``separator`` is (a, b) with
    a·v_i <= b for every vertex and a·p > b where the raiser read one off its
    phase one, else None."""

    code = "Infeasible"
    exit_code = 2

    def __init__(self, message, separator=None):
        self.separator = separator
        super().__init__(message)


class SingularPatternError(BarypolyError):
    code = "SingularPattern"


class PatternLimitError(BarypolyError):
    """The zero-pattern count C(n, n-d-1) exceeds the work limit."""

    code = "TooManyPatterns"


class DigitLimitError(BarypolyError):
    """An exact output value has more digits than Python converts to a
    string (``sys.get_int_max_str_digits()``, 4300 by default)."""

    code = "TooManyDigits"


class InconsistentInputsError(BarypolyError):
    code = "InconsistentInputs"


class NotAnIntervalError(BarypolyError):
    code = "NotAnInterval"


class UnboundedDirectionError(BarypolyError):
    """Internal-error signal: cannot occur for a validated polytope."""

    code = "UnboundedDirection"
    exit_code = 3


class NotMemberError(BarypolyError):
    code = "NotMember"


class LeavesPolytopeError(BarypolyError):
    code = "LeavesPolytope"


class InfeasibleSelectionError(BarypolyError):
    code = "InfeasibleSelection"


class InternalError(BarypolyError):
    """An invariant failed (an ``assert`` would vanish under python -O)."""

    code = "InternalError"
    exit_code = 3


class OracleMismatchError(BarypolyError):
    """Two independent computation routes disagreed; exit code 3."""

    code = "OracleMismatch"
    exit_code = 3
