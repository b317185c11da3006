"""Exception hierarchy shared by all nhvi modules."""


class NhviError(Exception):
    """Base class for all errors raised by this package.

    `state` is the last good trajectory node (an integrator `State`) when
    `simulate` raised the error from one of its steps, and None otherwise.
    """

    state = None


class EvaluationFailure(NhviError):
    """A user-supplied map returned NaN/Inf during a numeric evaluation."""


class SingularJacobian(NhviError):
    """The Newton linear solve failed: a singular Jacobian or a non-finite step."""


class NewtonFailure(NhviError):
    """An implicit solve did not converge; carries context about the step."""

    def __init__(self, message, k=None, t=None, residual_norm=None, phase=None):
        super().__init__(message)
        self.k = k
        self.t = t
        self.residual_norm = residual_norm
        self.phase = phase


class NotOnBoundary(NhviError):
    """A boundary frame was requested at a point off the collision surface."""


class DegenerateFrame(NhviError):
    """Tangent basis / projection pair failed the left-inverse check."""


class InvalidInitialState(NhviError):
    """Discretized initial configurations left the admissible set."""


class AlphaOutOfRange(NhviError):
    """Impact fraction solved outside the open interval (0, 1)."""


class PersistentPenetration(NhviError):
    """Post-impact state still penetrates; aborting the run."""


class RootSelectionAmbiguous(NhviError):
    """Energy-matching solve converged to a root that does not re-enter the
    admissible set, although the model's impact law re-enters."""


class NoElasticRebound(NhviError):
    """The model's elastic impact law admits no bounce at this contact.

    The law (the s2 -> 0 limit of phase B, built from the model's tangent
    basis, constraint one-forms and kinetic metric at the boundary point)
    gives a post-impact velocity whose normal rate `law_rate` is not
    positive, and the phase-B root does not re-enter either.  This is a
    property of the model data, not a solver failure.
    """

    def __init__(self, message, law_rate=None, k=None, t=None):
        super().__init__(message)
        self.law_rate = law_rate
        self.k = k
        self.t = t


class SchemaError(NhviError):
    """Configuration file violates the documented schema."""

    def __init__(self, message, key_path=""):
        self.key_path = key_path
        super().__init__(f"{key_path}: {message}" if key_path else message)


class DimensionMismatch(NhviError):
    """Vector lengths inconsistent with the model dimensions."""


class ParameterError(NhviError, ValueError):
    """A parameter record's `field` breaks its rule; `detail` says how."""

    def __init__(self, field, detail):
        super().__init__(f"{field} {detail}")
        self.field = field
        self.detail = detail


def require(record, field: str, ok: bool, rule: str) -> None:
    """The one check of a parameter record: `ok` is whether `rule`, the
    condition on `field`, holds; stated as what must hold, a NaN fails it."""
    if not ok:
        raise ParameterError(field, f"must satisfy {rule}, got {getattr(record, field)!r}")
