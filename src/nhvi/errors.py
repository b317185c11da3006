"""Exception hierarchy shared by all nhvi modules."""


class NhviError(Exception):
    """Base class for all errors raised by this package.

    The keyword arguments are the error's `context`, each also an attribute;
    a type with a `template` formats its message from them.  When `simulate`
    raised it from step k, `state` is node k as it stood before the step and
    `prev` node k - 1 if step k - 1 was smooth; both are None otherwise.
    """

    template = ""
    state = None
    prev = None

    def __init__(self, message=None, **context):
        super().__init__(self.template.format(**context) if message is None else message)
        self.context = context
        self.__dict__.update(context)


class EvaluationFailure(NhviError):
    """A user-supplied map returned NaN/Inf during a numeric evaluation."""


class SingularJacobian(NhviError):
    """The Newton linear solve failed: a singular Jacobian or a non-finite step."""


class NewtonFailure(NhviError):
    """An implicit solve did not converge; carries context about the step."""

    template = "{phase} solve stalled at residual {residual_norm:.3e} (step {k}, t={t:.6g})"


class NotOnBoundary(NhviError):
    """A boundary frame was requested at a point off the collision surface."""


class DegenerateFrame(NhviError):
    """Tangent basis / projection pair failed the left-inverse check."""


class InvalidInitialState(NhviError):
    """Discretized initial configurations left the admissible set."""


class AlphaOutOfRange(NhviError):
    """Impact fraction solved outside the open interval (0, 1)."""

    template = "impact fraction {alpha:.6g} outside (0, 1) at step {k}, t={t:.6g}"


class PersistentPenetration(NhviError):
    """Post-impact state still penetrates; aborting the run."""

    template = "post-impact configuration still penetrates (step {k}, t={t:.6g}, gap {gap:.3e})"


class RootSelectionAmbiguous(NhviError):
    """Energy-matching solve converged to a root that does not re-enter the
    admissible set, although the model's impact law re-enters."""

    template = (
        "post-impact root does not re-enter the admissible set "
        "(normal rate {rate:.3e}, law rate {law_rate:.3e}) at step {k}, t={t:.6g}"
    )


class NoElasticRebound(NhviError):
    """The model's elastic impact law admits no bounce at this contact.

    The law (the s2 -> 0 limit of phase B, built from the model's tangent
    basis, constraint one-forms and kinetic metric at the boundary point)
    gives a post-impact velocity whose normal rate `law_rate` is not
    positive, and the phase-B root does not re-enter either.  This is a
    property of the model data, not a solver failure.
    """

    template = (
        "impact law admits no elastic rebound (law normal rate {law_rate:.3e}) "
        "at step {k}, t={t:.6g}"
    )


class SchemaError(NhviError):
    """Configuration file violates the documented schema."""

    def __init__(self, message, key_path=""):
        super().__init__(f"{key_path}: {message}" if key_path else message, key_path=key_path)


class DimensionMismatch(NhviError):
    """Vector lengths inconsistent with the model dimensions."""


class ParameterError(NhviError, ValueError):
    """A parameter record's `field` breaks its rule; `detail` says how."""

    def __init__(self, field, detail):
        super().__init__(f"{field} {detail}", field=field, detail=detail)


def require(record, field: str, ok: bool, rule: str) -> None:
    """The one check of a parameter record: `ok` is whether `rule`, the
    condition on `field`, holds; stated as what must hold, a NaN fails it."""
    if not ok:
        raise ParameterError(field, f"must satisfy {rule}, got {getattr(record, field)!r}")
