"""Error taxonomy shared by every module.

Each exception carries a short machine-readable ``code`` and the process exit
status the CLI maps it to: 2 for domain/precondition problems, 3 for resource
or representation limits, 4 when the search proved that no certificate
exists, 5 when a certificate the mathematics guarantees failed to verify.
"""

from __future__ import annotations


def brief(x) -> str:
    """An int or Fraction as text, or by bit length past int-to-str's limit."""
    try:
        return str(x)
    except ValueError:
        return f"<{max(x.numerator.bit_length(), x.denominator.bit_length())}-bit number>"


class DiophError(Exception):
    """Base class; ``code`` is stable across releases, messages are not."""

    exit_code = 2

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class PreconditionError(DiophError):
    """Caller violated a documented precondition (exit 2)."""


class RateViolation(PreconditionError):
    def __init__(self, message: str):
        super().__init__("RATE_VIOLATION", message)


class RangeTooLarge(PreconditionError):
    def __init__(self, message: str):
        super().__init__("RANGE_TOO_LARGE", message)


class CaseIPersists(PreconditionError):
    def __init__(self, message: str, entries=None):
        super().__init__("CASE_I_PERSISTS", message)
        self.entries = entries


class ZeroResidual(PreconditionError):
    def __init__(self, message: str):
        super().__init__("ZERO_RESIDUAL", message)


class ZeroFormValue(PreconditionError):
    def __init__(self, message: str, index: int | None = None):
        super().__init__("ZERO_FORM_VALUE", message)
        self.index = index


class HalfInteger(PreconditionError):
    def __init__(self, message: str):
        super().__init__("HALF_INTEGER", message)


class Degenerate(PreconditionError):
    def __init__(self, message: str):
        super().__init__("DEGENERATE", message)


class ResourceLimit(DiophError):
    """Precision or representation budget exhausted (exit 3)."""

    exit_code = 3


class Inconclusive(ResourceLimit):
    def __init__(self, message: str, k_cap: int):
        super().__init__("INCONCLUSIVE", f"{message} (precision cap {k_cap} bits)")
        self.k_cap = k_cap


class Unrepresentable(ResourceLimit):
    def __init__(self, message: str):
        super().__init__("UNREPRESENTABLE", message)


class CertificateError(DiophError):
    """A certificate that the mathematics guarantees failed to verify, which
    is a bug (exit 5): BAND_VIOLATION, INTEGRALITY, PIGEONHOLE_FAILED,
    INTERNAL."""

    exit_code = 5


class NeitherCaseCertified(CertificateError):
    """An honest answer (exit 4): the search completed and proved that
    neither case of the dichotomy has a witness."""

    exit_code = 4

    def __init__(self, message: str):
        super().__init__("NEITHER_CASE_CERTIFIED", message)
