"""Certified rational arithmetic for Diophantine approximation experiments.

Everything is exact: real numbers enter only through interval oracles,
and every reported inequality is backed by a rational-endpoint enclosure.
"""

from .enclosure import Enclosure
from .errors import (
    CertificateError,
    DiophError,
    Inconclusive,
    NeitherCaseCertified,
    PreconditionError,
    ResourceLimit,
)
from .oracle import (
    CATALOG,
    PRECISION_CAP,
    AffineOracle,
    CFOracle,
    RationalOracle,
    RealOracle,
    parse_oracle,
    parse_rational,
)
from .contfrac import CFExpansion, Convergent, MuEstimate, convergents, expand, mu_estimate
from .dichotomy import (
    CaseIWitness,
    CaseIIWitness,
    DisjunctionResult,
    LemmaParams,
    find_fractional_hit,
    solve_disjunction,
)
from .seqbuild import (
    ApproxSequenceEntry,
    BuildResult,
    DensityData,
    EtaSchedule,
    RateEstimate,
    RateSpec,
    build_sequence,
    density_data,
    lemma1_bound,
    measure_rates,
)
from .multiform import (
    FormSequence,
    LinearForm,
    NesterenkoReport,
    OmegaReport,
    PointVec,
    SimultaneousWitness,
    apery_forms,
    dirichlet_witness,
    evaluate_form,
    nesterenko_report,
    omega0_search,
    tau_empirical,
)

__version__ = "0.1.0"

__all__ = [
    "AffineOracle",
    "ApproxSequenceEntry",
    "BuildResult",
    "CATALOG",
    "CFExpansion",
    "CFOracle",
    "CaseIIWitness",
    "CaseIWitness",
    "CertificateError",
    "Convergent",
    "DensityData",
    "DiophError",
    "DisjunctionResult",
    "Enclosure",
    "EtaSchedule",
    "FormSequence",
    "Inconclusive",
    "LemmaParams",
    "LinearForm",
    "MuEstimate",
    "NeitherCaseCertified",
    "NesterenkoReport",
    "OmegaReport",
    "PRECISION_CAP",
    "PointVec",
    "PreconditionError",
    "RateEstimate",
    "RateSpec",
    "RationalOracle",
    "RealOracle",
    "ResourceLimit",
    "SimultaneousWitness",
    "apery_forms",
    "build_sequence",
    "convergents",
    "density_data",
    "dirichlet_witness",
    "evaluate_form",
    "expand",
    "find_fractional_hit",
    "lemma1_bound",
    "measure_rates",
    "mu_estimate",
    "nesterenko_report",
    "omega0_search",
    "parse_oracle",
    "parse_rational",
    "solve_disjunction",
    "tau_empirical",
]
