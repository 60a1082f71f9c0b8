"""Exact circle arithmetic over divisibility chains, ideal membership with
certified verdicts, convergence evidence reports, and certificate-producing
witness constructions."""

from .core import (CircleInterval, CircleRational, DigitExpansion, DomainError,
                   InsufficientDigitsError, RatInterval, SIN_UPPER, expand,
                   reconstruct, reconstruct_exact, support)
from .convergence import (ConvergenceReport, SummabilityReport, WeightRule,
                          classical_convergence, ideal_convergence,
                          membership_by_support, nset_partial_sums,
                          weight_ideal_link)
from .ideals import (FiniteSet, Geometric, Growth, IdealDescriptor, Outcome,
                     Progression, SetDescriptor, Shifted, UnionSet, Verdict,
                     density_estimate, descriptor_from_json, ideal_member,
                     non_snt_witness, parse_ideal, prefix_density,
                     translation_invariant_in)
from .sequences import (ArithmeticSequence, ArithmeticTerms, ExplicitTerms,
                        ScaledGeometric, TermSequence, parse_sequence,
                        parse_terms, terms_from_json)
from .witness import (BlockCheck, CertificateFormatError, Decomposition,
                      DigitChoice, PlannedIndex, SequenceNotAbsorbingError,
                      UnsupportedIdealError, WitnessCertificate, WitnessPlan,
                      build_and_verify, decompose, digit_choice, plan_witness,
                      verify_certificate)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
