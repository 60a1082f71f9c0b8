"""Certificate documents in the full format, which `WitnessCertificate.to_json`
wrote before a certificate held only its claims: the theorem, the plan and
`pass`, with the digits, index checks, support verdict and block checks that
follow from the plan between them, in that key order.  Such a document
decodes to its claims and its derived keys are never read; the tests that
show this write them with `full_document`."""

from thinset._exact_text import exact_str
from thinset.witness import _assemble_expansion, enclosure_report


def full_document(cert) -> dict:
    """The full document of a certificate, its derived keys from its plan."""
    claims = cert.to_json()
    checks, blocks, support = enclosure_report(cert.plan)
    digits = _assemble_expansion(cert.plan).digits
    return {
        "theorem": claims["theorem"],
        "plan": claims["plan"],
        "digits": {exact_str(n): exact_str(c) for n, c in sorted(digits.items())},
        "checks": [c.to_json() for c in checks],
        "support": support.to_json() if support is not None else None,
        "blocks": [b.to_json() for b in blocks],
        "pass": claims["pass"],
    }
