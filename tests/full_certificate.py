"""Certificate documents in the full format, which `WitnessCertificate.to_json`
wrote before a certificate held only its claims: the theorem, the plan and
`pass`, with the digits, index checks, support verdict and block checks that
follow from the plan between them, in that key order.  The derived keys come
from the reference walk (`enclosure_reference`).  Such a document decodes
to its claims and its derived keys are never read; the tests that show this
write them with `full_document`."""

from enclosure_reference import block_checks, index_check_document, index_heads
from thinset._exact_text import exact_str
from thinset.convergence import membership_by_support
from thinset.witness import _assemble_expansion


def full_document(cert) -> dict:
    """The full document of a certificate, its derived keys from its plan."""
    claims, plan = cert.to_json(), cert.plan
    point = _assemble_expansion(plan)
    base = plan.seq.geometric_base if plan.tag == "th2" else None
    return {
        "theorem": claims["theorem"],
        "plan": claims["plan"],
        "digits": {exact_str(n): exact_str(c) for n, c in sorted(point.digits.items())},
        "checks": [index_check_document(p.i, p.n, head, p.v, P, base)
                   for p, head, P in index_heads(plan)],
        "support": (None if plan.tag == "th2" else
                    membership_by_support(point, plan.ideal).to_json()),
        "blocks": [b.to_json() for b in block_checks(plan)] if plan.tag != "th6" else [],
        "pass": claims["pass"],
    }
