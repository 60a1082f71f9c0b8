"""Single-field mutations of JSON documents, shared by the fuzz tests."""

import json

# malformed and borderline values, and texts longer than any int-to-string
# digit limit: a small number written with 700 digits, and a huge negative
# one, which every count or size field must refuse.  A huge positive size
# (a truncation depth, a term base) is a request for that much work, which
# is not what these tests are about.
VALUES = [None, 0, 1, -1, 2, 7, "0", "1", "-1", "7", "1/2", "1/0", "x", "",
          1.5, True, [], {}, ["0", "1"], "0" * 699 + "7", "-" + "9" * 700]
DELETE = object()


def json_paths(doc, prefix=()):
    """The path of every node below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def mutate(doc, path, value):
    """A copy of doc with the node at path replaced by value, or deleted."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return doc
