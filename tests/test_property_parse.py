"""Property test: the front door's orjson parse equals the stdlib-json oracle.

``ServingApp._parse_scoring_request`` parses with orjson and falls back
to :func:`json.loads` for bodies orjson rejects.  Over generated request
bodies it must give what :func:`oracles.parse_scoring_request` (json
only) gives: the same pipeline and bit-identical ``values``/``grid``, or
the same exception with the same message.  The bodies mix shortest-repr
doubles (subnormals and -0.0 included), long decimals that are not in
shortest form, exact midpoints between adjacent doubles, integers wider
than 64 bits, the non-standard ``NaN``/``Infinity`` literals, ``1e400``,
lone-surrogate escapes, invalid UTF-8, truncated bodies and non-object
roots.
"""

import json
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from repro.core.pipeline import GeometricOutlierPipeline
from repro.data.synthetic import make_taxonomy_dataset
from repro.detectors import make_detector
from repro.serving import ScoringService
from repro.serving.app import ServingApp


@pytest.fixture(scope="module")
def app():
    data, _ = make_taxonomy_dataset(
        "correlation", n_inliers=20, n_outliers=2, random_state=0
    )
    pipeline = GeometricOutlierPipeline(
        make_detector("iforest", random_state=0, n_estimators=5), n_basis=8
    ).fit(data)
    service = ScoringService()
    service.register("main", pipeline)
    return ServingApp(service)


shortest = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def long_decimals(draw):
    digits = draw(st.text("0123456789", min_size=1, max_size=40)).lstrip("0") or "0"
    mantissa = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
    sign = draw(st.sampled_from(["", "-"]))
    return f"{sign}{mantissa}e{draw(st.integers(-340, 300))}"


@st.composite
def halfway(draw):
    """The exact decimal midway between a double and its successor."""
    low = draw(st.floats(min_value=0.0, max_value=1e308, allow_nan=False))
    with localcontext() as ctx:
        ctx.prec = 1200
        mid = (Decimal(low) + Decimal(float(np.nextafter(low, np.inf)))) / 2
    return str(mid)


wide_integers = st.one_of(
    st.integers(-(2**300), 2**300),
    st.sampled_from([2**64, -(2**63) - 1, 2**1024 - 2**970 - 1, 2**1024 - 2**970]),
).map(str)
standard = st.one_of(shortest, long_decimals(), halfway(), wide_integers)
#: Accepted by the stdlib parser only (or by neither, for ``1e400`` ints).
nonstandard = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400])
keys = st.sampled_from(
    ['"main"', '"nope"', '""', "1", "null", '"\\ud800"', '"m\\u00e9"', None]
)


def _array(draw, shape):
    count = int(np.prod(shape))
    literals = draw(st.lists(standard, min_size=count, max_size=count))
    if draw(st.booleans()):
        literals[draw(st.integers(0, count - 1))] = draw(nonstandard)
    nested = np.array(literals, dtype=object).reshape(shape).tolist()
    return json.dumps(nested).replace('"', "")


@st.composite
def bodies(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    shape = (n, m) if draw(st.booleans()) else (n, m, draw(st.integers(1, 2)))
    if draw(st.booleans()):
        grid = json.dumps(np.linspace(0.0, 1.0, m).tolist())
    else:
        grid = _array(draw, (m,))
    fields = {"pipeline": draw(keys), "values": _array(draw, shape), "grid": grid}
    for name in draw(st.sets(st.sampled_from(["values", "grid"]), max_size=1)):
        fields[name] = None
    body = ("{" + ", ".join(
        f'"{name}": {text}' for name, text in fields.items() if text is not None
    ) + "}").encode("utf-8")
    damage = draw(st.sampled_from(
        ["none"] * 6 + ["truncate", "bad_utf8", "array_root", "scalar_root"]
    ))
    if damage == "truncate":
        body = body[:draw(st.integers(0, len(body) - 1))]
    elif damage == "bad_utf8":
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + body[at:]
    elif damage == "array_root":
        body = b"[" + body + b"]"
    elif damage == "scalar_root":
        body = b"42"
    return body


def _outcome(parse, body):
    try:
        name, mfd = parse(body)
    except Exception as exc:  # the exception itself is the outcome
        return ("raised", type(exc), str(exc))
    return (
        "parsed", name, mfd.values.shape,
        mfd.values.view(np.int64).tolist(), mfd.grid.view(np.int64).tolist(),
    )


NAN_BODY = json.dumps({
    "pipeline": "main", "values": [[float("nan"), 1.0]], "grid": [0.0, 1.0],
}).encode()


@settings(max_examples=300, deadline=None)
@given(body=bodies())
@example(body=NAN_BODY)
@example(body=b'{"pipeline": "main", "values": [[1e400, 0.5]], "grid": [0, 1]}')
@example(body=b'{"pipeline": "main", "values": [[-0.0, 5e-324]], "grid": [0, 1]}')
@example(body=b'{"pipeline": "\\udc00", "values": [[1, 2]], "grid": [0, 1]}')
def test_parse_matches_json_oracle(app, body):
    expected = _outcome(lambda b: oracles.parse_scoring_request(b, app.resolve), body)
    assert _outcome(app._parse_scoring_request, body) == expected
