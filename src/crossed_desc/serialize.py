"""JSON interchange for groupoids, crossed groupoids, diagrams, morphisms and
fixture specs.

Documents are wrapped in an envelope {"formatVersion": "crossed-desc/1",
"kind": ..., "payload": ...}.  All tables are fully explicit: composition is a
list of [after, before, result] triples (the "before first" convention), and
output is canonical, so serialization is byte-stable and round-trips exactly:
`_write` alone sorts every object's keys, and the converters sort every id
list, which the writer cannot.  The writers refuse (ResourceBoundError)
a group whose composition table would have more than the fixed
`DEFAULT_BOUND` of entries.  A table list that names one key twice (a
groupoid's `morphisms` or `compose`, a group's `compose`, a crossed
groupoid's `twist`) is rejected rather than letting the last entry win, and
so are a JSON object that names one key twice, a table of another JSON type
than the writer writes (a string for an array, an array of pairs for an
object), a coface key not spelled "p,k" as the writer spells it, and a
document nested too deeply for the JSON reader.

`dumps_canonical` writes a document byte for byte as `json.dumps(obj,
sort_keys=True, indent=2, ensure_ascii=False)` does, plus a newline, through
its own recursive writer: the standard encoder takes its pure-Python path
whenever it indents.

Loading keeps one object per distinct level and map within a document, as
the builders of constant diagrams, fattenings and identity morphisms do: a
crossed-groupoid payload `==` an earlier one reuses its `CrossedGroupoid`,
and a coface or level-map payload `==` an earlier one between the same two
level objects reuses its `CrossedMorphism`.  So a loaded constant diagram
has one level object and one coface object, an in-place edit of a loaded
level reaches every position that shares it, and `validate` checks each
distinct level and coface once.  Writing mirrors
this: each distinct level and map object of a diagram or diagram morphism
is converted once, every position that holds it shares the payload, and
`dumps_canonical` formats a shared payload once per `levels` array or
`cofaces` object and repeats its text (`_members`).  A diagram morphism
holds its source and target as explicit diagrams.

Reading decodes each distinct level and coface text of a document once
(`_decode`): a level, coface or level map whose text repeats an earlier one
reuses its decoded JSON.  The value is `json.loads`'s; on text that is not
JSON, `json.loads` itself is run to raise its error, and a text without
levels or cofaces (a groupoid, crossed groupoid or fixture spec) is read by
`json.loads` alone.  A map value that is a JSON array or object is rejected,
since an id is never a container.
"""

from __future__ import annotations

import json
from collections import Counter

from .crossed import CrossedGroupoid, CrossedMorphism, DisconnectedGroupoid, FiniteGroup
from .cosimplicial import CrossedDiagram, DiagramMorphism, _once_each
from .fixtures import FixtureSpec
from .groupoid import FiniteGroupoid
from .validation import DEFAULT_BOUND, LoadError, ResourceBoundError

FORMAT_VERSION = "crossed-desc/1"


_encode = json.encoder.encode_basestring

# The members written and read one by one, by key and depth; "repeats" marks
# the containers whose members may repeat an earlier one
_DIAGRAM = {"levels": "repeats", "cofaces": "repeats"}
_ENVELOPE = {"payload": {**_DIAGRAM, "source": _DIAGRAM, "target": _DIAGRAM}}


def _write(obj, indent: str, keys=None) -> str:
    """`obj` as `json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False)` writes it at nesting `indent`: strings through the
    C string encoder, and a list of strings, a list of string rows or a dict
    of string values each with one join; any other scalar through
    `json.dumps`.  The encoder raises TypeError on anything but a string, so
    each joined path gives way to the general one at its first other value.
    A member under a key of `keys` is written with the keys it maps to, and
    the members of a "repeats" container through `_members`."""
    if isinstance(obj, str):
        return _encode(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        names = sorted(obj)
        if keys == "repeats":
            texts = _members([obj[k] for k in names], inner)
            body = sep.join([f"{_encode(k)}: {text}" for k, text in zip(names, texts)])
        else:
            try:
                body = sep.join([f"{_encode(k)}: {_encode(obj[k])}" for k in names])
            except TypeError:
                body = sep.join([f"{_encode(k)}: {_write(obj[k], inner, keys and keys.get(k))}"
                                 for k in names])
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if keys == "repeats":
            body = sep.join(_members(obj, inner))
            return f"[\n{inner}{body}\n{indent}]"
        try:
            body = sep.join(map(_encode, obj))
        except TypeError:
            row_sep = sep + "  "
            try:
                body = sep.join([
                    f"[\n{inner}  {row_sep.join(map(_encode, v))}\n{inner}]"
                    if isinstance(v, (list, tuple)) and v else _write(v, inner)
                    for v in obj
                ])
            except TypeError:
                body = sep.join([_write(v, inner) for v in obj])
        return f"[\n{inner}{body}\n{indent}]"
    return json.dumps(obj)


def _members(values: list, indent: str):
    """The text of each of `values` at `indent`, written once per distinct
    object: a diagram holds one level or map object at several positions.
    The repeats are counted first, so a text is kept only for an object that
    recurs, and only until its last position."""
    left = Counter(map(id, values))
    kept = {}
    for value in values:
        key = id(value)
        left[key] -= 1
        text = kept.pop(key) if key in kept else _write(value, indent)
        if left[key]:
            kept[key] = text
        yield text


def dumps_canonical(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"`,
    byte for byte, for JSON values with string keys (`_write`).  In an
    envelope, each distinct level and map object of a diagram's `levels` and
    `cofaces` and of a diagram morphism's `levels` is formatted once."""
    return _write(obj, "", _ENVELOPE) + "\n"


def envelope(kind: str, payload) -> dict:
    if kind not in KINDS:
        raise LoadError(f"unknown document kind {kind!r}")
    return {"formatVersion": FORMAT_VERSION, "kind": kind, "payload": payload}


# -- groupoids ----------------------------------------------------------


def groupoid_to_json(G: FiniteGroupoid) -> dict:
    return {
        "objects": sorted(G.objects),
        "morphisms": [
            {"id": m, "source": G.source[m], "target": G.target[m]}
            for m in sorted(G.source)
        ],
        "identities": dict(G.identities),
        "compose": sorted([a, b, r] for (a, b), r in G.table.items()),
        "inverses": dict(G.inverses),
    }


_JSON_TYPES = {list: "array", dict: "object"}


def _require(d, key, kind, json_type=None):
    """d[key]; given `json_type` (list or dict), only a value of that JSON
    type, as the writer writes it: a string is not read as its characters,
    nor an array of pairs as an object."""
    try:
        value = d[key]
    except (KeyError, TypeError):
        raise LoadError(f"{kind} payload is missing {key!r}") from None
    if json_type is not None and not isinstance(value, json_type):
        raise LoadError(f"{kind} payload {key!r} is not a JSON {_JSON_TYPES[json_type]}")
    return value


def _rows(d, key, kind) -> list:
    """The table d[key]: an array whose rows are arrays."""
    rows = _require(d, key, kind, list)
    if {*map(type, rows)} - {list}:
        raise LoadError(f"{kind} payload {key!r} has a row that is not a JSON array")
    return rows


def _one_row_per_key(table: dict, rows, kind: str, key: str) -> dict:
    """`table`, just built from the list `rows`, unless two rows named one
    key and the later one silently replaced the earlier."""
    if len(table) != len(rows):
        raise LoadError(f"{kind} payload names one key twice in {key!r}")
    return table


def groupoid_from_json(d: dict) -> FiniteGroupoid:
    morphisms = _require(d, "morphisms", "groupoid", list)
    objects = tuple(_require(d, "objects", "groupoid", list))
    source = {m["id"]: m["source"] for m in morphisms}
    target = {m["id"]: m["target"] for m in morphisms}
    _one_row_per_key(source, morphisms, "groupoid", "morphisms")
    identities = _require(d, "identities", "groupoid", dict)
    compose = _rows(d, "compose", "groupoid")
    table = _one_row_per_key({(a, b): r for a, b, r in compose}, compose, "groupoid", "compose")
    inverses = _require(d, "inverses", "groupoid", dict)
    return FiniteGroupoid(objects, source, target, identities, table, inverses)


# -- groups and crossed groupoids ---------------------------------------


def group_to_json(grp: FiniteGroup) -> dict:
    n = len(grp)
    if n * n > DEFAULT_BOUND:
        raise ResourceBoundError(
            f"group of order {n} needs {n * n} composition entries, over the bound"
        )
    return {
        "elements": sorted(grp.elements),
        "identity": grp.identity,
        "compose": sorted([a, b, grp.mul(a, b)] for a in grp for b in grp),
        "inverses": {a: grp.inv(a) for a in grp},
    }


def group_from_json(d: dict) -> FiniteGroup:
    elements = tuple(_require(d, "elements", "group", list))
    compose = _rows(d, "compose", "group")
    return FiniteGroup.from_table(
        elements,
        _one_row_per_key({(a, b): r for a, b, r in compose}, compose, "group", "compose"),
        _require(d, "identity", "group"),
        _require(d, "inverses", "group", dict),
    )


def crossed_to_json(C: CrossedGroupoid) -> dict:
    return {
        "g1": groupoid_to_json(C.g1),
        "g2": {x: group_to_json(C.g2.group(x)) for x in sorted(C.g2.groups)},
        "twist": sorted([g, a, r] for (g, a), r in C.twist_table.items()),
        "feedback": dict(C.feedback_table),
    }


def crossed_from_json(d: dict) -> CrossedGroupoid:
    g2 = DisconnectedGroupoid(
        {x: group_from_json(gd) for x, gd in _require(d, "g2", "crossed", dict).items()}
    )
    g1 = groupoid_from_json(_require(d, "g1", "crossed"))
    twist = _rows(d, "twist", "crossed")
    return CrossedGroupoid(
        g1,
        g2,
        _one_row_per_key({(g, a): r for g, a, r in twist}, twist, "crossed", "twist"),
        _require(d, "feedback", "crossed", dict),
    )


# -- diagrams and their morphisms ---------------------------------------


def _maps_to_json(F: CrossedMorphism) -> dict:
    return {
        "objects": dict(F.obj_map),
        "mor1": dict(F.mor1_map),
        "mor2": dict(F.mor2_map),
    }


def _maps_from_json(
    d: dict, source: CrossedGroupoid, target: CrossedGroupoid, what: str
) -> CrossedMorphism:
    maps = (_id_map(d, key, what) for key in ("objects", "mor1", "mor2"))
    return CrossedMorphism(source, target, *maps)


def _id_map(d, key, what) -> dict:
    """The JSON object d[key], unless a value is a JSON array or object: an
    image is an id, and a container is no key of any table."""
    m = _require(d, key, what, dict)
    if not {list, dict}.isdisjoint(map(type, m.values())):
        k, v = next((k, v) for k, v in m.items() if type(v) in _JSON_TYPES)
        raise LoadError(f"{what} payload {key!r} maps {k!r} to a JSON {_JSON_TYPES[type(v)]}")
    return m


def diagram_to_json(D: CrossedDiagram, memo: dict | None = None) -> dict:
    """D's payload, written once per distinct level and coface object: the
    positions that hold one object share one payload dict, which
    `dumps_canonical` then formats once, so copy the payload before editing
    one position in place.  `memo` is `_once_each`'s, shared with the
    caller's other writes."""
    memo = {} if memo is None else memo
    levels = list(_once_each(crossed_to_json, D.levels, memo))
    keys = sorted(D.cofaces)
    cofaces = _once_each(_maps_to_json, [D.cofaces[key] for key in keys], memo)
    return {
        "levels": levels,
        "cofaces": {f"{p},{k}": maps for (p, k), maps in zip(keys, cofaces)},
    }


def _once(memo: dict, payload, ends: tuple, build):
    """`build()`, unless a payload `==` to `payload` between the same `ends`
    (level objects) was built earlier in the document: then that object.
    `memo` maps the ends' ids to the (payload, object) pairs built so far."""
    built = memo.setdefault(tuple(map(id, ends)), [])
    for earlier, obj in built:
        if earlier == payload:
            return obj
    built.append((payload, build()))
    return built[-1][1]


def diagram_from_json(d: dict) -> CrossedDiagram:
    return _diagram_from_json(d, {})


def _diagram_from_json(d: dict, memo: dict) -> CrossedDiagram:
    levels = tuple(
        _once(memo, ld, (), lambda: crossed_from_json(ld))
        for ld in _require(d, "levels", "diagram", list)
    )
    if len(levels) != 4:
        raise LoadError("a diagram document needs exactly four levels")
    cofaces = {}
    for key, maps in _require(d, "cofaces", "diagram", dict).items():
        # only the writer's spelling: int() would also read " 0", "+0" and
        # "0_0", and two spellings of one key would silently replace each other
        try:
            p, k = map(int, key.split(","))
        except ValueError:
            p = k = None
        if key != f"{p},{k}":
            raise LoadError(f"bad coface key {key!r}; expected 'p,k'")
        ends = levels[p], levels[p + 1]
        cofaces[(p, k)] = _once(
            memo, maps, ends, lambda: _maps_from_json(maps, *ends, "coface")
        )
    return CrossedDiagram(levels, cofaces)


def diagram_morphism_to_json(F: DiagramMorphism) -> dict:
    memo: dict = {}
    return {
        "source": diagram_to_json(F.source, memo),
        "target": diagram_to_json(F.target, memo),
        "levels": list(_once_each(_maps_to_json, F.levels, memo)),
    }


def diagram_morphism_from_json(d: dict) -> DiagramMorphism:
    memo: dict = {}
    source = _diagram_from_json(_require(d, "source", "diagram-morphism"), memo)
    target = _diagram_from_json(_require(d, "target", "diagram-morphism"), memo)
    maps = _require(d, "levels", "diagram-morphism", list)
    if len(maps) != 4:
        raise LoadError("a diagram-morphism document needs exactly four level maps")
    levels = []
    for p in range(4):
        ends = source.levels[p], target.levels[p]
        levels.append(_once(
            memo, maps[p], ends, lambda: _maps_from_json(maps[p], *ends, "level map")
        ))
    return DiagramMorphism(source, target, tuple(levels))


# -- fixture specs ------------------------------------------------------


def fixture_spec_to_json(spec: FixtureSpec) -> dict:
    return {"kind": spec.kind, "params": spec.params}


def fixture_spec_from_json(d: dict) -> FixtureSpec:
    kind, params = _require(d, "kind", "fixture-spec"), d.get("params", {})
    if not isinstance(params, dict):
        raise LoadError("fixture-spec payload 'params' is not a JSON object")
    return FixtureSpec(kind, params)


# -- documents ----------------------------------------------------------

_PARSERS = {
    "groupoid": groupoid_from_json,
    "crossed": crossed_from_json,
    "diagram": diagram_from_json,
    "diagram-morphism": diagram_morphism_from_json,
    "fixture-spec": fixture_spec_from_json,
}

_WRITERS = {
    "groupoid": groupoid_to_json,
    "crossed": crossed_to_json,
    "diagram": diagram_to_json,
    "diagram-morphism": diagram_morphism_to_json,
    "fixture-spec": fixture_spec_to_json,
}
KINDS = tuple(_WRITERS)


def _object(pairs: list) -> dict:
    """A JSON object as a dict, unless it names one key twice (then the last
    value would silently win)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise LoadError(f"JSON object names key {key!r} twice")
            seen.add(key)
    return obj


_scan_once = json.JSONDecoder(object_pairs_hook=_object).scan_once
_skip_space = json.decoder.WHITESPACE.match

# The most level and map members a valid document holds: a diagram
# morphism's two diagrams (four levels and nine cofaces each) and four level
# maps
_MOST_MEMBERS = 2 * (4 + 9) + 4


class _NotJSON(ValueError):
    """The reader met text that is not JSON; `json.loads` says why."""


def _decode(text: str):
    """`json.loads(text, object_pairs_hook=_object)`'s value.  Each element
    of a `levels` array and value of a `cofaces` object whose text begins
    with the text of such a container decoded earlier in the document is
    that earlier value: a container ends at its matching bracket, so it
    decodes alike wherever it stands.  A number is not self-delimiting and
    is never reused; text that differs, if only in whitespace, is decoded in
    full.  Every other value is one call of the C scanner.  On text that is
    not JSON, `json.loads` itself raises, in the running Python's words.
    A text that spells neither key goes to `json.loads` whole: reuse never
    changes a value, and such a text has nothing to reuse."""
    if '"cofaces"' not in text and '"levels"' not in text:
        return json.loads(text, object_pairs_hook=_object)
    try:
        doc, end = _read(text, _skip_space(text).end(), _ENVELOPE, [])
        if _skip_space(text, end).end() == len(text):
            return doc
    except ValueError:  # json.JSONDecodeError is one
        pass
    json.loads(text, object_pairs_hook=_object)
    raise AssertionError("json.loads accepts a text the reader rejects")


def _scan(text: str, i: int):
    """The JSON value at text[i] and its end, in one call of the C scanner."""
    try:
        return _scan_once(text, i)
    except StopIteration:
        raise _NotJSON from None


def _read(text: str, i: int, keys, decoded: list):
    """The JSON value at text[i] and its end.  An object (any container if
    `keys` is "repeats") is read as the C scanner reads it, but each member
    under a key of `keys` through `_read` with the keys it maps to, and each
    member of a "repeats" container through `_repeated`."""
    is_object = text.startswith("{", i)
    if not (is_object or keys == "repeats" and text.startswith("[", i)):
        return _scan(text, i)
    close, items, key = "}" if is_object else "]", [], None
    i = _skip_space(text, i + 1).end()
    empty = text.startswith(close, i)
    while not empty:  # ends at the closing bracket: a comma needs a member
        if is_object:
            if not text.startswith('"', i):
                raise _NotJSON
            key, i = json.decoder.scanstring(text, i + 1)
            i = _skip_space(text, i).end()
            if not text.startswith(":", i):
                raise _NotJSON
            i = _skip_space(text, i + 1).end()
        if keys == "repeats":
            value, i = _repeated(text, i, decoded)
        elif key in keys:
            value, i = _read(text, i, keys[key], decoded)
        else:
            value, i = _scan(text, i)
        items.append((key, value) if is_object else value)
        i = _skip_space(text, i).end()
        if text.startswith(close, i):
            break
        if not text.startswith(",", i):
            raise _NotJSON
        i = _skip_space(text, i + 1).end()
    return (_object(items) if is_object else items), i + 1


def _repeated(text: str, i: int, decoded: list):
    """The value at text[i] and its end: a container in `decoded` (pairs of
    text and value, in document order) whose text starts there, else the
    scanner's value, added to `decoded` if it is a container.  Once
    `decoded` holds as many texts as a valid document has members, the
    document is invalid, and the rest is scanned without a search."""
    if len(decoded) >= _MOST_MEMBERS:
        return _scan(text, i)
    for earlier, value in decoded:
        if text.startswith(earlier, i):
            return value, i + len(earlier)
    value, end = _scan(text, i)
    if isinstance(value, (dict, list)):
        decoded.append((text[i:end], value))
    return value, end


def parse_document(text: str) -> tuple[str, object]:
    """Parse an envelope; returns (kind, structure).

    json.JSONDecodeError propagates for syntactically invalid input; malformed
    envelopes or payloads, an object that names one key twice, and nesting
    too deep for the JSON reader, raise LoadError.
    """
    try:
        doc = _decode(text)
    except RecursionError:
        raise LoadError("document nests too deeply") from None
    if not isinstance(doc, dict):
        raise LoadError("document is not a JSON object")
    if doc.get("formatVersion") != FORMAT_VERSION:
        raise LoadError(f"unrecognized format version {doc.get('formatVersion')!r}")
    kind = doc.get("kind")
    if kind not in _PARSERS:
        raise LoadError(f"unknown document kind {kind!r}")
    payload = doc.get("payload")
    if payload is None:
        raise LoadError("document has no payload")
    try:
        return kind, _PARSERS[kind](payload)
    except (TypeError, AttributeError, KeyError, IndexError, ValueError) as exc:
        raise LoadError(f"malformed {kind} payload: {exc}") from None


def serialize_document(kind: str, structure) -> str:
    """The canonical document of `structure`; raises ResourceBoundError when
    a group's composition table would exceed `DEFAULT_BOUND` entries."""
    if kind not in _WRITERS:
        raise LoadError(f"unknown document kind {kind!r}")
    return dumps_canonical(envelope(kind, _WRITERS[kind](structure)))
