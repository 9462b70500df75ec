import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from crossed_desc import (
    ComposabilityError,
    DomainError,
    FiniteGroupoid,
    LoadError,
    fatten,
    pi0_groupoid,
    validate_groupoid,
)
from crossed_desc.fixtures import NAMED_CROSSED, cyclic_group, symmetric_group
from crossed_desc.fixtures import one_object_groupoid
from crossed_desc.groupoid import _generators
from builders import disjoint_union_groupoid, loop5
from oracles import brute_groupoid_violations


@pytest.fixture(scope="module")
def s3_groupoid():
    return one_object_groupoid(symmetric_group(3))


def two_component_groupoid():
    """Z/2 at object u, trivial at object v; no cross morphisms."""
    return FiniteGroupoid(
        objects=("u", "v"),
        source={"e": "u", "t": "u", "ev": "v"},
        target={"e": "u", "t": "u", "ev": "v"},
        identities={"u": "e", "v": "ev"},
        table={
            ("e", "e"): "e",
            ("e", "t"): "t",
            ("t", "e"): "t",
            ("t", "t"): "e",
            ("ev", "ev"): "ev",
        },
        inverses={"e": "e", "t": "t", "ev": "ev"},
    )


def test_valid_groupoids_pass(s3_groupoid):
    assert validate_groupoid(s3_groupoid).ok
    assert validate_groupoid(two_component_groupoid()).ok


def test_accessors(s3_groupoid):
    G = s3_groupoid
    assert G.src("012") == "*" and G.dst("012") == "*"
    assert G.identity("*") == "012"
    assert G.compose("120", "201") == "012"  # mutually inverse 3-cycles
    assert G.inverse("120") == "201"
    assert sorted(G.hom("*", "*")) == sorted(G.morphisms)


def test_unknown_ids_raise(s3_groupoid):
    G = s3_groupoid
    with pytest.raises(DomainError):
        G.identity("missing")
    with pytest.raises(DomainError):
        G.inverse("missing")
    with pytest.raises(DomainError):
        G.compose("012", "missing")


def test_structurally_broken_table_rejected():
    with pytest.raises(LoadError):
        FiniteGroupoid(
            objects=("u",),
            source={"e": "u"},
            target={"e": "u"},
            identities={"u": "e"},
            table={("e", "e"): "ghost"},  # result id does not resolve
            inverses={"e": "e"},
        )


@pytest.mark.parametrize(
    "mutate, rule",
    [
        (lambda t: t.__setitem__(("120", "120"), "120"), "associativity"),
        (lambda t: t.__setitem__(("012", "120"), "201"), "unit-law"),
        (lambda t: t.__setitem__(("120", "201"), "120"), "inverse-law"),
    ],
)
def test_corrupted_entries_are_reported(mutate, rule):
    G = one_object_groupoid(symmetric_group(3))
    table = dict(G.table)
    mutate(table)
    broken = FiniteGroupoid(
        G.objects, G.source, G.target, G.identities, table, G.inverses
    )
    report = validate_groupoid(broken)
    assert not report.ok
    assert rule in report.rules()


def test_corrupted_inverse_reported():
    G = one_object_groupoid(cyclic_group(4))
    inverses = dict(G.inverses)
    inverses["1"] = "1"
    report = validate_groupoid(
        FiniteGroupoid(G.objects, G.source, G.target, G.identities, G.table, inverses)
    )
    assert "inverse-law" in report.rules()


def test_index_lists_morphisms_by_endpoints():
    G = fatten(NAMED_CROSSED["inner-z3"](), 2)[0].g1
    for x in G.objects:
        assert G.out_of(x) == tuple(m for m in G.morphisms if G.src(m) == x)
        assert G.into(x) == tuple(m for m in G.morphisms if G.dst(m) == x)
        for y in G.objects:
            assert G.hom(x, y) == tuple(m for m in G.out_of(x) if G.dst(m) == y)
    assert G.morphisms == tuple(sorted(G.source))
    with pytest.raises(DomainError):
        G.out_of("missing")


# Multi-object groupoids: a validator that visits the wrong pairs or triples
# only shows on groupoids with non-composable pairs.
ORACLE_GROUPOIDS = {
    "two-component": two_component_groupoid(),
    "fat-s3-a3": fatten(NAMED_CROSSED["s3-a3"](), 2)[0].g1,
    "fat-inner-z3": fatten(NAMED_CROSSED["inner-z3"](), 3)[0].g1,
}


def _corrupt(G, edits):
    """Apply (kind, i, j) edits to copies of G's composition and inverse tables."""
    table, inverses = dict(G.table), dict(G.inverses)
    morphs = sorted(G.source)
    for kind, i, j in edits:
        keys = sorted(table)
        if kind == "drop-entry":
            del table[keys[i % len(keys)]]
        elif kind == "add-non-composable":
            pairs = [(h, g) for h in morphs for g in morphs if G.target[g] != G.source[h]]
            if pairs:
                table[pairs[i % len(pairs)]] = morphs[j % len(morphs)]
        elif kind == "retarget-entry":
            h, g = keys[i % len(keys)]
            wrong = [r for r in morphs
                     if (G.source[r], G.target[r]) != (G.source[g], G.target[h])]
            if wrong:
                table[(h, g)] = wrong[j % len(wrong)]
        elif kind == "swap-results":
            # entries that involve no identity and give none: every endpoint,
            # unit and inverse stays right, so only associativity can break
            units = set(G.identities.values())
            plain = [k for k in keys if units.isdisjoint((*k, table[k]))]
            if plain:
                k1 = plain[i % len(plain)]
                r1 = table[k1]
                ends = (G.source[r1], G.target[r1])
                others = [k for k in plain
                          if table[k] != r1 and (G.source[table[k]], G.target[table[k]]) == ends]
                if others:
                    k2 = others[j % len(others)]
                    table[k1], table[k2] = table[k2], r1
        else:  # break-inverse
            m = morphs[i % len(morphs)]
            others = [r for r in morphs if r != inverses[m]]
            if others:
                inverses[m] = others[j % len(others)]
    return FiniteGroupoid(G.objects, G.source, G.target, G.identities, table, inverses)


@given(
    st.sampled_from(sorted(ORACLE_GROUPOIDS)),
    st.lists(
        st.tuples(
            st.sampled_from(["drop-entry", "add-non-composable", "retarget-entry",
                             "break-inverse", "swap-results"]),
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_indexed_validator_matches_all_pairs_oracle(name, edits):
    broken = _corrupt(ORACLE_GROUPOIDS[name], edits)
    report = validate_groupoid(broken)
    assert [(v.rule, v.detail) for v in report] == brute_groupoid_violations(broken)


@pytest.mark.parametrize("G", [
    loop5(),
    disjoint_union_groupoid(two_component_groupoid(), loop5(),
                            fatten(NAMED_CROSSED["inner-z3"](), 2)[0].g1),
], ids=["loop", "loop-in-a-union"])
def test_associativity_only_failure_is_walked_in_full(G):
    """Units and inverses hold, so only the generator check can find the
    failure; the report must still name every violated triple."""
    report = validate_groupoid(G)
    assert report.rules() == {"associativity"}
    assert [(v.rule, v.detail) for v in report] == brute_groupoid_violations(G)


def _closure(G, gens):
    """Everything the composition table reaches from gens, in any bracketing."""
    reached = set(gens)
    while True:
        new = {G.table[(h, g)] for h in reached for g in reached
               if (h, g) in G.table} - reached
        if not new:
            return reached
        reached |= new


GENERATED_GROUPOIDS = {
    **{f"fat-{name}-{n}": fatten(NAMED_CROSSED[name](), n)[0].g1
       for name in sorted(NAMED_CROSSED) for n in (1, 2, 3)},
    "two-component": two_component_groupoid(),
    "loop": loop5(),
}


@pytest.mark.parametrize("name", sorted(GENERATED_GROUPOIDS))
def test_generators_reach_every_morphism(name):
    G = GENERATED_GROUPOIDS[name]
    gens = _generators(G)
    assert _closure(G, gens) == set(G.morphisms)
    # the scan over the sorted ids: each generator is the least id that the
    # ones before it do not reach (on associative tables, where any
    # bracketing reaches the same morphisms)
    if validate_groupoid(G).ok:
        for i, m in enumerate(gens):
            before = _closure(G, gens[:i])
            assert m == min(set(G.morphisms) - before)
    # the same tables listed in another order give the same generators
    shuffled = FiniteGroupoid(
        tuple(reversed(G.objects)),
        dict(reversed(G.source.items())),
        dict(reversed(G.target.items())),
        dict(reversed(G.identities.items())),
        dict(reversed(G.table.items())),
        dict(reversed(G.inverses.items())),
    )
    assert _generators(shuffled) == gens


def test_generators_do_not_depend_on_the_hash_seed():
    tests = Path(__file__).resolve().parent
    # the caller's entries follow, as in `PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}`
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    script = (
        "import json\n"
        "from crossed_desc.groupoid import _generators\n"
        "from test_groupoid import GENERATED_GROUPOIDS as G\n"
        "print(json.dumps({k: _generators(g) for k, g in sorted(G.items())}))\n"
    )
    want = {k: list(_generators(g)) for k, g in sorted(GENERATED_GROUPOIDS.items())}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert json.loads(run.stdout) == want


def test_compose_all_right_to_left(s3_groupoid):
    G = s3_groupoid
    # the last argument applies first, matching compose(after, before)
    assert G.compose_all("120", "102") == G.compose("120", "102")
    assert G.compose_all("120", "102", "021") == G.compose("120", G.compose("102", "021"))
    assert G.compose_all(G.inverse("120")) == "201"


@given(st.lists(st.sampled_from(sorted(symmetric_group(3).elements)), min_size=1, max_size=5),
       st.sampled_from(sorted(symmetric_group(3).elements)),
       st.integers(min_value=0, max_value=5))
def test_compose_all_splice_invariance(ms, extra, pos):
    """Splicing m . m^-1 anywhere into a composite never changes its value."""
    G = one_object_groupoid(symmetric_group(3))
    pos = min(pos, len(ms))
    spliced = ms[:pos] + [extra, G.inverse(extra)] + ms[pos:]
    assert G.compose_all(*spliced) == G.compose_all(*ms)


def test_compose_all_inverses_are_looked_up_first():
    """Inverses are arguments, so an unknown id among them raises before a
    non-composable pair does, even one that the fold composes first."""
    G = two_component_groupoid()
    with pytest.raises(ComposabilityError):
        G.compose_all(G.inverse("e"), "t", "ev")
    with pytest.raises(DomainError, match="unknown morphism 'x'") as excinfo:
        G.compose_all(G.inverse("x"), "t", "ev")
    assert excinfo.type is DomainError


def test_pi0_components():
    G = two_component_groupoid()
    labels = pi0_groupoid(G)
    assert labels["u"] != labels["v"]
    assert set(labels) == {"u", "v"}


def test_pi0_one_component(s3_groupoid):
    assert len(set(pi0_groupoid(s3_groupoid).values())) == 1
