import itertools

import pytest

from crossed_desc import (
    CrossedDiagram,
    DomainError,
    validate_diagram,
    validate_diagram_morphism,
)
from crossed_desc.cosimplicial import CrossedMorphism
from crossed_desc.fixtures import cech_diagram, constant_diagram, fix_a_core, fix_c_core

from oracles import push_desc


def test_face_maps_match_the_descending_oracle(diag_cech, fat_a, fat_s3):
    """Cofaces composed ascending agree with the oracle's descending chain."""
    for D in (diag_cech, fat_a[0], fat_s3[0]):
        for q in range(1, 4):
            for p in range(q):
                level = D.levels[p]
                for seq in itertools.combinations(range(q + 1), p + 1):
                    F = D.face(seq, q)
                    assert D.face(seq, q) is F
                    assert F.source is level and F.target is D.levels[q]
                    for x in level.objects:
                        assert F.apply_obj(x) == push_desc(D, p, q, seq, x, "obj")
                    for m in level.g1.source:
                        assert F.apply_mor1(m) == push_desc(D, p, q, seq, m, "mor1")
                    for a in level.g2.owner:
                        assert F.apply_mor2(a) == push_desc(D, p, q, seq, a, "mor2")


def test_face_rejects_non_faces():
    D = constant_diagram(fix_c_core())
    for seq, q in (
        ((1, 0), 2),  # not increasing
        ((0, 3), 2),  # out of range
        ((), 2),  # empty
        ((0, 1, 2, 3, 4), 4),  # above the truncation dimension
        ((0, 1), 1),  # p == q skips no vertex
    ):
        with pytest.raises(DomainError):
            D.face(seq, q)


def test_pushforward_on_constant_diagram_is_identity():
    D = constant_diagram(fix_c_core())
    for seq, q in (((0,), 1), ((0, 2), 3), ((1, 2, 3), 3)):
        F = D.face(seq, q)
        assert F.apply_obj("*") == "*"
        assert F.apply_mor2("2.1") == "2.1"


def test_pushforward_reindexes_cech():
    D = cech_diagram(fix_a_core(), 2)
    # level-0 components live over cover indices (0,), (1,); level-1 tuples in
    # order are (0,0), (0,1), (1,0), (1,1).  The map of vertex (0,) keeps the
    # first index of each pair, so each pair reads the component of that index.
    assert D.face((0,), 1).apply_mor2("2.1|2.0") == "2.1|2.1|2.0|2.0"


def test_infer_kind_rejects_foreign_elements():
    D = constant_diagram(fix_c_core())
    for seq, q in (((0,), 1), ((0, 2), 3), ((1, 2, 3), 3)):
        F = D.face(seq, q)
        with pytest.raises(DomainError):
            F.apply_obj("ghost")
        with pytest.raises(DomainError):
            F.apply_mor1("ghost")
        with pytest.raises(DomainError):
            F.apply_mor2("ghost")


def test_cech_cover_of_one_is_constant():
    C = fix_a_core()
    D1 = cech_diagram(C, 1)
    Dc = constant_diagram(C)
    for p in range(4):
        assert set(D1.levels[p].g1.source) == set(Dc.levels[p].g1.source)
        assert set(D1.levels[p].g2.owner) == set(Dc.levels[p].g2.owner)
    for key, d in D1.cofaces.items():
        assert d.mor1_map == {m: m for m in D1.levels[key[0]].g1.source}


def test_validate_diagram_accepts_fixtures(diag_a, diag_c, diag_cech):
    for D in (diag_a, diag_c):
        assert validate_diagram(D).ok
    assert validate_diagram(diag_cech, bound=20_000).ok


def test_swapped_cofaces_break_cosimplicial_identities():
    D = cech_diagram(fix_a_core(), 2)
    cofaces = dict(D.cofaces)
    cofaces[(1, 0)], cofaces[(1, 1)] = cofaces[(1, 1)], cofaces[(1, 0)]
    broken = CrossedDiagram(D.levels, cofaces)
    report = validate_diagram(broken, bound=20_000)
    assert "cosimplicial-identity" in report.rules()


def test_corrupted_coface_reported():
    D = cech_diagram(fix_a_core(), 2)
    d = D.cofaces[(0, 0)]
    mor2 = dict(d.mor2_map)
    a = next(a for a in mor2 if a != D.levels[0].g2.identity("*"))
    mor2[a] = D.levels[1].g2.identity("*")
    cofaces = dict(D.cofaces)
    cofaces[(0, 0)] = CrossedMorphism(d.source, d.target, d.obj_map, d.mor1_map, mor2)
    broken = CrossedDiagram(D.levels, cofaces)
    report = validate_diagram(broken, bound=20_000)
    assert not report.ok


def test_diagram_morphism_naturality_checked(fat_a):
    fat, incl = fat_a
    assert validate_diagram_morphism(incl).ok
    # corrupt one level map entry
    F1 = incl.levels[1]
    mor2 = dict(F1.mor2_map)
    a = next(a for a in mor2 if a != "2.0")
    mor2[a] = "2.0@0"
    from crossed_desc.cosimplicial import DiagramMorphism

    broken_levels = list(incl.levels)
    broken_levels[1] = CrossedMorphism(
        F1.source, F1.target, F1.obj_map, F1.mor1_map, mor2
    )
    broken = DiagramMorphism(incl.source, incl.target, tuple(broken_levels))
    report = validate_diagram_morphism(broken)
    assert not report.ok
