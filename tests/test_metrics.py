import random

import pytest

from bifocal.metrics import (
    DECILE_PERCENTS,
    ConfusionMatrix,
    confusion_matrix,
    decile_curve,
    macro_prf,
    prf,
    write_curve_tsv,
)
from references import brute_force_prf


def test_prf_perfect():
    cm = ConfusionMatrix(("a", "b"), ((5, 0), (0, 5)))
    assert prf(cm, "a") == (1.0, 1.0, 1.0)
    assert prf(cm, "b") == (1.0, 1.0, 1.0)


def test_prf_hand_arithmetic():
    cm = ConfusionMatrix(("a", "b"), ((3, 1), (2, 4)))
    p, r, f1 = prf(cm, "a")
    assert p == pytest.approx(3 / 5)
    assert r == pytest.approx(3 / 4)
    assert f1 == pytest.approx(2 * 0.6 * 0.75 / 1.35)


def test_prf_absent_label_is_zero():
    cm = ConfusionMatrix(("a", "b", "c"), ((3, 0, 0), (0, 4, 0), (0, 0, 0)))
    assert prf(cm, "c") == (0.0, 0.0, 0.0)


def test_macro_hand_arithmetic():
    cm = ConfusionMatrix(("a", "b"), ((3, 1), (2, 4)))
    pa, ra, fa = 3 / 5, 3 / 4, 2 * (3 / 5) * (3 / 4) / (3 / 5 + 3 / 4)
    pb, rb, fb = 4 / 5, 4 / 6, 2 * (4 / 5) * (4 / 6) / (4 / 5 + 4 / 6)
    macro = macro_prf(cm)
    assert macro[0] == pytest.approx((pa + pb) / 2)
    assert macro[1] == pytest.approx((ra + rb) / 2)
    assert macro[2] == pytest.approx((fa + fb) / 2)


def _random_cm(rng, max_labels=6):
    n = rng.randint(2, max_labels)
    labels = tuple(f"l{i}" for i in range(n))
    counts = tuple(tuple(rng.randint(0, 20) for _ in range(n)) for _ in range(n))
    return ConfusionMatrix(labels, counts)


def test_macro_matches_brute_force_on_random_matrices():
    rng = random.Random(123)
    for _ in range(50):
        cm = _random_cm(rng)
        rows = [brute_force_prf(cm.counts, list(cm.labels), lab) for lab in cm.labels]
        expected = tuple(sum(r[i] for r in rows) / len(rows) for i in range(3))
        got = macro_prf(cm)
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-12


def test_macro_f1_is_mean_of_f1_not_f1_of_means():
    rng = random.Random(5)
    found_difference = False
    for _ in range(50):
        cm = _random_cm(rng, max_labels=4)
        macro_p, macro_r, macro_f1 = macro_prf(cm)
        mean_of_f1 = sum(prf(cm, lab)[2] for lab in cm.labels) / len(cm.labels)
        f1_of_means = (
            2 * macro_p * macro_r / (macro_p + macro_r) if macro_p + macro_r else 0.0
        )
        assert macro_f1 == pytest.approx(mean_of_f1, abs=1e-12)
        if abs(mean_of_f1 - f1_of_means) > 1e-9:
            found_difference = True
    assert found_difference  # the two definitions genuinely differ


def test_f1_bounded_by_components():
    rng = random.Random(88)
    for _ in range(60):
        cm = _random_cm(rng)
        for label in cm.labels:
            p, r, f1 = prf(cm, label)
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
            assert f1 <= max(p, r) + 1e-12
            if p == 0.0 or r == 0.0:
                assert f1 == 0.0


def test_confusion_matrix_builder():
    cm = confusion_matrix(["a", "a", "b"], ["a", "b", "b"], ("a", "b"))
    assert cm.labels == ("a", "b")
    assert cm.counts == ((1, 1), (0, 1))


def test_confusion_matrix_rejects_negative():
    with pytest.raises(ValueError):
        ConfusionMatrix(("a",), ((-1,),))


# ---------------------------------------------------------------------------
# Decile curves

def test_curve_hits_at_start():
    events = [("s", True)] * 3 + [("s", False)] * 7
    counts = decile_curve(events)
    assert counts[0] == 0
    assert counts[3] == 3  # 30% of 10 downloads covers all three hits
    assert all(c == 3 for c in counts[3:])


def test_two_sites_sum_pointwise():
    site_a = [("a", i % 2 == 0) for i in range(10)]
    site_b = [("b", i % 3 == 0) for i in range(20)]
    merged = []
    for i in range(10):
        merged.append(site_a[i])
        merged.append(site_b[i])
    merged.extend(site_b[10:])
    combined = decile_curve(merged)
    ca = decile_curve(site_a)
    cb = decile_curve(site_b)
    assert combined == tuple(x + y for x, y in zip(ca, cb))


def test_curve_matches_brute_force_recount():
    rng = random.Random(404)
    for _ in range(20):
        events = [
            (f"site{rng.randint(0, 3)}", rng.random() < 0.3)
            for _ in range(rng.randint(1, 60))
        ]
        per_site = {}
        for site, hit in events:
            per_site.setdefault(site, []).append(hit)
        expected = []
        for percent in DECILE_PERCENTS:
            total = 0
            for hits in per_site.values():
                prefix = (percent * len(hits)) // 100
                total += sum(hits[:prefix])
            expected.append(total)
        assert list(decile_curve(events)) == expected


def test_empty_log_zero_curve():
    assert decile_curve([]) == (0,) * 11


def test_curve_monotone_and_final_total():
    rng = random.Random(9)
    events = [("s", rng.random() < 0.5) for _ in range(37)]
    counts = decile_curve(events)
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == sum(1 for _, h in events if h)


def test_curve_tsv(tmp_path):
    curve = decile_curve([("s", True), ("s", False)])
    path = tmp_path / "curve.tsv"
    write_curve_tsv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 12
    assert lines[1] == "0\t0"
