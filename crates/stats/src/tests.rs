//! Unit and property tests for the statistics substrate: exactness of
//! the envelope, centroid budgets and weights, canonical merges, and
//! serialization robustness.

use super::*;
use proptest::prelude::*;

fn sketch_of(values: &[f64]) -> StatSketch {
    let mut s = StatSketch::new();
    for &v in values {
        s.observe(v);
    }
    s
}

#[test]
fn envelope_zero_matches_exact_widened_range_bit_for_bit() {
    let values = [7.0, 3.5, 900.25, 11.0, 0.125, 3.5];
    let mut s = sketch_of(&values);
    s.set_widen(2.5);
    let mut exact = Range::point(values[0]);
    for &v in &values[1..] {
        exact.cover(v);
    }
    let exact = exact.widen(2.5);
    assert_eq!(s.envelope(), exact);
    // Same arithmetic as the legacy path: lo / m, hi * m.
    assert_eq!(s.envelope().lo, 0.125 / 2.5);
    assert_eq!(s.envelope().hi, 900.25 * 2.5);
}

#[test]
fn point_and_from_range_seed_exact_envelopes() {
    assert_eq!(StatSketch::point(7.0).envelope(), Range::point(7.0));
    assert_eq!(
        StatSketch::from_range(3.0, 9.0).envelope(),
        Range { lo: 3.0, hi: 9.0 }
    );
    assert_eq!(
        StatSketch::from_range(4.0, 4.0).envelope(),
        Range::point(4.0)
    );
}

#[test]
fn centroid_budget_holds_under_streaming_and_merge() {
    let mut a = StatSketch::new();
    for k in 0..10_000 {
        a.observe((k % 977) as f64);
    }
    assert!(a.centroid_count() <= CENTROID_BUFFER);
    assert_eq!(a.count(), 10_000.0);
    assert_eq!(a.min(), 0.0);
    assert_eq!(a.max(), 976.0);

    let b = sketch_of(
        &(0..5_000)
            .map(|k| (k % 31) as f64 * 1e6)
            .collect::<Vec<_>>(),
    );
    let mut m = a.clone();
    m.merge(&b);
    assert!(m.centroid_count() <= CENTROID_BUDGET);
    assert_eq!(m.count(), 15_000.0);
    assert_eq!(m.max(), 30.0 * 1e6);
}

#[test]
fn empty_and_nonfinite_sketches_stay_unbounded() {
    assert_eq!(StatSketch::new().envelope(), Range::UNBOUNDED);
    let fallback = StatSketch::from_range(f64::NEG_INFINITY, f64::INFINITY);
    assert_eq!(fallback.envelope(), Range::UNBOUNDED);
}

#[test]
fn range_from_bounds_defaults_each_missing_side() {
    assert_eq!(Range::from_bounds(None, None), Range::UNBOUNDED);
    assert_eq!(
        Range::from_bounds(Some(2.0), None),
        Range {
            lo: 2.0,
            hi: f64::INFINITY
        }
    );
    assert_eq!(
        Range::from_bounds(Some(2.0), Some(5.0)),
        Range { lo: 2.0, hi: 5.0 }
    );
}

#[test]
fn serialization_roundtrips_and_rejects_every_single_byte_flip() {
    let mut s = sketch_of(&[1.0, 2.0, 2.0, 3.0, 1e6]);
    s.set_widen(2.5);
    let bytes = s.to_bytes();
    assert_eq!(StatSketch::from_bytes(&bytes), Some(s.clone()));
    assert_eq!(StatSketch::from_hex(&s.to_hex()), Some(s.clone()));

    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        assert_eq!(StatSketch::from_bytes(&bad), None, "flip at byte {i}");
    }
    for cut in 0..bytes.len() {
        assert_eq!(StatSketch::from_bytes(&bytes[..cut]), None, "cut at {cut}");
    }
    assert_eq!(StatSketch::from_hex("abc"), None);
    assert_eq!(StatSketch::from_hex("zz"), None);
}

/// The hex codec before it was table-driven: `char::from_digit` per
/// nibble out, `char::to_digit` per character in.
fn char_to_hex(s: &StatSketch) -> String {
    let mut out = String::new();
    for b in s.to_bytes() {
        out.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        out.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    out
}

fn char_from_hex(hex: &str) -> Option<StatSketch> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::new();
    for pair in hex.as_bytes().chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        bytes.push(((hi << 4) | lo) as u8);
    }
    StatSketch::from_bytes(&bytes)
}

#[test]
fn hex_codec_equals_the_char_formulas() {
    // xorshift64: a seeded stream of sketches and of edits to their hex.
    let mut state = 0x4E58_C0DE_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let agree = |text: &str| {
        assert_eq!(StatSketch::from_hex(text), char_from_hex(text), "{text:?}");
    };
    for round in 0..400 {
        let n = (next() % 60) as usize;
        let mut s = sketch_of(
            &(0..n)
                .map(|_| (next() % 1_000_000) as f64 / 8.0)
                .collect::<Vec<_>>(),
        );
        s.set_widen(1.0 + (round % 7) as f64 / 2.0);
        let hex = s.to_hex();
        assert_eq!(hex, char_to_hex(&s), "round {round}");
        agree(&hex);
        // Upper-case digits are read as the lower-case ones.
        let mut mixed: Vec<u8> = hex.clone().into_bytes();
        for _ in 0..1 + next() % 8 {
            let at = (next() as usize) % mixed.len();
            mixed[at] = mixed[at].to_ascii_uppercase();
        }
        let mixed = String::from_utf8(mixed).unwrap();
        assert_eq!(StatSketch::from_hex(&mixed), Some(s.clone()));
        agree(&mixed);
        // Odd lengths, a character that is no digit (ASCII or not), a
        // flipped digit.
        agree(&hex[..hex.len() - 1]);
        let at = (next() as usize) % hex.len();
        for stray in ["g", "G", " ", "\u{e9}", "\u{2713}", "x"] {
            agree(&format!("{}{stray}{}", &hex[..at], &hex[at + 1..]));
        }
        let digit = HEX_DIGITS[(next() % 16) as usize] as char;
        agree(&format!("{}{digit}{}", &hex[..at], &hex[at + 1..]));
    }
    for text in ["", "0", "00", "zz", "abc", "ABCD", "\u{e9}\u{e9}", "0x"] {
        agree(text);
    }
}

#[test]
fn republished_sketch_serialization_is_byte_stable() {
    let build = || {
        let mut s = StatSketch::new();
        for k in 0..200 {
            s.observe(((k * 37) % 113) as f64);
        }
        s.set_widen(2.5);
        s.to_hex()
    };
    assert_eq!(build(), build());
}

#[test]
fn decay_widen_shrinks_toward_one_and_never_below() {
    let mut s = sketch_of(&[10.0, 20.0]);
    s.set_widen(4.0);
    s.decay_widen(0.5);
    assert_eq!(s.widen_factor(), 2.5); // 1 + 3·0.5
    s.decay_widen(0.0);
    assert_eq!(s.widen_factor(), 1.0);
    s.decay_widen(0.9);
    assert_eq!(s.widen_factor(), 1.0); // stays at the floor
                                       // Out-of-range decay is clamped: never widens.
    let mut t = sketch_of(&[1.0]);
    t.set_widen(3.0);
    t.decay_widen(7.0);
    assert_eq!(t.widen_factor(), 3.0);
    t.decay_widen(-1.0);
    assert_eq!(t.widen_factor(), 1.0);
}

#[test]
fn decay_widen_preserves_exact_observations_in_envelope() {
    let mut s = sketch_of(&[5.0, 50.0]);
    s.set_widen(4.0);
    for _ in 0..32 {
        s.decay_widen(0.9);
        let e = s.envelope();
        assert!(e.lo <= 5.0 && e.hi >= 50.0, "envelope {e:?}");
    }
}

/// Values drawn from mixed regimes: clustered mass, wide uniform spread,
/// and large outliers — the shapes admission sketches actually see.
fn value_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..100.0,
        1.0e3f64..1.0e9,
        Just(42.0),
        Just(1.0),
        Just(7.5e11),
    ]
}

/// Assert the centroid invariants of a sketch of the finite values in
/// `values`: sorted by `(mean, weight)`, at most [`CENTROID_BUFFER`] of
/// them, their weights summing to the finite observation count, and none
/// heavier than `max(1, 2·n/B)`.
fn assert_centroid_invariants(s: &StatSketch, values: &[f64], ctx: &str) {
    let n = values.iter().filter(|v| v.is_finite()).count() as f64;
    let cap = (2.0 * n / CENTROID_BUDGET as f64).max(1.0);
    let weights: Vec<f64> = s.centroids.iter().map(|c| c.weight).collect();
    assert!(s.centroids.len() <= CENTROID_BUFFER, "{ctx}: {weights:?}");
    assert!(
        s.centroids
            .windows(2)
            .all(|w| centroid_cmp(&w[0], &w[1]).is_le()),
        "{ctx}: unsorted"
    );
    assert_eq!(weights.iter().sum::<f64>(), n, "{ctx}");
    assert!(
        weights.iter().all(|&w| w <= cap),
        "{ctx}: cap {cap}, {weights:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_exactly_commutative(
        xs in prop::collection::vec(value_strategy(), 1..200),
        ys in prop::collection::vec(value_strategy(), 1..200),
    ) {
        let a = sketch_of(&xs);
        let b = sketch_of(&ys);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative_within_error_bound(
        xs in prop::collection::vec(value_strategy(), 1..120),
        ys in prop::collection::vec(value_strategy(), 1..120),
        zs in prop::collection::vec(value_strategy(), 1..120),
    ) {
        let (a, b, c) = (sketch_of(&xs), sketch_of(&ys), sketch_of(&zs));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.min(), right.min());
        prop_assert_eq!(left.max(), right.max());
        prop_assert_eq!(left.envelope(), right.envelope());
        prop_assert!(left.centroid_count() <= CENTROID_BUDGET);
        prop_assert!(right.centroid_count() <= CENTROID_BUDGET);

        let all: Vec<f64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
        assert_centroid_invariants(&left, &all, "left");
        assert_centroid_invariants(&right, &all, "right");
    }

    #[test]
    fn streamed_centroids_stay_within_the_weight_bound(
        xs in prop::collection::vec(value_strategy(), 1..400),
    ) {
        assert_centroid_invariants(&sketch_of(&xs), &xs, "stream");
    }

    #[test]
    fn serialization_roundtrip_is_exact_for_arbitrary_sketches(
        xs in prop::collection::vec(value_strategy(), 0..300),
        widen in 1.0f64..8.0,
    ) {
        let mut s = sketch_of(&xs);
        s.set_widen(widen);
        prop_assert_eq!(StatSketch::from_hex(&s.to_hex()), Some(s.clone()));
        let round = StatSketch::from_bytes(&s.to_bytes()).unwrap();
        prop_assert_eq!(round.to_bytes(), s.to_bytes());
    }

    #[test]
    fn envelope_always_equals_exact_min_max(
        xs in prop::collection::vec(value_strategy(), 1..200),
        widen in 1.0f64..8.0,
    ) {
        let mut s = sketch_of(&xs);
        s.set_widen(widen);
        let mut exact = Range::point(xs[0]);
        for &v in &xs[1..] {
            exact.cover(v);
        }
        prop_assert_eq!(s.envelope(), exact.widen(widen));
    }
}
