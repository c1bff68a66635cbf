//! Unit and property tests for the statistics substrate: exactness of
//! the envelope, the widen factor's decay, and the literal's round trip.

use super::*;
use proptest::prelude::*;

fn stat_of(values: &[f64]) -> Stat {
    let mut s = Stat::default();
    for &v in values {
        s.observe(v);
    }
    s
}

/// The four numbers of a statistic, as bits: equal even where they are NaN.
fn bits(s: &Stat) -> [u64; 4] {
    [s.count(), s.min(), s.max(), s.widen_factor()].map(f64::to_bits)
}

#[test]
fn envelope_zero_matches_exact_widened_range_bit_for_bit() {
    let values = [7.0, 3.5, 900.25, 11.0, 0.125, 3.5];
    let mut s = stat_of(&values);
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
    assert_eq!(Stat::point(7.0).envelope(), Range::point(7.0));
    assert_eq!(
        Stat::from_range(3.0, 9.0).envelope(),
        Range { lo: 3.0, hi: 9.0 }
    );
    assert_eq!(Stat::from_range(4.0, 4.0).envelope(), Range::point(4.0));
    assert_eq!(Stat::from_range(4.0, 4.0).count(), 1.0);
    assert_eq!(Stat::from_range(3.0, 9.0).count(), 2.0);
}

#[test]
fn empty_and_nonfinite_sketches_stay_unbounded() {
    assert_eq!(Stat::default().envelope(), Range::UNBOUNDED);
    let fallback = Stat::from_range(f64::NEG_INFINITY, f64::INFINITY);
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

/// Flipping any byte of a written literal as `b ^ 0x40` turns a digit, a
/// space, `.` or `-` into a letter or mark that no number spells, so every
/// flip is refused; a truncation is refused or reads another statistic,
/// never the written one.
#[test]
fn serialization_roundtrips_and_rejects_every_single_byte_flip() {
    let mut s = stat_of(&[1.0, 2.0, 2.0, 3.0, 1e6, 0.125, -7.5]);
    s.set_widen(2.5);
    let text = s.to_string();
    assert_eq!(text, "7 -7.5 1000000 2.5");
    assert_eq!(Stat::parse(&text), Some(s));

    for i in 0..text.len() {
        let mut bad = text.clone().into_bytes();
        bad[i] ^= 0x40;
        let bad = String::from_utf8(bad).expect("ASCII stays ASCII");
        assert_eq!(Stat::parse(&bad), None, "flip at byte {i}: {bad:?}");
    }
    for cut in 0..text.len() {
        assert_ne!(Stat::parse(&text[..cut]), Some(s), "cut at {cut}");
    }
}

/// The literal written out by hand: the four accessors `{}`-formatted and
/// joined by single spaces.
fn char_to_literal(s: &Stat) -> String {
    [s.count(), s.min(), s.max(), s.widen_factor()]
        .map(|v| v.to_string())
        .join(" ")
}

/// The literal read by hand: split on `' '`, exactly four tokens, each an
/// `f64`.
fn char_from_literal(text: &str) -> Option<Stat> {
    let tokens: Vec<&str> = text.split(' ').collect();
    if tokens.len() != 4 {
        return None;
    }
    let mut numbers = [0.0; 4];
    for (slot, token) in numbers.iter_mut().zip(&tokens) {
        *slot = token.parse().ok()?;
    }
    let [count, min, max, widen] = numbers;
    Some(Stat {
        count,
        min,
        max,
        widen,
    })
}

/// The literal codec equals the formulas above on a seeded stream of
/// statistics and of edits to their literals. The name is kept from the
/// hex codec the plain literal replaced: hex spellings of a literal (one
/// token, no spaces) read as no statistic.
#[test]
fn hex_codec_equals_the_char_formulas() {
    // xorshift64: a seeded stream of statistics and of edits to their text.
    let mut state = 0x4E58_C0DE_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let agree = |text: &str| {
        assert_eq!(
            Stat::parse(text).map(|s| bits(&s)),
            char_from_literal(text).map(|s| bits(&s)),
            "{text:?}"
        );
    };
    for round in 0..400 {
        let n = (next() % 60) as usize;
        let mut s = stat_of(
            &(0..n)
                .map(|_| (next() % 1_000_000) as f64 / 8.0 - 1_000.0)
                .collect::<Vec<_>>(),
        );
        s.set_widen(1.0 + (round % 7) as f64 / 2.0);
        let text = s.to_string();
        assert_eq!(text, char_to_literal(&s), "round {round}");
        assert_eq!(Stat::parse(&text).map(|r| bits(&r)), Some(bits(&s)));
        agree(&text);
        // Upper-case letters (`INF`) are read as the lower-case ones.
        agree(&text.to_ascii_uppercase());
        // A cut, a character that is no digit (ASCII or not), a stray
        // digit, a doubled or dropped space.
        agree(&text[..text.len() - 1]);
        let at = (next() as usize) % text.len();
        for stray in ["g", "G", " ", "\u{e9}", "\u{2713}", "x", "-", ".", "e"] {
            agree(&format!("{}{stray}{}", &text[..at], &text[at + 1..]));
            agree(&format!("{}{stray}{}", &text[..at], &text[at..]));
        }
        let digit = char::from_digit((next() % 10) as u32, 10).unwrap();
        agree(&format!("{}{digit}{}", &text[..at], &text[at + 1..]));
        agree(&text.replacen(' ', "  ", 1));
        agree(&text.replacen(' ', "", 1));
        // The literal's bytes in hex, as the replaced codec wrote them.
        let hex: String = text.bytes().map(|b| format!("{b:02x}")).collect();
        assert_eq!(Stat::parse(&hex), None, "{hex:?}");
        agree(&hex);
        agree(&hex.to_ascii_uppercase());
    }
    for text in [
        "",
        "0",
        "00",
        "zz",
        "abc",
        "ABCD",
        "\u{e9}\u{e9}",
        "0x",
        "1 2 3 4",
        "NaN 1 2 3",
        "inf inf inf inf",
        "1e3 2E-3 +4 .5",
    ] {
        agree(text);
    }
}

/// The literal is the four numbers in shortest round-trip form, and
/// nothing but exactly four numbers one space apart reads back.
#[test]
fn republished_sketch_serialization_is_byte_stable() {
    let build = || {
        let mut s = Stat::default();
        for k in 0..200 {
            s.observe(((k * 37) % 113) as f64);
        }
        s.set_widen(2.5);
        s.to_string()
    };
    assert_eq!(build(), build());
    assert_eq!(build(), "200 0 112 2.5");
    assert_eq!(Stat::default().to_string(), "0 inf -inf 1");
    assert_eq!(Stat::parse("0 inf -inf 1"), Some(Stat::default()));
    for text in [
        "",
        "1 2 3",
        "1 2 3 4 5",
        "1 2 3 4 ",
        " 1 2 3 4",
        "1  2 3 4",
        "1\t2 3 4",
        "1 2 3 x",
        "0x1 2 3 4",
    ] {
        assert_eq!(Stat::parse(text), None, "{text:?}");
    }
}

#[test]
fn decay_widen_shrinks_toward_one_and_never_below() {
    let mut s = stat_of(&[10.0, 20.0]);
    s.set_widen(4.0);
    s.decay_widen(0.5);
    assert_eq!(s.widen_factor(), 2.5); // 1 + 3·0.5
    s.decay_widen(0.0);
    assert_eq!(s.widen_factor(), 1.0);
    s.decay_widen(0.9);
    assert_eq!(s.widen_factor(), 1.0); // stays at the floor
                                       // Out-of-range decay is clamped: never widens.
    let mut t = stat_of(&[1.0]);
    t.set_widen(3.0);
    t.decay_widen(7.0);
    assert_eq!(t.widen_factor(), 3.0);
    t.decay_widen(-1.0);
    assert_eq!(t.widen_factor(), 1.0);
}

#[test]
fn decay_widen_preserves_exact_observations_in_envelope() {
    let mut s = stat_of(&[5.0, 50.0]);
    s.set_widen(4.0);
    for _ in 0..32 {
        s.decay_widen(0.9);
        let e = s.envelope();
        assert!(e.lo <= 5.0 && e.hi >= 50.0, "envelope {e:?}");
    }
}

/// Values drawn from mixed regimes: clustered mass, wide uniform spread,
/// and large outliers — the shapes learned statistics actually see.
fn value_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..100.0,
        1.0e3f64..1.0e9,
        Just(42.0),
        Just(1.0),
        Just(7.5e11),
    ]
}

/// Any `f64`, the ones no observation should carry included.
fn any_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(-0.0),
        Just(f64::MIN_POSITIVE / 3.0),
        Just(f64::MAX),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serialization_roundtrip_is_exact_for_arbitrary_sketches(
        xs in prop::collection::vec(any_value(), 0..40),
        widen in any_value(),
    ) {
        let mut s = stat_of(&xs);
        s.set_widen(widen);
        let text = s.to_string();
        let round = Stat::parse(&text).expect("a written statistic parses");
        prop_assert_eq!(bits(&round), bits(&s), "{}", text);
        prop_assert_eq!(round.to_string(), text);
    }

    #[test]
    fn envelope_always_equals_exact_min_max(
        xs in prop::collection::vec(value_strategy(), 1..200),
        widen in 1.0f64..8.0,
    ) {
        let mut s = stat_of(&xs);
        s.set_widen(widen);
        let mut exact = Range::point(xs[0]);
        for &v in &xs[1..] {
            exact.cover(v);
        }
        prop_assert_eq!(s.envelope(), exact.widen(widen));
    }
}
