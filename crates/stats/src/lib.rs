//! Statistics substrate for the GALO knowledge base.
//!
//! Two values live here:
//!
//! * [`Range`] — the numeric validity range `[lo, hi]` stored per
//!   template-operator property (paper §3.2). Moved here from
//!   `galo_core::kb` so the parsing/defaulting logic has exactly one
//!   home.
//! * [`Stat`] — what is learned of one property: the exact observation
//!   count, minimum and maximum, and the widen factor the learner
//!   applied. [`Stat::envelope`] is its widened min/max range, the
//!   bounds the knowledge base stores and admission tests; feedback
//!   observes into the statistic and decays its widen factor.
//!
//! A statistic is stored as one plain literal, `count min max widen`
//! ([`Stat::parse`] reads it back bit for bit), so it survives
//! export/import, durable reopen and sharded reindex; a literal that does
//! not parse leaves callers on the exact stored `[hasLower*, hasHigher*]`
//! bounds. The store, log, wire and snapshot checksums guard its bytes.

/// A numeric validity range for one property of one template operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Range {
    pub lo: f64,
    pub hi: f64,
}

impl Range {
    /// The range admitting every value — the default when a stored
    /// template carries no bounds for a property.
    pub const UNBOUNDED: Range = Range {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// A degenerate range around one observation.
    pub fn point(v: f64) -> Self {
        Range { lo: v, hi: v }
    }

    /// Build from optionally-present stored bounds, defaulting each
    /// missing side to unbounded (the reindex path's contract: absent
    /// triples must never reject a candidate).
    pub fn from_bounds(lo: Option<f64>, hi: Option<f64>) -> Self {
        Range {
            lo: lo.unwrap_or(f64::NEG_INFINITY),
            hi: hi.unwrap_or(f64::INFINITY),
        }
    }

    /// Extend to cover another observation.
    pub fn cover(&mut self, v: f64) {
        self.lo = self.lo.min(v);
        self.hi = self.hi.max(v);
    }

    /// Widen multiplicatively by `margin` (≥ 1): the learned bounds define
    /// the rewrite's validity region, which extends beyond the sampled
    /// points (paper §3.2: ranges "can be updated over the time to account
    /// for cardinalities not observed before").
    pub fn widen(&self, margin: f64) -> Range {
        let m = margin.max(1.0);
        Range {
            lo: self.lo / m,
            hi: self.hi * m,
        }
    }

    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }
}

/// One learned statistic of one template property: the exact count,
/// minimum and maximum of its observations, and the multiplicative
/// widening factor the learner applied to them. Its
/// [`envelope`](Stat::envelope) is the pair of bounds the knowledge base
/// stores and admission tests; the statistic itself is stored beside them
/// as one plain literal ([`Display`](std::fmt::Display), [`Stat::parse`])
/// for feedback to refine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    count: f64,
    min: f64,
    max: f64,
    widen: f64,
}

impl Default for Stat {
    /// No observation (admits everything: `envelope` is unbounded).
    fn default() -> Self {
        Stat {
            count: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            widen: 1.0,
        }
    }
}

impl Stat {
    /// A statistic of one observation.
    pub fn point(v: f64) -> Self {
        let mut s = Stat::default();
        s.observe(v);
        s
    }

    /// A statistic whose `envelope()` is exactly `[lo, hi]` — the
    /// conservative reconstruction when only stored bounds survive
    /// (e.g. a template imported from triples without stat literals).
    pub fn from_range(lo: f64, hi: f64) -> Self {
        let mut s = Stat::default();
        s.observe(lo);
        if hi != lo {
            s.observe(hi);
        }
        s
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        self.count += 1.0;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Set the multiplicative widening factor (clamped ≥ 1) applied by
    /// [`Stat::envelope`].
    pub fn set_widen(&mut self, margin: f64) {
        self.widen = margin.max(1.0);
    }

    /// The widening factor currently applied by `envelope`.
    pub fn widen_factor(&self) -> f64 {
        self.widen
    }

    /// Relax the widening factor toward 1 by `decay ∈ [0, 1]`:
    /// `w' = 1 + (w − 1)·decay`. The factor can only shrink (never below
    /// 1, never above its current value), so decaying preserves every
    /// exact observation in the envelope — the feedback loop uses this
    /// to narrow a learned validity region as runtime actuals
    /// concentrate inside the observed core.
    pub fn decay_widen(&mut self, decay: f64) {
        let d = decay.clamp(0.0, 1.0);
        self.widen = (1.0 + (self.widen - 1.0) * d).max(1.0);
    }

    /// Observation count (exact).
    pub fn count(&self) -> f64 {
        self.count
    }

    /// Exact minimum observed value (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact maximum observed value (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The exact observed range widened by the stored factor:
    /// `[min/widen, max·widen]` — bit-identical to the stored
    /// `[hasLower*, hasHigher*]` bounds the learner writes beside it.
    /// An empty statistic is unbounded.
    pub fn envelope(&self) -> Range {
        if self.count <= 0.0 {
            return Range::UNBOUNDED;
        }
        let w = self.widen.max(1.0);
        Range {
            lo: self.min / w,
            hi: self.max * w,
        }
    }

    /// Read the [`Display`](std::fmt::Display) form back: exactly four
    /// numbers `f64` parses, one space apart, else `None` (callers fall
    /// back to the exact stored bounds).
    pub fn parse(text: &str) -> Option<Stat> {
        let mut numbers = text.split(' ').map(str::parse::<f64>);
        let mut next = || numbers.next()?.ok();
        let stat = Stat {
            count: next()?,
            min: next()?,
            max: next()?,
            widen: next()?,
        };
        numbers.next().is_none().then_some(stat)
    }
}

/// `count min max widen`, each in Rust's shortest round-trip form, so
/// [`Stat::parse`] reads back the same bits.
impl std::fmt::Display for Stat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Stat {
            count,
            min,
            max,
            widen,
        } = self;
        write!(f, "{count} {min} {max} {widen}")
    }
}

#[cfg(test)]
mod tests;
