//! Statistics substrate for the GALO knowledge base.
//!
//! Two building blocks live here:
//!
//! * [`Range`] — the numeric validity range `[lo, hi]` stored per
//!   template-operator property (paper §3.2). Moved here from
//!   `galo_core::kb` so the parsing/defaulting logic has exactly one
//!   home.
//! * [`StatSketch`] — a compact, mergeable t-digest quantile sketch with
//!   a bounded centroid count. The KB keeps one sketch per learned
//!   property; the signature index derives its admission bounds from
//!   [`StatSketch::envelope`], which at `trim == 0` reproduces the exact
//!   min/max range bit-for-bit (widening included) so the sound
//!   necessary-condition property of the pre-check is unchanged, while
//!   `trim > 0` trims outlier mass for a precision/recall trade the
//!   caller opts into.
//!
//! Sketches serialize to a checksummed compact binary form (hex-encoded
//! for N-Triples literals) so they survive export/import, durable
//! reopen, and sharded reindex; [`StatSketch::from_bytes`] rejects any
//! corruption via an FNV-64 checksum and callers fall back to the exact
//! stored `[hasLower*, hasHigher*]` bounds.

/// Maximum centroids a sketch holds after a merge; streaming inserts may
/// buffer up to [`CENTROID_BUFFER`] before compressing back down.
pub const CENTROID_BUDGET: usize = 16;

/// Hard cap on stored (and serialized) centroids per sketch.
pub const CENTROID_BUFFER: usize = 2 * CENTROID_BUDGET;

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

/// One t-digest cluster: the weighted mean of a contiguous run of
/// observations in sorted order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Centroid {
    mean: f64,
    weight: f64,
}

fn centroid_cmp(a: &Centroid, b: &Centroid) -> std::cmp::Ordering {
    a.mean
        .partial_cmp(&b.mean)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(
            a.weight
                .partial_cmp(&b.weight)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
}

/// A mergeable quantile sketch over one template property, plus the
/// multiplicative widening factor the learner applied to it.
///
/// Invariants: centroids are sorted by `(mean, weight)`, there are at
/// most [`CENTROID_BUFFER`] of them, and every centroid's weight is at
/// most `max(1, 2·n/B)` where `n` is the observation count and `B` is
/// [`CENTROID_BUDGET`] — which bounds the rank error of any quantile
/// estimate by one centroid's weight. `min`/`max`/`count` are tracked
/// exactly, so `envelope(0.0)` equals the exact widened min/max range.
///
/// Merging is canonical: centroid lists are concatenated, re-sorted, and
/// compressed deterministically, so `a ⊕ b == b ⊕ a` exactly (pinned by
/// proptest) and serialization of a republished template is byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub struct StatSketch {
    centroids: Vec<Centroid>,
    count: f64,
    min: f64,
    max: f64,
    widen: f64,
}

impl Default for StatSketch {
    fn default() -> Self {
        StatSketch::new()
    }
}

impl StatSketch {
    /// An empty sketch (admits everything: `envelope` is unbounded).
    pub fn new() -> Self {
        StatSketch {
            centroids: Vec::new(),
            count: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            widen: 1.0,
        }
    }

    /// A sketch holding one observation.
    pub fn point(v: f64) -> Self {
        let mut s = StatSketch::new();
        s.observe(v);
        s
    }

    /// A sketch whose `envelope(0.0)` is exactly `[lo, hi]` — the
    /// conservative reconstruction when only stored bounds survive
    /// (e.g. a template imported from triples without sketch literals).
    pub fn from_range(lo: f64, hi: f64) -> Self {
        let mut s = StatSketch::new();
        s.observe(lo);
        if hi != lo {
            s.observe(hi);
        }
        s
    }

    /// Record one observation. Non-finite values still move the exact
    /// min/max/count but carry no centroid mass.
    pub fn observe(&mut self, v: f64) {
        self.count += 1.0;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v.is_finite() {
            let c = Centroid {
                mean: v,
                weight: 1.0,
            };
            let at = self
                .centroids
                .partition_point(|x| centroid_cmp(x, &c) == std::cmp::Ordering::Less);
            self.centroids.insert(at, c);
            if self.centroids.len() > CENTROID_BUFFER {
                self.compress(CENTROID_BUDGET);
            }
        }
    }

    /// Set the multiplicative widening factor (clamped ≥ 1) applied by
    /// [`StatSketch::envelope`].
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

    /// Number of stored centroids (≤ [`CENTROID_BUFFER`]).
    pub fn centroid_count(&self) -> usize {
        self.centroids.len()
    }

    /// Merge another sketch in. Canonical — `a.merge(&b)` and
    /// `b.merge(&a)` produce identical sketches.
    pub fn merge(&mut self, other: &StatSketch) {
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.widen = self.widen.max(other.widen);
        self.centroids.extend_from_slice(&other.centroids);
        self.centroids.sort_by(centroid_cmp);
        if self.centroids.len() > CENTROID_BUDGET {
            self.compress(CENTROID_BUDGET);
        }
    }

    /// Deterministic adjacent-cluster compression: greedy left-to-right
    /// with weight limit `2·total/budget`, which yields at most `budget`
    /// clusters and caps every cluster's weight at that limit.
    fn compress(&mut self, budget: usize) {
        if self.centroids.len() <= budget {
            return;
        }
        let total: f64 = self.centroids.iter().map(|c| c.weight).sum();
        let limit = 2.0 * total / budget as f64;
        let mut out: Vec<Centroid> = Vec::with_capacity(budget + 1);
        let mut cur = self.centroids[0];
        for c in &self.centroids[1..] {
            if cur.weight + c.weight <= limit {
                let w = cur.weight + c.weight;
                cur.mean = (cur.mean * cur.weight + c.mean * c.weight) / w;
                cur.weight = w;
            } else {
                out.push(cur);
                cur = *c;
            }
        }
        out.push(cur);
        // Means of merged contiguous runs stay ordered mathematically;
        // re-sort to make the invariant robust to float rounding.
        out.sort_by(centroid_cmp);
        self.centroids = out;
    }

    /// Estimate the value at quantile `q ∈ [0, 1]` by linear
    /// interpolation between centroid means, anchored at the exact
    /// min/max. Rank error is bounded by one centroid weight,
    /// i.e. `max(1, 2n/B)` observations.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count <= 0.0 {
            return f64::NAN;
        }
        if self.centroids.is_empty() || !self.min.is_finite() || !self.max.is_finite() {
            return if q < 0.5 { self.min } else { self.max };
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let total: f64 = self.centroids.iter().map(|c| c.weight).sum();
        let t = q * total;
        let mut cum = 0.0;
        let mut prev_value = self.min;
        let mut prev_rank = 0.0;
        for c in &self.centroids {
            let center = cum + c.weight / 2.0;
            if t <= center {
                let frac = if center > prev_rank {
                    (t - prev_rank) / (center - prev_rank)
                } else {
                    0.0
                };
                return (prev_value + (c.mean - prev_value) * frac).clamp(self.min, self.max);
            }
            prev_value = c.mean;
            prev_rank = center;
            cum += c.weight;
        }
        let frac = if total > prev_rank {
            (t - prev_rank) / (total - prev_rank)
        } else {
            1.0
        };
        (prev_value + (self.max - prev_value) * frac).clamp(self.min, self.max)
    }

    /// The admission envelope at trim level `trim ∈ [0, 0.49]`, widened
    /// by the stored factor.
    ///
    /// `trim == 0` returns the exact `[min/widen, max·widen]` range —
    /// bit-identical to the stored `[hasLower*, hasHigher*]` bounds, so
    /// the pre-check stays a sound necessary condition at the default.
    ///
    /// `trim > 0` drops whole centroids from each end while their
    /// cumulative weight stays *strictly below* `trim·count`, then
    /// anchors the bound at the outermost surviving centroid's mean.
    /// Whole-centroid trimming is deliberately conservative: a sketch of
    /// `n` observations is untouched while `trim < 1/n`, so lightly
    /// observed (learned) templates keep their full validity region and
    /// only genuinely outlying mass is trimmed away.
    pub fn envelope(&self, trim: f64) -> Range {
        if self.count <= 0.0 {
            return Range::UNBOUNDED;
        }
        let w = self.widen.max(1.0);
        let (mut lo, mut hi) = (self.min, self.max);
        let t = trim.clamp(0.0, 0.49) * self.count;
        if t > 0.0 && self.centroids.len() > 1 {
            let n = self.centroids.len();
            let mut cum = 0.0;
            let mut i = 0;
            while i + 1 < n && cum + self.centroids[i].weight < t {
                cum += self.centroids[i].weight;
                i += 1;
            }
            if i > 0 {
                lo = self.centroids[i].mean;
            }
            let mut cum = 0.0;
            let mut j = n;
            while j > i + 1 && cum + self.centroids[j - 1].weight < t {
                cum += self.centroids[j - 1].weight;
                j -= 1;
            }
            if j < n {
                hi = self.centroids[j - 1].mean;
            }
        }
        Range {
            lo: lo / w,
            hi: hi * w,
        }
    }

    /// Compact binary form: magic, widen, count, min, max, centroid
    /// count, centroid (mean, weight) pairs — all little-endian — then
    /// an FNV-64 checksum of everything before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(44 + 16 * self.centroids.len());
        b.extend_from_slice(&SKETCH_MAGIC.to_le_bytes());
        b.extend_from_slice(&self.widen.to_bits().to_le_bytes());
        b.extend_from_slice(&self.count.to_bits().to_le_bytes());
        b.extend_from_slice(&self.min.to_bits().to_le_bytes());
        b.extend_from_slice(&self.max.to_bits().to_le_bytes());
        b.extend_from_slice(&(self.centroids.len() as u32).to_le_bytes());
        for c in &self.centroids {
            b.extend_from_slice(&c.mean.to_bits().to_le_bytes());
            b.extend_from_slice(&c.weight.to_bits().to_le_bytes());
        }
        let ck = fnv64(&b);
        b.extend_from_slice(&ck.to_le_bytes());
        b
    }

    /// Parse the binary form; `None` on any length, magic, bound, or
    /// checksum mismatch (callers fall back to exact stored bounds).
    pub fn from_bytes(bytes: &[u8]) -> Option<StatSketch> {
        if bytes.len() < 48 {
            return None;
        }
        let (body, ck_bytes) = bytes.split_at(bytes.len() - 8);
        let ck = u64::from_le_bytes(ck_bytes.try_into().ok()?);
        if fnv64(body) != ck {
            return None;
        }
        let magic = u32::from_le_bytes(body[0..4].try_into().ok()?);
        if magic != SKETCH_MAGIC {
            return None;
        }
        let f = |at: usize| -> Option<f64> {
            Some(f64::from_bits(u64::from_le_bytes(
                body.get(at..at + 8)?.try_into().ok()?,
            )))
        };
        let widen = f(4)?;
        let count = f(12)?;
        let min = f(20)?;
        let max = f(28)?;
        let n = u32::from_le_bytes(body.get(36..40)?.try_into().ok()?) as usize;
        if n > CENTROID_BUFFER || body.len() != 40 + 16 * n {
            return None;
        }
        let mut centroids = Vec::with_capacity(n);
        for k in 0..n {
            centroids.push(Centroid {
                mean: f(40 + 16 * k)?,
                weight: f(48 + 16 * k)?,
            });
        }
        Some(StatSketch {
            centroids,
            count,
            min,
            max,
            widen,
        })
    }

    /// Lowercase-hex form of [`StatSketch::to_bytes`] — safe to embed as
    /// an N-Triples string literal.
    pub fn to_hex(&self) -> String {
        let bytes = self.to_bytes();
        let mut s = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        s
    }

    /// Parse [`StatSketch::to_hex`]; `None` on malformed hex or any
    /// binary-level corruption.
    pub fn from_hex(hex: &str) -> Option<StatSketch> {
        if !hex.len().is_multiple_of(2) {
            return None;
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        let chars: Vec<u8> = hex.bytes().collect();
        for pair in chars.chunks(2) {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            bytes.push(((hi << 4) | lo) as u8);
        }
        StatSketch::from_bytes(&bytes)
    }
}

const SKETCH_MAGIC: u32 = 0x47534B31; // "GSK1"

/// FNV-1a 64-bit hash — the same checksum family the WAL uses,
/// implemented locally so this crate stays dependency-free.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests;
